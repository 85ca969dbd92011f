// The behavioral (message-pattern) property MP, reified.
//
// DSN'03 replaces timing assumptions with a *pattern* on the query-response
// exchange:
//
//   MP: there is a correct process p such that eventually the response of p
//   to every query issued by every correct process is a winning response
//   (arrives among the first n - f).
//
// When MP holds the protocol's output satisfies eventual weak accuracy, and
// with unconditional strong completeness the detector is of class <>S. The
// *perpetual* variant of MP (winning from the very first query) yields the
// (stronger) class S.
//
// Why "every correct process" and not some smaller quorum: a correct process
// q that misses p's response can always *regenerate* a fresh suspicion of p
// with a tag above p's last mistake (T1 lines 10-12), so p's suspicion state
// at q flaps forever unless q eventually always receives p's response in
// time. The quorum-parameterized relaxation (p winning for only k issuers)
// is still implemented — check_with_quorum() — because it is useful in its
// own right: it guarantees accuracy *at those k processes*, e.g. a
// coordinator quorum.
//
// This module provides:
//   * PropertyRecorder — collects, per terminated query, the issuer and the
//     winning responder set (hosts feed it as rounds terminate), each set as
//     n bits: the journal is the recorded execution MP is decided on, so it
//     stays exact, at n/8 bytes a query instead of 4 bytes per winner;
//   * MpChecker — decides, offline, whether/when MP held in the recorded
//     execution, which witness p and quorum set Q realize it, and the
//     pairwise winning-fraction statistics used by experiment E5.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"

namespace mmrfd::core {

/// One terminated query: who issued it, when it terminated, who won.
struct QueryRecord {
  ProcessId issuer;
  QuerySeq seq{0};
  TimePoint terminated_at{kTimeZero};
  /// The winning set (issuer included) as n bits: p won iff bit p % 64 of
  /// word p / 64 is set.
  std::vector<std::uint64_t> winning;

  /// True iff `p` is in the winning set.
  [[nodiscard]] bool won(ProcessId p) const {
    const std::size_t word = p.value / 64;
    return word < winning.size() && ((winning[word] >> (p.value % 64)) & 1U);
  }
  /// The winning set, ascending.
  [[nodiscard]] std::vector<ProcessId> winners() const;
};

class PropertyRecorder {
 public:
  explicit PropertyRecorder(std::uint32_t n) : n_(n) {}

  /// Journals one terminated query; `winning` may come in any order (the
  /// core hands its responders in arrival order). Throws std::out_of_range
  /// for an issuer or winner id >= n, in every build: it would index past
  /// the bit set and the checker's per-issuer tables.
  void record(ProcessId issuer, QuerySeq seq, TimePoint terminated_at,
              std::span<const ProcessId> winning);

  [[nodiscard]] const std::vector<QueryRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::uint32_t n() const { return n_; }

 private:
  std::uint32_t n_;
  std::vector<QueryRecord> records_;
};

/// Result of checking MP over one recorded execution.
struct MpVerdict {
  /// MP held: some correct p was a winning responder of every query issued
  /// by each member of the issuer set from `holds_from` on, with at least
  /// `min_queries_after` queries per issuer after that point.
  bool holds{false};
  /// The perpetual variant held (no violating query at all) — class S.
  bool holds_perpetually{false};
  ProcessId witness{kNoProcess};        ///< the correct process p
  TimePoint holds_from{kTimeZero};      ///< earliest t* realizing MP
  std::vector<ProcessId> quorum_set;    ///< the issuers covered by p
};

class MpChecker {
 public:
  /// `correct` lists the processes that never crashed in the execution.
  MpChecker(const PropertyRecorder& recorder, std::uint32_t f,
            std::span<const ProcessId> correct);

  /// Decides MP (the accuracy-guaranteeing form): the witness must have a
  /// violation-free suffix w.r.t. EVERY correct process that issued at
  /// least `min_queries_after` queries. An issuer's suffix only counts as
  /// evidence if it contains at least `min_queries_after` terminated
  /// queries (a property that holds "eventually" over zero queries is
  /// vacuous in a finite trace).
  [[nodiscard]] MpVerdict check(std::size_t min_queries_after = 3) const;

  /// The quorum-parameterized relaxation: the witness need only cover some
  /// `issuers`-sized set of issuers. With issuers = f + 1 this is the
  /// weakest form under which at least one *correct* process enjoys
  /// accuracy about the witness.
  [[nodiscard]] MpVerdict check_with_quorum(
      std::size_t issuers, std::size_t min_queries_after = 3) const;

  /// Fraction of q's terminated queries whose winning set contained p.
  [[nodiscard]] double winning_fraction(ProcessId p, ProcessId q) const;

  /// Number of terminated queries recorded for issuer q.
  [[nodiscard]] std::size_t query_count(ProcessId q) const;

 private:
  const PropertyRecorder& recorder_;
  std::uint32_t f_;
  std::vector<ProcessId> correct_;  // sorted
};

/// Verdict of a self-stabilization check over one execution.
struct StabilizationVerdict {
  /// Every correct observer's final suspicion view is exactly the crashed
  /// set: strong completeness (all crashed suspected) + accuracy (no
  /// correct process suspected).
  bool converged{false};
  /// Time of the last suspicion-view change at any correct observer — once
  /// converged, the execution was stable from here on. Tests assert
  /// `stabilized_at - injection_time` is bounded.
  TimePoint stabilized_at{kTimeZero};
  /// (observer, crashed subject) pairs the observer fails to suspect.
  std::vector<std::pair<ProcessId, ProcessId>> missing;
  /// (observer, correct subject) pairs the observer wrongly suspects.
  std::vector<std::pair<ProcessId, ProcessId>> false_suspicions;
};

/// StabilizationChecker — the self-stabilization property as a trace check.
///
/// The adversarial sweeps perturb an execution (channel faults, transient
/// state corruption) and then ask: did the cluster *re-converge* to the
/// detector's specification — every correct process eventually suspects
/// exactly the crashed processes — and how long did the repair take? Feed
/// it every suspicion transition (suspected = true on kSuspected, false on
/// kCleared; mistakes are view-neutral) in any order consistent with
/// per-observer causality; transitions at crashed observers are ignored.
class StabilizationChecker {
 public:
  StabilizationChecker(std::uint32_t n, std::span<const ProcessId> crashed);

  /// Records that `observer` started/stopped suspecting `subject` at
  /// `when`. Out-of-range ids are ignored (live-path robustness).
  void feed(TimePoint when, ProcessId observer, ProcessId subject,
            bool suspected);

  [[nodiscard]] StabilizationVerdict verdict() const;

 private:
  std::uint32_t n_;
  std::vector<bool> crashed_;
  std::vector<std::uint8_t> view_;  // n*n row-major: observer suspects subject
  TimePoint last_change_{kTimeZero};
};

}  // namespace mmrfd::core
