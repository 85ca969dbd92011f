// DetectorCore — the DSN'03 asynchronous failure-detector protocol as a
// sans-I/O state machine.
//
// The core knows nothing about clocks, sockets or the simulator.
// core::RoundDriver (round_driver.h) runs its rounds for every host; one
// round by hand:
//
//   QueryMessage q = core.start_query();          // T1 line: broadcast QUERY
//   ... deliver q to all peers; for each peer query received:
//   ResponseMessage r = core.on_query(from, q');  // T2 (merge + respond)
//   ... for each response received:
//   core.on_response(from, r');                   // returns true on the
//                                                 // (n - f)th response
//   ... once terminated (plus any pacing delay during which late responses
//       may still be fed in):
//   core.finish_round();                          // T1 lines 8-16
//
// Protocol recap (Mostefaoui–Mourgaya–Raynal, generalized presentation):
//   * A query terminates when responses from (n - f) distinct processes have
//     arrived; those responders are the round's *winning* responders. The
//     issuer's own response is always counted first (the paper's
//     convention), so only n - f - 1 remote responses are awaited.
//   * T1: every known process that did not respond to the last query becomes
//     suspected, tagged with the current round counter. If a mistake entry
//     existed for it, the counter first jumps above the mistake's tag so the
//     new suspicion dominates it.
//   * T2: tagged suspicion/mistake information received in a query is merged
//     newest-tag-wins; on a tie between a suspicion and a mistake the
//     mistake prevails (the paper's `<` vs `<=` asymmetry). If the receiver
//     finds *itself* suspected it generates a mistake with a strictly
//     dominating tag — the self-defence that repairs false suspicions.
//
// Completeness needs no assumption: a crashed process stops responding and
// can never defend itself. Eventual weak accuracy needs the behavioral
// property MP (see properties.h).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/tagged_set.h"
#include "common/types.h"
#include "core/failure_detector.h"
#include "core/messages.h"

namespace mmrfd::obs {
class FlightRecorder;
enum class TraceKind : std::uint8_t;
}  // namespace mmrfd::obs

namespace mmrfd::core {

struct DetectorConfig {
  ProcessId self{0};
  std::uint32_t n{0};  ///< |Pi| — known system cardinality
  std::uint32_t f{0};  ///< max number of crashes tolerated, f < n

  /// Count responses that arrive after query termination (e.g. during the
  /// inter-query pacing delay) as responders of the round. Reduces false
  /// suspicions; does not affect correctness (Section 6 of the lineage).
  bool accept_late_responses{true};

  /// Extra winning slack: wait for (n - f + extra_quorum) responses instead
  /// of (n - f). Ablation knob (experiment E7); 0 is the paper's protocol.
  std::uint32_t extra_quorum{0};

  /// Delta-encode queries: track, per peer, the highest state epoch that
  /// peer acknowledged and send only entries changed since then, with the
  /// stable remainder interned as the base epoch id (one integer instead of
  /// O(f) entries). Protocol semantics are bit-identical to the full
  /// encoding — every omitted entry would have been a no-op replay at the
  /// receiver — and the encoding-equivalence harness enforces it. OFF gives
  /// the paper's canonical full encoding, kept as the semantic reference.
  bool delta_queries{true};

  /// Replay-window capacity of the change journal backing delta extraction;
  /// peers whose acknowledgement falls behind the window get a full query
  /// (the epoch-miss fallback). 0 = auto (max(1024, 4 * n)).
  std::uint32_t delta_journal_capacity{0};

  /// Crashed-peer give-up policy: once a peer has been suspected for
  /// giveup_rounds consecutive completed rounds, query it only every
  /// giveup_rounds-th round (a 1/K probe rate) instead of every round.
  /// Crashed peers never ack, so every query to them degrades to the
  /// full-encoding fallback forever — at live n=64 dead peers dominate
  /// full_q. The probe keeps eventual accuracy intact: a falsely suspected
  /// peer still periodically receives the suspicion and can defend, and the
  /// number of simultaneously skipped peers is capped at n - quorum() so a
  /// round can always still reach quorum when suspicions are false.
  /// 0 disables (the paper's query-everyone behavior).
  std::uint32_t giveup_rounds{8};

  /// Self-stabilization guard for the delta encoding: every
  /// resync_interval completed rounds the node discards its per-sender
  /// seen-epoch watermarks, answering the next delta query from each peer
  /// with need_full and forcing one full-encoding refresh. The watermarks
  /// are unverifiable assumptions ("I merged that sender's state through
  /// epoch e"); a transient memory fault can fabricate them too *high*,
  /// which silently suppresses the need_full repair path forever — the
  /// periodic reset bounds the lifetime of any such fabrication, making
  /// re-convergence after arbitrary state corruption a guarantee instead
  /// of a probability. Costs n-1 full queries per node per interval;
  /// irrelevant in full mode. 0 disables.
  std::uint32_t resync_interval{64};

  /// Number of responses that terminate a query. Requires n >= 1 && f < n
  /// (DetectorCore rejects anything else at construction), so n - f >= 1
  /// and no lower clamp is needed; only the ablation knob extra_quorum is
  /// capped at n (a node cannot wait for more responders than exist).
  [[nodiscard]] std::uint32_t quorum() const {
    const std::uint32_t q = n - f + extra_quorum;
    return q > n ? n : q;
  }
};

class DetectorCore final : public FailureDetector {
 public:
  using Config = DetectorConfig;
  /// Throws std::invalid_argument unless n >= 1, f < n and self < n — a
  /// misconfigured detector (e.g. f >= n, which would underflow quorum())
  /// must fail loudly in every build type, not just under NDEBUG-off.
  explicit DetectorCore(const DetectorConfig& config);

  /// Registers an observer for suspicion transitions (may be nullptr).
  void set_observer(SuspicionObserver* observer) { observer_ = observer; }

  /// Attaches a flight recorder for round/suspicion/resync trace records
  /// (may be nullptr). Recording is passive — no scheduling, no RNG — so
  /// attaching one never perturbs a deterministic run.
  void set_recorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

  // --- T1: query issuing ---------------------------------------------------

  /// Starts a new round and returns the QUERY to broadcast to all peers
  /// (canonical full encoding). Requires the previous round (if any) to
  /// have been finish_round()ed: a node issues a new query only after the
  /// previous one terminated. Delta-mode hosts use begin_query() +
  /// query_for(peer) instead, building one per-peer message.
  [[nodiscard]] QueryMessage start_query();

  /// Starts a new round without building a message (the delta path).
  void begin_query();

  /// The canonical full query for the current round (self-contained; every
  /// entry of both sets). Requires a round started this cycle.
  [[nodiscard]] QueryMessage full_query() const;

  /// True when `peer` must receive the full encoding this round: delta mode
  /// off, nothing acknowledged yet, or its acknowledgement fell out of the
  /// journal's replay window (epoch miss / requested resync). Hosts use
  /// this to share one full payload across all such peers.
  [[nodiscard]] bool full_query_needed(ProcessId peer) const;

  /// The query to send `peer` this round: a delta against the epoch the
  /// peer last acknowledged, or the full encoding when
  /// full_query_needed(peer). Per-round results are memoized by base epoch.
  [[nodiscard]] QueryMessage query_for(ProcessId peer);

  /// Give-up policy decision for the current round: false when `peer` has
  /// been suspected for >= giveup_rounds consecutive rounds and this round
  /// is not its 1/K probe (see DetectorConfig::giveup_rounds). Hosts skip
  /// the send entirely. Valid after begin_query()/start_query().
  [[nodiscard]] bool should_query(ProcessId peer) const {
    return peer.value >= skip_.size() || !skip_[peer.value];
  }

  /// Feeds a RESPONSE. Returns true exactly once per round: when the quorum
  /// (n - f)th distinct response arrives and the query terminates. Stale
  /// (old-seq) and duplicate responses are ignored.
  bool on_response(ProcessId from, const ResponseMessage& response);

  /// Runs the suspicion-generation step over known \ rec_from and advances
  /// the round counter (T1 lines 9-16). Requires query_terminated().
  void finish_round();

  // --- T2: query serving ---------------------------------------------------

  /// Merges the query's suspicion/mistake information into local state and
  /// returns the RESPONSE to send back to `from`.
  [[nodiscard]] ResponseMessage on_query(ProcessId from,
                                         const QueryMessage& query);

  // --- observers -----------------------------------------------------------

  [[nodiscard]] std::vector<ProcessId> suspected() const override;
  [[nodiscard]] bool is_suspected(ProcessId id) const override;

  [[nodiscard]] const TaggedSet& suspected_set() const { return suspected_; }
  [[nodiscard]] const TaggedSet& mistake_set() const { return mistake_; }
  [[nodiscard]] Tag counter() const { return counter_; }
  [[nodiscard]] QuerySeq query_seq() const { return seq_; }
  [[nodiscard]] bool query_in_progress() const { return in_progress_; }
  [[nodiscard]] bool query_terminated() const { return terminated_; }

  /// All responders of the current/last round so far (self included), in
  /// arrival order.
  [[nodiscard]] std::span<const ProcessId> rec_from() const {
    return rec_from_;
  }
  /// True iff `id` is in rec_from().
  [[nodiscard]] bool responded(ProcessId id) const {
    return id.value < responded_.size() && responded_[id.value];
  }
  /// The first quorum() responders (self included) — the *winning* set used
  /// by the MP property machinery.
  [[nodiscard]] std::span<const ProcessId> winning() const { return winning_; }

  /// Processes this node has ever heard a query from (plus the initial
  /// membership). With known membership this is Pi \ {self} from the start.
  [[nodiscard]] std::span<const ProcessId> known() const { return known_; }

  [[nodiscard]] const DetectorConfig& config() const { return config_; }

  /// Rounds completed (finish_round() calls).
  [[nodiscard]] std::uint64_t rounds_completed() const { return rounds_; }

  /// Consecutive completed rounds `peer` has spent in the suspected set
  /// (give-up policy input; resets to 0 the moment the peer stops being
  /// suspected).
  [[nodiscard]] std::uint32_t suspect_streak(ProcessId peer) const {
    return peer.value < streak_.size() ? streak_[peer.value] : 0;
  }

  /// Total sends the give-up policy elided (skip decisions made by
  /// begin_query(), summed over all rounds).
  [[nodiscard]] std::uint64_t queries_skipped() const {
    return queries_skipped_;
  }

  // --- transient-fault injection -------------------------------------------

  /// Self-stabilization test hook: scrambles this node's protocol state the
  /// way a transient memory fault would — suspected/mistake sets replaced
  /// with arbitrary entries (possibly a self-suspicion no correct execution
  /// produces), the round counter shifted, the change journal reset to an
  /// arbitrary epoch and the per-peer ack/seen watermarks overwritten.
  /// Observer transitions are fired for the set diff so event logs track
  /// what the node now (wrongly) believes. Deterministic per seed.
  /// The sweeps assert the cluster re-converges afterwards.
  void inject_transient_corruption(std::uint64_t seed);

  // --- delta-encoding observers --------------------------------------------

  /// Current state epoch (count of suspicion/mistake mutations).
  [[nodiscard]] Epoch state_epoch() const { return delta_.epoch(); }

  /// Highest of our epochs `peer` has acknowledged (0 = none).
  [[nodiscard]] Epoch acked_epoch(ProcessId peer) const {
    return delta_.acked(peer);
  }

  /// Highest epoch of `sender`'s state we have merged (0 = none).
  [[nodiscard]] Epoch seen_epoch(ProcessId sender) const {
    return delta_.seen(sender);
  }

 private:
  void add_suspicion(ProcessId id, Tag tag);
  void add_mistake(ProcessId id, Tag tag);
  /// Largest tag attached to `id` in either set, if any. The sets are
  /// mutually exclusive, so this is simply the tag of the only entry.
  /// O(1) via the dense mirror for id < n; binary search otherwise.
  [[nodiscard]] std::optional<Tag> local_tag(ProcessId id) const;
  /// True iff `id`'s entry (if any) lives in the mistake set.
  [[nodiscard]] bool is_mistake(ProcessId id) const;

  void trace(obs::TraceKind kind, std::uint32_t a, std::uint32_t b) const;

  DetectorConfig config_;
  SuspicionObserver* observer_{nullptr};
  obs::FlightRecorder* recorder_{nullptr};

  Tag counter_{0};
  TaggedSet suspected_;
  TaggedSet mistake_;
  /// Dense O(1) mirror of the two sets for ids < n: the merge loop probes
  /// local state once per received entry, and the sorted sets' binary
  /// search + cache-miss chain dominated large-n profiles. Ids >= n (bogus
  /// wire senders on the live path) fall back to the sets themselves.
  /// kind: 0 = absent, 1 = suspected, 2 = mistake.
  std::vector<Tag> dense_tag_;
  std::vector<std::uint8_t> dense_kind_;
  std::vector<ProcessId> known_;  // sorted, excludes self

  QuerySeq seq_{0};
  bool in_progress_{false};
  bool terminated_{false};
  std::vector<ProcessId> rec_from_;  // arrival order
  std::vector<bool> responded_;      // per id < n: in rec_from_ this round
  std::vector<ProcessId> winning_;
  std::uint64_t rounds_{0};

  // Give-up policy state: per-peer consecutive-suspected-round streaks
  // (updated by finish_round()) and the current round's skip set (computed
  // by begin_query(), capped at n - quorum() simultaneous skips).
  std::vector<std::uint32_t> streak_;
  std::vector<bool> skip_;
  std::uint64_t queries_skipped_{0};

  // Delta encoding (maintained in every mode so flipping the flag or
  // inspecting epochs is always valid; record() is O(1)). The watermark
  // rules live in common::DeltaState, shared with SimpleDetectorCore.
  DeltaState delta_;
  /// Per-round memo of built queries, keyed by base epoch (0 = full): all
  /// peers that acked the same epoch share one construction.
  std::vector<std::pair<Epoch, QueryMessage>> round_queries_;
};

}  // namespace mmrfd::core
