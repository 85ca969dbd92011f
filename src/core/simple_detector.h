// SimpleDetectorCore — the tag-free variant of the query-response detector,
// sound only under the *perpetual* message pattern (class S).
//
// If MP holds from the very first query (no correct process is ever missed
// by its witnesses), no false suspicion of the witness can ever occur and
// the whole mistake/tag machinery of the full protocol is dead weight: it
// suffices to suspect `known \ rec_from` and to unsuspect a process when a
// message from it arrives. This is the natural "simplest thing that works"
// under the strong assumption — and it is *wrong* under the eventual
// assumption: a process suspected during the unstable prefix can only be
// excused by direct contact, so third parties holding stale suspicions of a
// witness they never hear from directly keep them forever, breaking
// eventual weak accuracy where the full protocol recovers.
//
// The pair (SimpleDetectorCore, DetectorCore) is the repository's ablation
// of the paper's central design choice; experiment E9 measures it.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "core/failure_detector.h"
#include "core/messages.h"

namespace mmrfd::core {

struct SimpleDetectorConfig {
  ProcessId self{0};
  std::uint32_t n{0};
  std::uint32_t f{0};

  /// Delta-encode queries (same watermark/epoch machinery as DetectorCore).
  /// Receivers ignore query contents for state either way — the delta only
  /// shrinks wire bytes, so the E9 message-cost ablation stays apples to
  /// apples with the full protocol's delta mode.
  bool delta_queries{true};

  /// Replay-window capacity; 0 = auto (max(1024, 4 * n)).
  std::uint32_t delta_journal_capacity{0};

  /// Requires n >= 1 && f < n (validated by SimpleDetectorCore), so n - f
  /// needs no lower clamp — same contract as DetectorConfig::quorum().
  [[nodiscard]] std::uint32_t quorum() const { return n - f; }
};

class SimpleDetectorCore final : public FailureDetector {
 public:
  using Config = SimpleDetectorConfig;
  /// Throws std::invalid_argument unless n >= 1, f < n and self < n (the
  /// same loud rejection of misconfiguration as DetectorCore).
  explicit SimpleDetectorCore(const SimpleDetectorConfig& config);

  void set_observer(SuspicionObserver* observer) { observer_ = observer; }

  /// Starts a round. The query still carries the suspected set (so peers
  /// can be measured/observed), but receivers ignore it for state updates —
  /// there is no way to order stale vs fresh information without tags.
  [[nodiscard]] QueryMessage start_query();

  /// Delta path, mirroring DetectorCore: begin the round, then build one
  /// message per peer. A delta lists only the ids suspected since the
  /// peer's acknowledged epoch (cleared ids are simply not re-listed —
  /// receivers never merge this content, so no removal marker is needed).
  void begin_query();
  [[nodiscard]] QueryMessage full_query() const;
  [[nodiscard]] bool full_query_needed(ProcessId peer) const;
  [[nodiscard]] QueryMessage query_for(ProcessId peer);

  /// Returns true when the quorum-th distinct response arrives.
  bool on_response(ProcessId from, const ResponseMessage& response);

  /// Suspects known \ rec_from; unsuspects every responder.
  void finish_round();

  /// Any direct message from a live process clears its suspicion.
  [[nodiscard]] ResponseMessage on_query(ProcessId from,
                                         const QueryMessage& query);

  [[nodiscard]] std::vector<ProcessId> suspected() const override;
  [[nodiscard]] bool is_suspected(ProcessId id) const override;
  [[nodiscard]] bool query_terminated() const { return terminated_; }
  /// This round's responders (self included), in arrival order.
  [[nodiscard]] std::span<const ProcessId> rec_from() const {
    return rec_from_;
  }
  [[nodiscard]] bool responded(ProcessId id) const {
    return id.value < responded_.size() && responded_[id.value];
  }
  [[nodiscard]] QuerySeq query_seq() const { return seq_; }
  [[nodiscard]] std::uint64_t rounds_completed() const { return rounds_; }
  [[nodiscard]] const SimpleDetectorConfig& config() const { return config_; }

 private:
  void set_suspected(ProcessId id, bool suspect);

  SimpleDetectorConfig config_;
  SuspicionObserver* observer_{nullptr};
  std::vector<bool> suspected_;
  std::size_t suspect_count_{0};
  QuerySeq seq_{0};
  bool in_progress_{false};
  bool terminated_{false};
  std::vector<ProcessId> rec_from_;  // arrival order
  std::vector<bool> responded_;      // per id: in rec_from_ this round
  std::uint64_t rounds_{0};

  // Delta encoding: the watermark rules live in common::DeltaState,
  // shared with DetectorCore.
  DeltaState delta_;
};

}  // namespace mmrfd::core
