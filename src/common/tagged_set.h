// The tagged entries of the DSN'03 protocol's `suspected` / `mistake` sets,
// and the delta-encoding machinery that ships changes to them.
//
// An entry is a pair <id, tag>: "process `id` is suspected (resp. was
// falsely suspected), and that piece of information was generated when the
// originator's round counter had value `tag`". The sets themselves live in
// DetectorCore's per-id table, which gives each id at most one entry.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/types.h"

namespace mmrfd {

/// One <id, tag> element of a suspicion or mistake set.
struct TaggedEntry {
  ProcessId id;
  Tag tag{0};

  friend constexpr bool operator==(const TaggedEntry&,
                                   const TaggedEntry&) = default;
};

/// Epoch — a monotone version of one process's (suspected, mistake) state.
/// Epoch 0 means "nothing": no change has ever happened (sender side) or no
/// state has ever been acknowledged (receiver side).
using Epoch = std::uint64_t;

/// ChangeJournal — the delta-extraction machinery behind the compact query
/// encoding.
///
/// Every mutation of the protocol sets is record()ed; the count of
/// mutations so far is the state's *epoch*. A peer that acknowledged epoch
/// `e` provably merged everything up to `e` (tags are monotone, so replayed
/// entries are no-ops), hence a query to that peer only needs the ids
/// changed in (e, epoch()] — changed_since(e) — instead of the whole O(f)
/// set. The epoch id *interns* the long-stable portion of the sets: it
/// travels as a single integer where the full encoding repeats every entry.
///
/// The journal keeps a bounded window of recent changes. When a peer's
/// acknowledged epoch falls behind the window (covers() is false — e.g. the
/// peer is crashed and stopped acking, or it restarted and asked for a
/// resync), the sender falls back to the full encoding for that peer.
class ChangeJournal {
 public:
  /// `capacity` bounds the replay window: once more than 2 * capacity
  /// changes are buffered, the oldest half is discarded (amortised O(1)).
  explicit ChangeJournal(std::size_t capacity = 1024);

  /// Current epoch: total number of record()ed changes.
  [[nodiscard]] Epoch epoch() const { return base_ + ids_.size(); }

  /// Oldest epoch the window can still produce a delta against.
  [[nodiscard]] Epoch base() const { return base_; }

  /// True iff changed_since(since) can be answered from the window.
  [[nodiscard]] bool covers(Epoch since) const {
    return since >= base_ && since <= epoch();
  }

  /// Records a change to `id`; returns the new epoch.
  Epoch record(ProcessId id);

  /// Ids changed in (since, epoch()], deduplicated and sorted by id.
  /// Requires covers(since).
  [[nodiscard]] std::vector<ProcessId> changed_since(Epoch since) const;

  /// Transient-corruption hook (self-stabilization sweeps): discards the
  /// whole replay window and restarts the epoch counter at `new_base`, as
  /// a memory fault clobbering the journal would. Injection use only.
  void corrupt_reset(Epoch new_base) {
    base_ = new_base;
    ids_.clear();
  }

 private:
  std::size_t capacity_;
  Epoch base_{0};  // number of discarded records
  std::vector<ProcessId> ids_;  // ids_[k] changed at epoch base_ + k + 1
};

/// DeltaState — the per-peer watermark contract of DetectorCore's delta wire
/// encoding, kept apart so the soundness-critical rules live in exactly one
/// place (the tag-free SimpleDetectorCore sends bare queries and keeps none):
///
///   * sender side: `acked(peer)` is the highest of our epochs the peer has
///     acknowledged — a response to the current query certifies the peer
///     merged our state through the epoch it echoes, so entries unchanged
///     since then are provably no-op replays and can be omitted;
///   * receiver side: `seen(sender)` is the highest of the sender's epochs
///     we have merged; a delta built on a base we never acknowledged is an
///     *epoch miss* (we lost state, or the ack was not ours) and must be
///     answered with need_full.
///
/// All ids are bounds-checked against n: ids >= n (forged live-path
/// senders) never advance a watermark.
class DeltaState {
 public:
  /// `journal_capacity` as in ChangeJournal; 0 = auto (max(1024, 4n)).
  DeltaState(std::uint32_t n, std::size_t journal_capacity);

  [[nodiscard]] const ChangeJournal& journal() const { return journal_; }

  /// Records a state change; returns the new epoch.
  Epoch record(ProcessId id) { return journal_.record(id); }
  [[nodiscard]] Epoch epoch() const { return journal_.epoch(); }

  /// Snapshot the send epoch for a new query round.
  void begin_round() { sent_epoch_ = journal_.epoch(); }
  [[nodiscard]] Epoch sent_epoch() const { return sent_epoch_; }

  [[nodiscard]] Epoch acked(ProcessId peer) const {
    return acked_.at(peer.value);
  }
  [[nodiscard]] Epoch seen(ProcessId sender) const {
    return seen_.at(sender.value);
  }

  /// Applies a response's acknowledgement for the CURRENT round (callers
  /// have already matched the sequence number). The ack is clamped to
  /// sent_epoch(): no response can legitimately acknowledge more than the
  /// round sent, so a forged ack_epoch cannot push the watermark past the
  /// journal and wedge the peer onto the full fallback. need_full drops
  /// the watermark so the next query is self-contained.
  void on_ack(ProcessId from, Epoch ack_epoch, bool need_full);

  /// Sender-side fallback decision: full encoding on first contact (acked
  /// 0), journal overrun (ack no longer covered), or a lag so large the
  /// journal-suffix scan would cost more than the shared full payload —
  /// `set_size` is the full encoding's entry count (crashed peers stop
  /// acking, so their lag grows monotonically and they land here).
  [[nodiscard]] bool full_needed(ProcessId peer, std::size_t set_size) const;

  /// Receiver side: true iff `query_base` names an epoch of `sender` we
  /// never acknowledged (only meaningful for delta queries).
  [[nodiscard]] bool epoch_miss(ProcessId sender, bool is_delta,
                                Epoch query_base) const;

  /// Receiver side: advance seen(sender) after merging a query at `epoch`.
  void note_seen(ProcessId sender, Epoch epoch);

  /// Self-stabilization guard: discards every per-sender seen watermark.
  /// The watermarks are *assumptions* about state already merged; after a
  /// transient memory fault they can be wrong in the dangerous direction
  /// (too high — claiming knowledge that was lost), which silently
  /// suppresses the need_full repair forever. Periodically dropping them
  /// costs one full-encoding refresh per sender and bounds how long any
  /// fabricated watermark can survive.
  void reset_seen() { std::fill(seen_.begin(), seen_.end(), Epoch{0}); }

  /// Transient-corruption hooks (self-stabilization sweeps). These bypass
  /// every watermark invariant on purpose — a memory fault does not respect
  /// clamping — so the sweeps can prove the need_full/full-fallback resync
  /// path recovers from arbitrary damage. Injection use only.
  void corrupt_acked(ProcessId peer, Epoch value) {
    if (peer.value < acked_.size()) acked_[peer.value] = value;
  }
  void corrupt_seen(ProcessId sender, Epoch value) {
    if (sender.value < seen_.size()) seen_[sender.value] = value;
  }
  void corrupt_journal(Epoch new_base) {
    journal_.corrupt_reset(new_base);
    sent_epoch_ = journal_.epoch();
  }

 private:
  ChangeJournal journal_;
  std::vector<Epoch> acked_;  // per peer: our epochs they acked
  std::vector<Epoch> seen_;   // per sender: their epochs we merged
  Epoch sent_epoch_{0};
};

}  // namespace mmrfd
