#include "common/tagged_set.h"

#include <algorithm>
#include <cassert>

namespace mmrfd {

ChangeJournal::ChangeJournal(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

Epoch ChangeJournal::record(ProcessId id) {
  if (ids_.size() >= 2 * capacity_) {
    const std::size_t drop = ids_.size() - capacity_;
    ids_.erase(ids_.begin(), ids_.begin() + static_cast<std::ptrdiff_t>(drop));
    base_ += drop;
  }
  ids_.push_back(id);
  return epoch();
}

std::vector<ProcessId> ChangeJournal::changed_since(Epoch since) const {
  assert(covers(since));
  std::vector<ProcessId> out(ids_.begin() + static_cast<std::ptrdiff_t>(
                                 since - base_),
                             ids_.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

DeltaState::DeltaState(std::uint32_t n, std::size_t journal_capacity)
    : journal_(journal_capacity != 0
                   ? journal_capacity
                   : std::max<std::size_t>(1024, 4 * std::size_t{n})),
      acked_(n, 0),
      seen_(n, 0) {}

void DeltaState::on_ack(ProcessId from, Epoch ack_epoch, bool need_full) {
  if (from.value >= acked_.size()) return;
  auto& acked = acked_[from.value];
  if (need_full) {
    acked = 0;
  } else {
    acked = std::max(acked, std::min(ack_epoch, sent_epoch_));
  }
}

bool DeltaState::full_needed(ProcessId peer, std::size_t set_size) const {
  const Epoch acked = acked_.at(peer.value);
  if (acked == 0 || !journal_.covers(acked)) return true;
  // Cost guard: building a delta scans + sorts the journal suffix (one
  // record per change since the peer's ack), while the full fallback is
  // one O(set_size) construction *shared* by every such peer.
  const Epoch lag = journal_.epoch() - acked;
  return lag > 2 * set_size + 16;
}

bool DeltaState::epoch_miss(ProcessId sender, bool is_delta,
                            Epoch query_base) const {
  return is_delta && sender.value < seen_.size() &&
         query_base > seen_[sender.value];
}

void DeltaState::note_seen(ProcessId sender, Epoch epoch) {
  if (sender.value >= seen_.size()) return;
  seen_[sender.value] = std::max(seen_[sender.value], epoch);
}

}  // namespace mmrfd
