#include "core/detector_core.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "obs/flight_recorder.h"

namespace mmrfd::core {

DetectorCore::DetectorCore(const DetectorConfig& config)
    : config_(config), delta_(config.n, config.delta_journal_capacity) {
  if (config_.n < 1) {
    throw std::invalid_argument("DetectorConfig: n must be >= 1, got " +
                                std::to_string(config_.n));
  }
  if (config_.f >= config_.n) {
    throw std::invalid_argument(
        "DetectorConfig: f must be < n (got f=" + std::to_string(config_.f) +
        ", n=" + std::to_string(config_.n) + ")");
  }
  if (config_.self.value >= config_.n) {
    throw std::invalid_argument(
        "DetectorConfig: self must be < n (got self=" +
        std::to_string(config_.self.value) +
        ", n=" + std::to_string(config_.n) + ")");
  }
  dense_tag_.assign(config_.n, 0);
  dense_kind_.assign(config_.n, 0);
  responded_.assign(config_.n, false);
  streak_.assign(config_.n, 0);
  skip_.assign(config_.n, false);
}

QueryMessage DetectorCore::start_query() {
  begin_query();
  return full_query();
}

void DetectorCore::begin_query() {
  assert(!in_progress_ || terminated_);
  // Transient corruption can plant a self-suspicion no correct execution
  // produces. Repair it before building this round's queries (self-defence
  // without a witness) so they already carry the dominating mistake; in an
  // uncorrupted run the branch never fires and schedules are untouched.
  if (is_suspected(config_.self)) {
    counter_ = std::max(counter_, next_tag(*local_tag(config_.self)));
    add_mistake(config_.self, counter_);
  }
  ++seq_;
  in_progress_ = true;
  rec_from_.clear();
  responded_.assign(config_.n, false);
  // The issuer's own response is always counted, and always among the first
  // quorum() (paper convention).
  rec_from_.push_back(config_.self);
  responded_[config_.self.value] = true;
  terminated_ = rec_from_.size() >= config_.quorum();
  // Give-up skip set: peers suspected and silent for >= K consecutive
  // rounds are queried only on their 1/K probe rounds. At most n - quorum()
  // peers may be skipped simultaneously so a round can still terminate
  // even if every skip decision is wrong.
  if (config_.giveup_rounds > 0) {
    std::fill(skip_.begin(), skip_.end(), false);
    const std::uint32_t k = config_.giveup_rounds;
    const std::size_t budget = config_.n - config_.quorum();
    // A streak grows only while its peer is silent, and a finished round
    // leaves at most n - quorum() peers silent, so only a corrupted streak
    // table (inject_transient_corruption) offers more candidates than the
    // budget. The budget then goes to the LONGEST streaks first (ties to
    // the lowest id, for determinism): a crashed peer's streak is
    // unbounded, and a round must not be starved of the live responders it
    // needs for quorum.
    std::vector<ProcessId> cand;
    for (ProcessId pj : known()) {
      const std::uint32_t s = streak_[pj.value];
      if (s >= k && s % k != 0) cand.push_back(pj);
    }
    std::sort(cand.begin(), cand.end(), [&](ProcessId a, ProcessId b) {
      if (streak_[a.value] != streak_[b.value]) {
        return streak_[a.value] > streak_[b.value];
      }
      return a.value < b.value;
    });
    if (cand.size() > budget) cand.resize(budget);
    for (ProcessId pj : cand) {
      skip_[pj.value] = true;
      ++queries_skipped_;
      trace(obs::TraceKind::kGiveUpSkip, pj.value,
            static_cast<std::uint32_t>(streak_[pj.value]));
    }
  }
  delta_.begin_round();
  round_queries_.clear();
  trace(obs::TraceKind::kRoundOpen,
        static_cast<std::uint32_t>(seq_), 0);
}

QueryMessage DetectorCore::full_query() const {
  QueryMessage q;
  q.seq = seq_;
  // Reference full mode stays epoch-less — byte-identical to the paper's
  // encoding; the delta machinery only engages via acknowledgements.
  q.epoch = config_.delta_queries ? delta_.sent_epoch() : 0;
  // One walk of the table fills both halves, each ascending by id.
  q.entries.resize(std::size_t{suspected_count_} + mistake_count_);
  q.suspected_count = suspected_count_;
  std::size_t sus = 0;
  std::size_t mis = suspected_count_;
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (dense_kind_[i] == kSuspected) {
      q.entries[sus++] = TaggedEntry{ProcessId{i}, dense_tag_[i]};
    } else if (dense_kind_[i] == kMistake) {
      q.entries[mis++] = TaggedEntry{ProcessId{i}, dense_tag_[i]};
    }
  }
  assert(sus == suspected_count_ && mis == q.entries.size());
  return q;
}

bool DetectorCore::full_query_needed(ProcessId peer) const {
  if (!config_.delta_queries) return true;
  return delta_.full_needed(peer,
                            std::size_t{suspected_count_} + mistake_count_);
}

QueryMessage DetectorCore::query_for(ProcessId peer) {
  assert(in_progress_);
  assert(delta_.epoch() == delta_.sent_epoch());  // no mutation since begin
  const Epoch base = full_query_needed(peer) ? 0 : delta_.acked(peer);
  for (const auto& [b, q] : round_queries_) {
    if (b == base) return q;
  }
  QueryMessage q;
  if (base == 0) {
    q = full_query();
  } else {
    q.seq = seq_;
    q.epoch = delta_.sent_epoch();
    q.base_epoch = base;
    q.set_delta(true);
    std::vector<TaggedEntry> mist;
    for (ProcessId id : delta_.journal().changed_since(base)) {
      // In a correct execution every id ever touched stays in exactly one
      // of the two sets (an entry only ever moves between them), but
      // transient corruption can leave the replay window naming ids that
      // are now in neither — absence is not gossipable, so skip them.
      const Tag tag = dense_tag_[id.value];
      if (dense_kind_[id.value] == kSuspected) {
        q.entries.push_back({id, tag});
      } else if (dense_kind_[id.value] == kMistake) {
        mist.push_back({id, tag});
      }
    }
    q.suspected_count = static_cast<std::uint32_t>(q.entries.size());
    q.entries.insert(q.entries.end(), mist.begin(), mist.end());
  }
  round_queries_.emplace_back(base, q);
  return q;
}

bool DetectorCore::on_response(ProcessId from, const ResponseMessage& response) {
  if (!in_progress_ || response.seq != seq_) return false;  // stale round
  // Watermark bookkeeping: a response to the current query proves the peer
  // merged its contents, i.e. our state through the epoch it echoes. Valid
  // even for responses rejected below as duplicates (DeltaState clamps
  // the ack and drops the watermark on need_full).
  delta_.on_ack(from, response.ack_epoch, response.need_full);
  if (response.need_full) {
    trace(obs::TraceKind::kNeedFullRx, from.value,
          0);
  }
  // A sender id outside Pi cannot count toward a quorum (only reachable via
  // forged datagrams on the live path; simulated senders are always < n).
  if (from.value >= config_.n) return false;
  if (responded_[from.value]) return false;  // duplicate
  responded_[from.value] = true;
  rec_from_.push_back(from);
  if (!terminated_ && rec_from_.size() >= config_.quorum()) {
    terminated_ = true;
    return true;
  }
  return false;
}

bool DetectorCore::finish_round() {
  assert(terminated_);
  // T1 lines 9-15: suspect every known process that did not respond and is
  // not already suspected.
  bool fresh = false;
  for (ProcessId pj : known()) {
    if (responded_[pj.value]) continue;
    if (is_suspected(pj)) continue;
    if (const auto mistake = mistake_tag(pj)) {
      // A stale mistake exists: the fresh suspicion must dominate it.
      counter_ = std::max(counter_, next_tag(*mistake));
    }
    add_suspicion(pj, counter_);
    fresh = true;
  }
  counter_ = next_tag(counter_);  // T1 line 16
  ++rounds_;
  in_progress_ = false;
  // Give-up bookkeeping: a peer's streak grows while it stays suspected and
  // silent. Any response resets it, even when the peer's defence reaches
  // us only after this step, so a skipped live peer leaves the skip set at
  // its first probe response whatever the timing.
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (i == config_.self.value) continue;
    streak_[i] =
        dense_kind_[i] == kSuspected && !responded_[i] ? streak_[i] + 1 : 0;
  }
  // Self-stabilization guard: periodically discard the per-sender seen
  // watermarks (see DetectorConfig::resync_interval). The next delta query
  // from each peer gets need_full, forcing one full refresh per sender —
  // which bounds the lifetime of any fabricated watermark.
  if (config_.delta_queries && config_.resync_interval > 0 &&
      rounds_ % config_.resync_interval == 0) {
    delta_.reset_seen();
    trace(obs::TraceKind::kResync,
          static_cast<std::uint32_t>(delta_.epoch()), 0);
  }
  trace(obs::TraceKind::kRoundClose,
        static_cast<std::uint32_t>(seq_),
        suspected_count_);
  return fresh;
}

ResponseMessage DetectorCore::on_query(ProcessId from,
                                       const QueryMessage& query) {
  // T2 line 20 adds the sender to `known`; the membership is known here,
  // so known() is Pi \ {self} whoever queries.

  // Epoch miss: a delta built on a base we never acknowledged (we lost
  // state, or the ack the sender saw was not ours). The entries themselves
  // are still safe to merge — tagged information is valid regardless of
  // transport — but we cannot claim the sender's state through query.epoch,
  // so we ask for a full resync instead of advancing seen_epoch_.
  const bool epoch_miss =
      delta_.epoch_miss(from, query.is_delta(), query.base_epoch);

  // Both loops skip ids outside Pi and tags at or above kTagLimit: only a
  // corrupted or forged datagram carries one, and merged it would be a
  // suspicion no process can defend, spread by every later full query.
  // First loop (T2 lines 21-31): merge the sender's suspicions.
  for (const TaggedEntry& e : query.suspected()) {
    if (e.id.value >= config_.n || e.tag >= kTagLimit) continue;
    const auto mine = local_tag(e.id);
    const bool newer = !mine.has_value() || *mine < e.tag;
    if (!newer) continue;
    if (e.id == config_.self) {
      // Self-defence (lines 23-25): I am alive; generate a mistake whose tag
      // strictly dominates the suspicion (ties it at the cap, see next_tag).
      // No correct execution puts self in the suspected set, but transient
      // state corruption can — add_mistake erases any such entry instead of
      // asserting it away.
      counter_ = std::max(counter_, next_tag(e.tag));
      add_mistake(config_.self, counter_);
    } else {
      add_suspicion(e.id, e.tag);  // replaces any mistake entry (line 28)
    }
  }

  // Second loop (T2 lines 32-37): merge the sender's mistakes. Note `<=`:
  // on a tag tie the mistake wins over the suspicion.
  for (const TaggedEntry& e : query.mistakes()) {
    if (e.id.value >= config_.n || e.tag >= kTagLimit) continue;
    const auto mine = local_tag(e.id);
    const bool newer_or_tied = !mine.has_value() || *mine <= e.tag;
    if (!newer_or_tied) continue;
    if (mine.has_value() && *mine == e.tag &&
        dense_kind_[e.id.value] == kMistake) {
      // Identical entry already present: re-adding changes no state, and
      // firing on_mistake for it floods the event log — at n = 1000 a
      // post-spike sweep logged ~200M of these no-op "events" (6+ GB).
      // Observers now see mistake *transitions*, matching on_suspected.
      continue;
    }
    add_mistake(e.id, e.tag);
  }

  if (!epoch_miss) delta_.note_seen(from, query.epoch);
  if (epoch_miss) {
    trace(obs::TraceKind::kNeedFullTx, from.value,
          0);
  }
  return ResponseMessage{query.seq, query.epoch, epoch_miss};  // T2 line 38
}

void DetectorCore::inject_transient_corruption(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const std::vector<std::uint8_t> old_kind = dense_kind_;

  // Round counter: rewound (so this node's future tags go stale against
  // state the peers already hold) or pushed ahead.
  counter_ = rng.next_below(counter_ + 16);

  // Replace both sets with arbitrary entries — including, possibly, the
  // self-suspicion no correct execution produces. Tags land around the
  // (already scrambled) counter.
  std::fill(dense_kind_.begin(), dense_kind_.end(), kAbsent);
  std::fill(dense_tag_.begin(), dense_tag_.end(), Tag{0});
  suspected_count_ = 0;
  mistake_count_ = 0;
  const Tag tag_ceiling = counter_ + 8;
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    const double u = rng.next_double();
    const std::uint8_t kind =
        u < 0.25 ? kSuspected : (u < 0.40 ? kMistake : kAbsent);
    if (kind == kAbsent) continue;
    ++(kind == kSuspected ? suspected_count_ : mistake_count_);
    dense_kind_[i] = kind;
    dense_tag_[i] = rng.next_below(tag_ceiling);
  }

  // Journal: restart the replay window at an arbitrary epoch (zero, below
  // the true epoch, or far above it), then journal every id whose
  // classification changed — including ids corrupted to *absent*, which
  // query_for() must tolerate finding in the window.
  const Epoch true_epoch = delta_.epoch();
  const std::uint64_t mode = rng.next_below(3);
  const Epoch new_base = mode == 0   ? 0
                         : mode == 1 ? rng.next_below(true_epoch + 1)
                                     : true_epoch + 1000000;
  delta_.corrupt_journal(new_base);
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (dense_kind_[i] != old_kind[i] || dense_kind_[i] != kAbsent) {
      delta_.record(ProcessId{i});
    }
  }

  // Watermarks. acked: either at-or-below the journal's new base (a
  // covered delta then replays the entire corrupted suffix) or absurdly
  // high (forcing the full fallback) — both routes deliver every corrupted
  // entry to its peer, which is what lets falsely-accused victims defend
  // and the sweep converge deterministically. seen: fully arbitrary,
  // including the dangerous too-high fabrication that silently suppresses
  // need_full — the resync_interval guard bounds its lifetime.
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (rng.bernoulli(0.5)) {
      delta_.corrupt_acked(ProcessId{i}, rng.bernoulli(0.25)
                                             ? new_base + 1000000000
                                             : rng.next_below(new_base + 1));
    }
    if (rng.bernoulli(0.5)) {
      delta_.corrupt_seen(ProcessId{i},
                          rng.next_below(true_epoch + 1000000));
    }
  }

  // Give-up streaks: arbitrary counts on both sides of the skip threshold,
  // so the next skip set can name live peers and more candidates than
  // begin_query()'s budget admits — the state its cap and longest-first
  // order exist for. An honest round resets each entry at the peer's next
  // response or unsuspected round.
  const std::uint64_t streak_span =
      4 * std::max<std::uint64_t>(config_.giveup_rounds, 1);
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (i != config_.self.value && rng.bernoulli(0.5)) {
      streak_[i] = static_cast<std::uint32_t>(rng.next_below(streak_span));
    }
  }

  // Transitions for the set diff, traced and observed in one order: event
  // logs and the recorder's suspicion history must track what the node now
  // (wrongly) believes — the stabilization checker feeds off them.
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    const ProcessId id{i};
    const Tag tag = dense_tag_[i];
    const bool was_suspected = old_kind[i] == kSuspected;
    const bool suspected = dense_kind_[i] == kSuspected;
    if (was_suspected && !suspected) {
      trace(obs::TraceKind::kSuspectDrop, i, static_cast<std::uint32_t>(tag));
      if (observer_ != nullptr) observer_->on_cleared(id, tag);
    } else if (!was_suspected && suspected) {
      trace(obs::TraceKind::kSuspectAdd, i, static_cast<std::uint32_t>(tag));
      if (observer_ != nullptr) observer_->on_suspected(id, tag);
    }
    if (observer_ != nullptr && old_kind[i] != kMistake &&
        dense_kind_[i] == kMistake) {
      observer_->on_mistake(id, tag);
    }
  }
}

std::vector<ProcessId> DetectorCore::suspected() const {
  std::vector<ProcessId> out;
  out.reserve(suspected_count_);
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (dense_kind_[i] == kSuspected) out.push_back(ProcessId{i});
  }
  return out;
}

bool DetectorCore::is_suspected(ProcessId id) const {
  return suspicion_tag(id).has_value();
}

void DetectorCore::add_suspicion(ProcessId id, Tag tag) {
  assert(id != config_.self && id.value < config_.n);
  std::uint8_t& kind = dense_kind_[id.value];
  const bool was_suspected = kind == kSuspected;
  if (kind == kMistake) --mistake_count_;
  if (!was_suspected) ++suspected_count_;
  kind = kSuspected;
  dense_tag_[id.value] = tag;
  delta_.record(id);
  if (!was_suspected) {
    trace(obs::TraceKind::kSuspectAdd, id.value,
          static_cast<std::uint32_t>(tag));
    if (observer_ != nullptr) observer_->on_suspected(id, tag);
  }
}

void DetectorCore::add_mistake(ProcessId id, Tag tag) {
  assert(id.value < config_.n);
  std::uint8_t& kind = dense_kind_[id.value];
  const bool was_suspected = kind == kSuspected;
  if (was_suspected) --suspected_count_;
  if (kind != kMistake) ++mistake_count_;
  kind = kMistake;
  dense_tag_[id.value] = tag;
  delta_.record(id);
  if (was_suspected) {
    trace(obs::TraceKind::kSuspectDrop, id.value,
          static_cast<std::uint32_t>(tag));
  }
  if (observer_ != nullptr) {
    if (was_suspected) observer_->on_cleared(id, tag);
    observer_->on_mistake(id, tag);
  }
}

void DetectorCore::trace(obs::TraceKind kind, std::uint32_t a,
                         std::uint32_t b) const {
  if (recorder_ != nullptr) recorder_->record(kind, a, b);
}

}  // namespace mmrfd::core
