// Chandra-Toueg <>S consensus (rotating coordinator, f < n/2).
//
// The reason failure detectors of class <>S matter: consensus is impossible
// in a pure asynchronous system with even one crash (FLP), but becomes
// solvable when each process is equipped with a <>S detector and a majority
// of processes is correct. This module implements the classic protocol so
// experiment E6 can measure, end-to-end, what the asynchronous detector buys
// a real agreement task compared with the timer-based baselines.
//
// Round r (1-based), coordinator c = (r - 1) mod n:
//   Phase 1  every process sends its current (estimate, ts) to c.
//   Phase 2  c collects a majority of estimates, adopts one with maximal ts
//            and broadcasts it as the round's proposal.
//   Phase 3  every process waits until it receives c's proposal (then adopts
//            it, ts := r, replies ACK) or its failure detector suspects c
//            (then replies NACK); either way it advances to round r + 1.
//   Phase 4  c collects a majority of replies; if they are all ACKs it
//            reliably broadcasts DECIDE(v). Any NACK sends c to round r + 1.
//   Decision on first receipt of DECIDE(v): re-broadcast it (the reliable-
//            broadcast echo), decide v, stop.
//
// Safety (validity + agreement) holds regardless of the detector's output;
// termination needs <>S-quality output — which is exactly what the MP
// property gives the asynchronous detector.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "common/types.h"
#include "core/failure_detector.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace mmrfd::consensus {

using Value = std::uint64_t;
using Round = std::uint64_t;

struct EstimateMessage {
  Round round{0};
  Value value{0};
  Round ts{0};  ///< round in which the estimate was last adopted; 0 = never
  friend bool operator==(const EstimateMessage&,
                         const EstimateMessage&) = default;
};

struct ProposalMessage {
  Round round{0};
  Value value{0};
  friend bool operator==(const ProposalMessage&,
                         const ProposalMessage&) = default;
};

struct AckMessage {
  Round round{0};
  bool ack{true};
  friend bool operator==(const AckMessage&, const AckMessage&) = default;
};

struct DecideMessage {
  Value value{0};
  friend bool operator==(const DecideMessage&, const DecideMessage&) = default;
};

using ConsensusMessage =
    std::variant<EstimateMessage, ProposalMessage, AckMessage, DecideMessage>;
using ConsensusNetwork = net::Network<ConsensusMessage>;

/// How a ConsensusProcess reaches its peers. Decoupled from the concrete
/// network so a test can drive an instance through a scripted transport.
class ConsensusTransport {
 public:
  virtual ~ConsensusTransport() = default;
  virtual void send(ProcessId to, ConsensusMessage msg) = 0;
  /// To every *other* process (self-delivery is the process's own concern).
  virtual void broadcast(const ConsensusMessage& msg) = 0;
};

/// Adapter binding a ConsensusProcess directly to a ConsensusNetwork
/// (single-instance deployments: the harness, the consensus tests).
class NetworkConsensusTransport final : public ConsensusTransport {
 public:
  NetworkConsensusTransport(ConsensusNetwork& network, ProcessId self)
      : net_(network), self_(self) {}

  /// Routes the network's deliveries for `self` into `process`.
  void attach(class ConsensusProcess& process);

  void send(ProcessId to, ConsensusMessage msg) override {
    net_.send(self_, to, std::move(msg));
  }
  void broadcast(const ConsensusMessage& msg) override {
    net_.broadcast(self_, msg);
  }

 private:
  ConsensusNetwork& net_;
  ProcessId self_;
};

struct ConsensusConfig {
  ProcessId self{0};
  std::uint32_t n{0};
  /// How often the phase-3 "do I suspect the coordinator?" condition is
  /// re-evaluated (the FD is a passive oracle; it must be polled).
  Duration fd_poll{from_millis(10)};
  /// Rotates the coordinator schedule: round r's coordinator is
  /// (coordinator_offset + r - 1) mod n, so instances run one after another
  /// can start from different coordinators instead of p0 leading (and its
  /// proposal being favoured in) round 1 of every one.
  std::uint32_t coordinator_offset{0};
};

class ConsensusProcess {
 public:
  ConsensusProcess(sim::Simulation& simulation, ConsensusTransport& transport,
                   const ConsensusConfig& config,
                   const core::FailureDetector& fd);

  ConsensusProcess(const ConsensusProcess&) = delete;
  ConsensusProcess& operator=(const ConsensusProcess&) = delete;
  /// Cancels the pending FD-poll event so the owner may destroy a decided
  /// instance while its simulation runs on.
  ~ConsensusProcess();

  /// Proposes `v` and starts executing. Call once. Messages received before
  /// propose() are buffered.
  void propose(Value v);

  /// Feeds an incoming message (the transport/owner routes deliveries here).
  void deliver(ProcessId from, const ConsensusMessage& msg);

  /// Crash-stop. The owner silences the underlying network separately.
  void crash();

  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] ProcessId id() const { return config_.self; }
  [[nodiscard]] bool decided() const { return decision_.has_value(); }
  [[nodiscard]] Value decision() const { return *decision_; }
  [[nodiscard]] std::optional<TimePoint> decided_at() const {
    return decided_at_;
  }
  [[nodiscard]] Round round() const { return round_; }

 private:
  enum class Phase { kIdle, kWaitProposal, kWaitAcks, kDone };

  [[nodiscard]] ProcessId coordinator(Round r) const {
    return ProcessId{static_cast<std::uint32_t>(
        (config_.coordinator_offset + r - 1) % config_.n)};
  }
  [[nodiscard]] std::uint32_t majority() const { return config_.n / 2 + 1; }

  void enter_round(Round r);
  void evaluate();  ///< re-checks the current phase's wait condition
  void poll();
  void send(ProcessId to, ConsensusMessage msg);
  void broadcast_all(const ConsensusMessage& msg);
  void decide(Value v);

  sim::Simulation& sim_;
  ConsensusTransport& transport_;
  ConsensusConfig config_;
  const core::FailureDetector& fd_;

  bool started_{false};
  bool crashed_{false};
  sim::EventId poll_event_{sim::kNoEvent};
  Phase phase_{Phase::kIdle};
  Round round_{0};
  Value estimate_{0};
  Round estimate_ts_{0};
  std::optional<Value> decision_;
  std::optional<TimePoint> decided_at_;

  // Buffered messages, keyed by round (messages may arrive ahead of the
  // receiver's round).
  std::map<Round, std::vector<EstimateMessage>> estimates_;
  std::map<Round, ProposalMessage> proposals_;
  std::map<Round, std::pair<std::uint32_t, std::uint32_t>> acks_;  // (ack, nack)
};

}  // namespace mmrfd::consensus
