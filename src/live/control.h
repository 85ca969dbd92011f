// The control socket between a live::Supervisor and one mmrfd-node: an
// AF_UNIX SOCK_SEQPACKET socketpair per node incarnation, whose node end the
// node inherits across exec (--control-fd). It carries two messages, and its
// closing is a third signal:
//
//   ready    node -> Supervisor, one byte, once the node's UDP socket is
//            bound, so a query sent to it from then on is not lost.
//   release  Supervisor -> node, the run's origin (UNIX ns, host byte order:
//            both ends share a host). The Supervisor sends it to every node
//            at once when all n are ready, and to a restarted node as soon
//            as it is spawned. The node starts its protocol thread and its
//            report clock on it and stamps its reports from that origin.
//   EOF      the Supervisor is gone (it closed its end or died): the node
//            stops as on SIGTERM. This is the node's lifeline.
//
// Both sides send with MSG_NOSIGNAL, so a send to a peer that died fails
// with EPIPE instead of raising SIGPIPE.
#pragma once

#include <cstdint>

namespace mmrfd::live::control {

/// Sends "ready"; false if the Supervisor is gone.
bool send_ready(int fd);

/// Sends the release carrying `origin_ns`; false if the node is gone.
bool send_release(int fd, std::uint64_t origin_ns);

struct Message {
  enum class Kind { kNone, kReady, kRelease, kClosed };
  Kind kind{Kind::kNone};
  std::uint64_t origin_ns{0};  ///< kRelease only
};

/// Reads one message without blocking: kNone when none is queued (or it is
/// not one of the two), kClosed at EOF or on a socket error.
Message receive(int fd);

}  // namespace mmrfd::live::control
