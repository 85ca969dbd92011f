#include "transport/udp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <system_error>

#include "common/log.h"
#include "transport/codec.h"

namespace mmrfd::transport {

namespace {

sockaddr_in peer_address(std::uint16_t base_port, ProcessId id) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(base_port + id.value));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

/// peer_address inverted: the peer that sends from `from`. A port outside
/// [base_port, base_port + n) maps to an id >= n (unsigned, a port below
/// base_port wraps far above any n), and a source that is not loopback
/// IPv4 to kNoProcess.
ProcessId sender_of(const sockaddr_in& from, socklen_t from_len,
                    std::uint16_t base_port) {
  if (from_len < sizeof from || from.sin_family != AF_INET ||
      from.sin_addr.s_addr != htonl(INADDR_LOOPBACK)) {
    return kNoProcess;
  }
  const std::uint32_t port = ntohs(from.sin_port);
  return ProcessId{port - base_port};
}

#if defined(__linux__)
constexpr std::size_t kRecvBatch = 16;
#else
constexpr std::size_t kRecvBatch = 1;
#endif

/// One receive slot must hold the largest protocol datagram, which the
/// codec bounds.
std::size_t slot_size(std::uint32_t n) {
  return std::clamp<std::size_t>(max_query_wire_size(n), std::size_t{2048},
                                 std::size_t{64 * 1024});
}

}  // namespace

UdpTransport::UdpTransport(const UdpConfig& config) : config_(config) {
  assert(config_.n > 0 && config_.self.value < config_.n);
  if (config.registry == nullptr) {
    own_registry_ = std::make_unique<obs::MetricsRegistry>();
  }
  obs::MetricsRegistry& reg =
      config.registry != nullptr ? *config.registry : *own_registry_;
  datagrams_received_ = &reg.counter("udp.datagrams_received");
  bytes_received_ = &reg.counter("udp.bytes_received");
  truncated_ = &reg.counter("udp.truncated");
  recv_errors_ = &reg.counter("udp.recv_errors");
  datagrams_sent_ = &reg.counter("udp.datagrams_sent");
  bytes_sent_ = &reg.counter("udp.bytes_sent");
  rcvbuf_gauge_ = &reg.gauge("udp.rcvbuf_bytes");
}

UdpTransport::~UdpTransport() { stop(); }

void UdpTransport::start() {
  assert(handler_ && "set_handler before start");
  if (fd_ >= 0) return;
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "socket");
  }
  // Size the socket buffers BEFORE traffic can arrive, to cover a whole
  // cluster's fan-in landing while the protocol thread is busy or
  // descheduled: n peers can each have a full query plus a response in
  // flight to us within one pacing period, with slack for retransmissions.
  // The kernel clamps to net.core.{r,w}mem_max silently; the rcvbuf gauge
  // records what was actually granted. The clamp keeps the request an int.
  const std::size_t slot = slot_size(config_.n);
  const int request = static_cast<int>(std::clamp<std::size_t>(
      4 * static_cast<std::size_t>(config_.n) * slot, std::size_t{256 * 1024},
      std::size_t{8 * 1024 * 1024}));
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &request, sizeof request);
  (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &request, sizeof request);
  int granted = 0;
  socklen_t granted_len = sizeof granted;
  if (::getsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &granted, &granted_len) == 0) {
    rcvbuf_gauge_->set(granted);
  }
  const sockaddr_in addr = peer_address(config_.base_port, config_.self);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::system_error(err, std::generic_category(), "bind");
  }
  recv_buffers_.assign(slot * kRecvBatch, 0);
}

void UdpTransport::stop() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
}

void UdpTransport::poll(Duration max_wait) {
  if (fd_ < 0) return;
  const auto ns = std::max(max_wait, Duration::zero()).count();
  const timespec timeout{static_cast<time_t>(ns / 1'000'000'000),
                         static_cast<long>(ns % 1'000'000'000)};
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
  if (ready < 0) {
    if (errno != EINTR) recv_errors_->add(1);
    return;
  }
  if (ready == 0) return;
  // Drain everything this wakeup saw: a full batch means more may be
  // queued.
  while (drain_ready() == kRecvBatch) {
  }
}

void UdpTransport::send(ProcessId to,
                        std::span<const std::uint8_t> datagram) {
  if (fd_ < 0) return;
  const sockaddr_in addr = peer_address(config_.base_port, to);
  ssize_t sent = 0;
  do {
    sent = ::sendto(fd_, datagram.data(), datagram.size(), 0,
                    reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (sent < 0 && errno == EINTR);
  if (sent >= 0) {
    datagrams_sent_->add(1);
    bytes_sent_->add(static_cast<std::uint64_t>(sent));
  }
  if (sent < 0 && errno != ECONNREFUSED) {
    // ECONNREFUSED is a late ICMP echo of a previous send to a dead peer —
    // routine while the cluster suspects a crashed process, not worth noise.
    MMRFD_LOG_WARN("udp") << "sendto " << to << " failed: "
                          << std::strerror(errno);
  }
}

std::size_t UdpTransport::drain_ready() {
  const std::size_t slot = recv_buffers_.size() / kRecvBatch;
#if defined(__linux__)
  mmsghdr msgs[kRecvBatch]{};
  iovec iov[kRecvBatch];
  sockaddr_in from[kRecvBatch]{};
  for (std::size_t i = 0; i < kRecvBatch; ++i) {
    iov[i] = {recv_buffers_.data() + i * slot, slot};
    msgs[i].msg_hdr.msg_iov = &iov[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_name = &from[i];
    msgs[i].msg_hdr.msg_namelen = sizeof from[i];
  }
  const int got = ::recvmmsg(fd_, msgs, kRecvBatch, MSG_DONTWAIT, nullptr);
  if (got < 0) {
    if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
      recv_errors_->add(1);
    }
    return 0;
  }
  for (int i = 0; i < got; ++i) {
    const std::size_t len = msgs[i].msg_len;
    datagrams_received_->add(1);
    bytes_received_->add(len);
    if ((msgs[i].msg_hdr.msg_flags & MSG_TRUNC) != 0) {
      truncated_->add(1);
      continue;  // partial datagram: dropped, but counted
    }
    handler_(sender_of(from[i], msgs[i].msg_hdr.msg_namelen,
                       config_.base_port),
             std::span<const std::uint8_t>(recv_buffers_.data() + i * slot,
                                           len));
  }
  return static_cast<std::size_t>(got);
#else
  sockaddr_in from{};
  socklen_t from_len = sizeof from;
  const auto got =
      ::recvfrom(fd_, recv_buffers_.data(), slot, MSG_DONTWAIT,
                 reinterpret_cast<sockaddr*>(&from), &from_len);
  if (got < 0) {
    if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
      recv_errors_->add(1);
    }
    return 0;
  }
  datagrams_received_->add(1);
  bytes_received_->add(static_cast<std::uint64_t>(got));
  handler_(sender_of(from, from_len, config_.base_port),
           std::span<const std::uint8_t>(recv_buffers_.data(),
                                         static_cast<std::size_t>(got)));
  return 1;
#endif
}

}  // namespace mmrfd::transport
