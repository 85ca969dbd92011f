#include "live/control.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

namespace mmrfd::live::control {

namespace {

constexpr char kReadyByte = 'R';

}  // namespace

bool send_ready(int fd) {
  return ::send(fd, &kReadyByte, 1, MSG_NOSIGNAL) == 1;
}

bool send_release(int fd, std::uint64_t origin_ns) {
  return ::send(fd, &origin_ns, sizeof origin_ns, MSG_NOSIGNAL) ==
         static_cast<ssize_t>(sizeof origin_ns);
}

Message receive(int fd) {
  char buf[16];
  const ssize_t got = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
  Message m;
  if (got == 0 ||
      (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
    m.kind = Message::Kind::kClosed;
  } else if (got == 1 && buf[0] == kReadyByte) {
    m.kind = Message::Kind::kReady;
  } else if (got == static_cast<ssize_t>(sizeof m.origin_ns)) {
    m.kind = Message::Kind::kRelease;
    std::memcpy(&m.origin_ns, buf, sizeof m.origin_ns);
  }
  return m;
}

}  // namespace mmrfd::live::control
