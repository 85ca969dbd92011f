#include "live/node_runtime.h"

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sys/signalfd.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <cstdint>
#include <ctime>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/argparse.h"
#include "live/control.h"
#include "live/report.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "transport/faulty_transport.h"
#include "transport/realtime_detector.h"
#include "transport/udp_transport.h"

namespace mmrfd::live {

namespace {

// Best-effort flight-ring flush on abnormal termination: SIGSEGV/SIGABRT
// (and friends) write the ring to <report>.trace, as a stop does, before
// re-raising, so post-mortem traces survive crashes nobody scheduled.
// Strictly async-signal-safe — open/write/close only, path pre-formatted
// into a static buffer, and dump_binary_fd takes no locks (a torn record
// from a fault mid-record() is dropped by the loader).
const obs::FlightRecorder* g_crash_recorder = nullptr;
char g_trace_path[512] = {0};

void on_fatal_signal(int sig) {
  if (g_crash_recorder != nullptr && g_trace_path[0] != '\0') {
    const int fd = ::open(g_trace_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      g_crash_recorder->dump_binary_fd(fd);
      ::close(fd);
    }
  }
  std::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

int node_main(int argc, const char* const* argv) {
  std::uint32_t self = 0, n = 0, f = 0, pacing_ms = 100, resend_ms = 500,
                flush_ms = 200, run_s = 0, giveup = 8;
  std::uint16_t base_port = 39000;
  bool delta = true;
  std::string report_path;
  int control_fd = -1;
  std::size_t trace_cap = 4096;
  transport::FaultConfig fault_cfg;
  ArgParser args(
      "mmrfd-node: one live failure-detector process on loopback UDP "
      "(spawned in numbers by live::Supervisor / exp_live)");
  args.flag("self", self, "this process's id in [0, n)")
      .flag("n", n, "cluster size")
      .flag("f", f, "max crashes tolerated (quorum = n - f)")
      .flag("base-port", base_port, "UDP port of node 0 (node i binds +i)")
      .flag("pacing-ms", pacing_ms, "inter-query pacing Delta (ms)")
      .flag("resend-ms", resend_ms,
            "re-issue a quorum-short query to silent peers at this interval")
      .flag("delta", delta, "delta-encode queries")
      .flag("report", report_path,
            "binary NodeReport path (empty = no reports)")
      .flag("flush-ms", flush_ms, "report snapshot interval (ms)")
      .flag("control-fd", control_fd,
            "inherited control socket (live/control.h): say ready once "
            "bound, start at the release and take its origin, stop when it "
            "closes (-1 = none: start at once, origin = this process's "
            "start)")
      .flag("run-s", run_s, "exit after this many seconds (0 = until SIGTERM)")
      .flag("giveup", giveup,
            "crashed-peer give-up: probe peers suspected this many "
            "consecutive rounds at 1/K rate (0 = query everyone)")
      .flag("fault-drop", fault_cfg.drop_rate,
            "adversarial channel: outgoing drop rate")
      .flag("fault-corrupt", fault_cfg.corrupt_rate,
            "adversarial channel: byte-flip rate")
      .flag("fault-truncate", fault_cfg.truncate_rate,
            "adversarial channel: truncation rate")
      .flag("fault-seed", fault_cfg.seed, "adversarial channel RNG seed")
      .flag("trace-cap", trace_cap,
            "flight-recorder ring capacity (records; written to "
            "<report>.trace when the node stops)");
  // Every argument is checked here, before the node binds or installs
  // anything.
  if (const auto status = args.parse(argc, argv)) return *status;
  // No resend waves would let one lost datagram wedge a round; a zero
  // interval would fire them back to back, and a zero pause (hence a zero
  // grace) would issue rounds back to back. A zero flush interval would
  // write snapshots back to back.
  if (n < 2 || self >= n || f >= n || resend_ms < 1 || pacing_ms < 1 ||
      (!report_path.empty() && flush_ms < 1)) {
    std::cerr << "mmrfd-node: need n >= 2, self < n, f < n, resend-ms > 0, "
              << "pacing-ms >= 1, flush-ms >= 1 with --report (got n=" << n
              << " self=" << self << " f=" << f << " resend-ms=" << resend_ms
              << " pacing-ms=" << pacing_ms << " flush-ms=" << flush_ms
              << ")\n";
    return 2;
  }
  // Node i binds base-port + i, so the whole range must be a valid port
  // range; a crash dump of a ring above kMaxCapacity would not load.
  if (base_port < 1 || n > 65536u - base_port ||
      trace_cap > obs::FlightRecorder::kMaxCapacity) {
    std::cerr << "mmrfd-node: need 1 <= base-port, base-port + n - 1 <= "
              << "65535, trace-cap <= " << obs::FlightRecorder::kMaxCapacity
              << " (got base-port=" << base_port << " trace-cap=" << trace_cap
              << ")\n";
    return 2;
  }
  if (control_fd < -1 ||
      (control_fd >= 0 && ::fcntl(control_fd, F_GETFD) < 0)) {
    std::cerr << "mmrfd-node: --control-fd " << control_fd
              << " is not an open descriptor\n";
    return 2;
  }
  // Event stamps count from the run's origin: the release's, or this
  // process's start without a control socket.
  std::uint64_t origin_ns = obs::wall_clock_ns();

  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE}) {
    std::signal(sig, on_fatal_signal);
  }

  // One registry shared by every layer of this process's stack, embedded
  // in every NodeReport snapshot, and one flight recorder the detector
  // layers trace into, whose ring goes to <report>.trace once, at the stop
  // (or from the fatal-signal handler).
  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder(trace_cap);
  const std::string trace_path =
      report_path.empty() ? "" : report_path + ".trace";
  if (trace_path.size() < sizeof(g_trace_path)) {
    std::memcpy(g_trace_path, trace_path.c_str(), trace_path.size() + 1);
  }
  g_crash_recorder = &recorder;
  // Opened once per incarnation: its two slots start empty, so nothing a
  // reader finds at the path predates this process.
  std::optional<ReportWriter> writer;
  if (!report_path.empty()) writer.emplace(report_path);

  transport::UdpConfig ucfg;
  ucfg.self = ProcessId{self};
  ucfg.n = n;
  ucfg.base_port = base_port;
  ucfg.registry = &registry;
  transport::UdpTransport udp(ucfg);

  // Adversarial channel: inserted at the very bottom of the stack, so that
  // corrupted/truncated datagrams reach the codec like a real damaged
  // packet would.
  fault_cfg.registry = &registry;
  const bool faulty = fault_cfg.drop_rate > 0.0 ||
                      fault_cfg.corrupt_rate > 0.0 ||
                      fault_cfg.truncate_rate > 0.0;
  std::optional<transport::FaultyTransport> faulty_layer;
  transport::DatagramTransport* datagrams = &udp;
  if (faulty) {
    faulty_layer.emplace(udp, fault_cfg);
    datagrams = &*faulty_layer;
  }

  transport::RealTimeConfig rcfg;
  rcfg.detector.self = ProcessId{self};
  rcfg.detector.n = n;
  rcfg.detector.f = f;
  rcfg.detector.delta_queries = delta;
  rcfg.detector.giveup_rounds = giveup;
  rcfg.pacing = from_millis(pacing_ms);
  rcfg.resend = from_millis(resend_ms);
  rcfg.registry = &registry;
  rcfg.recorder = &recorder;
  transport::RealTimeDetector detector(*datagrams, rcfg);

  // The main thread takes SIGTERM and SIGINT from a signalfd in the loop
  // below. Blocked before the protocol thread starts, so it inherits the
  // mask and never takes them; the caller's mask comes back, and the
  // signalfd is closed, before returning.
  sigset_t waited;
  sigemptyset(&waited);
  for (const int sig : {SIGTERM, SIGINT}) sigaddset(&waited, sig);
  struct SignalScope {
    sigset_t caller_mask{};
    int fd{-1};
    ~SignalScope() {
      if (fd >= 0) ::close(fd);
      pthread_sigmask(SIG_SETMASK, &caller_mask, nullptr);
    }
  } signals;
  pthread_sigmask(SIG_BLOCK, &waited, &signals.caller_mask);
  signals.fd = ::signalfd(-1, &waited, SFD_NONBLOCK | SFD_CLOEXEC);
  if (signals.fd < 0) {
    std::cerr << "mmrfd-node " << self << ": signalfd: "
              << std::strerror(errno) << "\n";
    return 1;
  }
  const auto take_signal = [&](signalfd_siginfo& info) {
    return ::read(signals.fd, &info, sizeof info) ==
           static_cast<ssize_t>(sizeof info);
  };
  // Bound before anyone is told this node is up; a bind failure (a port in
  // use) exits here, which a Supervisor sees as its control socket closing.
  try {
    datagrams->start();
  } catch (const std::exception& e) {
    std::cerr << "mmrfd-node " << self << ": start failed: " << e.what()
              << "\n";
    return 1;
  }

  const auto write_snapshot = [&] {
    NodeReport r;
    r.self = self;
    r.n = n;
    r.f = f;
    r.delta = rcfg.detector.delta_queries;
    r.pacing_ns = static_cast<std::uint64_t>(rcfg.pacing.count());
    r.origin_ns = origin_ns;
    const std::uint64_t now = obs::wall_clock_ns();
    r.snapshot_ns = now > origin_ns ? now - origin_ns : 0;
    r.rounds = detector.rounds_completed();
    r.metrics = registry.snapshot();
    for (const ProcessId id : detector.suspected()) {
      r.suspected.push_back(id.value);
    }
    // The suspicion history is the recorder's never-wrapping section,
    // stamped on the same system clock as origin_ns.
    for (const obs::TraceRecord& t : recorder.suspicions()) {
      const std::uint8_t kind = t.kind == obs::TraceKind::kSuspectAdd ? 0 : 1;
      r.events.push_back(ReportEvent{
          t.t_ns > origin_ns ? t.t_ns - origin_ns : 0, t.a, kind, t.b});
    }
    if (!writer->write(r)) {
      std::cerr << "mmrfd-node " << self << ": cannot write report "
                << report_path << "\n";
    }
  };

  // Starts the protocol thread and the flush and run-length clocks: at once
  // without a control socket, else at the release.
  using Clock = std::chrono::steady_clock;
  constexpr auto kNever = Clock::time_point::max();
  const auto run_for = std::chrono::seconds(run_s);
  const auto flush_every = std::chrono::milliseconds(flush_ms);
  auto end = kNever;
  auto next_flush = kNever;
  bool running = false;
  const auto begin = [&] {
    try {
      detector.start();
    } catch (const std::exception& e) {
      std::cerr << "mmrfd-node " << self << ": start failed: " << e.what()
                << "\n";
      return false;
    }
    running = true;
    const auto now = Clock::now();
    if (run_for.count() > 0) end = now + run_for;
    if (!report_path.empty()) next_flush = now + flush_every;
    return true;
  };
  // Without a control socket the node starts at once; with one, it says
  // ready and waits for the release. A Supervisor already gone ends the run
  // before it starts.
  bool stop = false;
  int exit_code = 0;
  if (control_fd < 0) {
    if (!begin()) return 1;
  } else {
    stop = !control::send_ready(control_fd);
  }

  // Sleep until the next flush, the end of --run-s, a signal or a control
  // message; before the release, until a signal or the release.
  pollfd watched[2] = {{signals.fd, POLLIN, 0}, {control_fd, POLLIN, 0}};
  const nfds_t nwatched = control_fd >= 0 ? 2 : 1;
  while (!stop) {
    const auto now = Clock::now();
    if (now >= end) break;
    if (now >= next_flush) {
      write_snapshot();
      next_flush = now + flush_every;
      continue;
    }
    const auto wake = std::min(end, next_flush);
    timespec timeout{};
    if (wake != kNever) {
      const auto ns = std::chrono::nanoseconds(wake - now).count();
      timeout = {static_cast<time_t>(ns / 1'000'000'000),
                 static_cast<long>(ns % 1'000'000'000)};
    }
    if (::ppoll(watched, nwatched, wake == kNever ? nullptr : &timeout,
                nullptr) <= 0) {
      continue;
    }
    if (watched[0].revents != 0) {
      signalfd_siginfo info{};
      while (take_signal(info)) stop = true;
    }
    if (nwatched == 2 && watched[1].revents != 0) {
      const control::Message m = control::receive(control_fd);
      if (m.kind == control::Message::Kind::kClosed) {
        stop = true;  // the lifeline: the Supervisor is gone
      } else if (m.kind == control::Message::Kind::kRelease && !running) {
        origin_ns = m.origin_ns;
        if (!begin()) {
          exit_code = 1;
          stop = true;
        }
      }
    }
  }

  detector.stop();
  // A late SIGTERM is spent here rather than on the restored mask.
  signalfd_siginfo info{};
  while (take_signal(info)) {
  }
  if (running && !report_path.empty()) {
    write_snapshot();
    // The protocol thread is joined and the transports are passive, so
    // nothing records any more: the lock-free dump reads a quiescent ring.
    if (!recorder.dump_binary_to_file(trace_path)) {
      std::cerr << "mmrfd-node " << self << ": cannot write trace "
                << trace_path << "\n";
    }
  }
  return exit_code;
}

}  // namespace mmrfd::live
