#include "live/node_runtime.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/argparse.h"
#include "core/failure_detector.h"
#include "live/report.h"
#include "metrics/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "transport/faulty_transport.h"
#include "transport/realtime_detector.h"
#include "transport/reliable.h"
#include "transport/typed_transport.h"
#include "transport/udp_transport.h"

namespace mmrfd::live {

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump_trace = 0;

void on_signal(int) { g_stop = 1; }
void on_dump_signal(int) { g_dump_trace = 1; }

// Best-effort flight-ring flush on abnormal termination: SIGSEGV/SIGABRT
// (and friends) dump the ring in the binary format before re-raising, so
// post-mortem traces survive crashes nobody scheduled. Strictly
// async-signal-safe — open/write/close only, path pre-formatted into a
// static buffer, and dump_binary_fd takes no locks (a torn record from a
// fault mid-record() is dropped by the loader).
const obs::FlightRecorder* g_crash_recorder = nullptr;
char g_crash_trace_path[512] = {0};

void on_fatal_signal(int sig) {
  if (g_crash_recorder != nullptr && g_crash_trace_path[0] != '\0') {
    const int fd =
        ::open(g_crash_trace_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      g_crash_recorder->dump_binary_fd(fd);
      ::close(fd);
    }
  }
  std::signal(sig, SIG_DFL);
  ::raise(sig);
}

/// Collects suspicion transitions stamped with wall-clock ns since the run
/// origin. Callbacks arrive with the detector mutex held; this observer
/// only touches its own lock and never calls back into the detector.
class RecordingObserver final : public core::SuspicionObserver {
 public:
  explicit RecordingObserver(std::uint64_t origin_ns) : origin_ns_(origin_ns) {}

  void on_suspected(ProcessId subject, Tag tag) override {
    add(subject, metrics::SuspicionEventKind::kSuspected, tag);
  }
  void on_cleared(ProcessId subject, Tag tag) override {
    add(subject, metrics::SuspicionEventKind::kCleared, tag);
  }
  void on_mistake(ProcessId subject, Tag tag) override {
    add(subject, metrics::SuspicionEventKind::kMistake, tag);
  }

  [[nodiscard]] std::vector<ReportEvent> snapshot() const {
    std::lock_guard lock(mutex_);
    return events_;
  }

 private:
  void add(ProcessId subject, metrics::SuspicionEventKind kind, Tag tag) {
    const std::uint64_t now = wall_clock_ns();
    std::lock_guard lock(mutex_);
    events_.push_back(ReportEvent{now > origin_ns_ ? now - origin_ns_ : 0,
                                  subject.value,
                                  static_cast<std::uint8_t>(kind), tag});
  }

  std::uint64_t origin_ns_;
  mutable std::mutex mutex_;
  std::vector<ReportEvent> events_;
};

}  // namespace

int node_main(int argc, const char* const* argv) {
  ArgParser args(
      "mmrfd-node: one live failure-detector process on loopback UDP "
      "(spawned in numbers by live::Supervisor / exp_live)");
  args.flag("self", "0", "this process's id in [0, n)")
      .flag("n", "0", "cluster size")
      .flag("f", "0", "max crashes tolerated (quorum = n - f)")
      .flag("base-port", "39000", "UDP port of node 0 (node i binds +i)")
      .flag("pacing-ms", "100", "inter-query pacing Delta (ms)")
      .flag("resend-ms", "500",
            "re-issue a quorum-short query to silent peers at this interval")
      .flag("delta", "true", "delta-encode queries")
      .flag("reliable", "false", "stack ReliableDatagram under the codec")
      .flag("rcvbuf", "0", "socket buffer bytes (0 = auto-scale with n)")
      .flag("report", "", "binary NodeReport path (empty = no reports)")
      .flag("flush-ms", "200", "report snapshot interval (ms)")
      .flag("origin-ns", "0",
            "wall-clock origin (UNIX ns) event timestamps are relative to "
            "(0 = this process's start)")
      .flag("run-s", "0", "exit after this many seconds (0 = until SIGTERM)")
      .flag("giveup", "8",
            "crashed-peer give-up: probe peers suspected this many "
            "consecutive rounds at 1/K rate (0 = query everyone)")
      .flag("resync", "64",
            "self-stabilization resync interval in rounds (0 = off)")
      .flag("fault-drop", "0", "adversarial channel: outgoing drop rate")
      .flag("fault-dup", "0", "adversarial channel: duplicate rate")
      .flag("fault-reorder", "0", "adversarial channel: reorder rate")
      .flag("fault-corrupt", "0", "adversarial channel: byte-flip rate")
      .flag("fault-truncate", "0", "adversarial channel: truncation rate")
      .flag("fault-seed", "1", "adversarial channel RNG seed")
      .flag("trace-cap", "4096",
            "flight-recorder ring capacity (records; dump with SIGUSR1)");
  if (!args.parse(argc, argv)) return 2;

  const auto n = static_cast<std::uint32_t>(args.get_int("n"));
  const auto self = static_cast<std::uint32_t>(args.get_int("self"));
  const auto f = static_cast<std::uint32_t>(args.get_int("f"));
  // No resend waves would let one lost datagram wedge a round; a zero
  // interval would fire them back to back.
  const auto resend_ms = args.get_int("resend-ms");
  if (n < 2 || self >= n || f >= n || resend_ms <= 0) {
    std::cerr << "mmrfd-node: need n >= 2, self < n, f < n, resend-ms > 0 "
              << "(got n=" << n << " self=" << self << " f=" << f
              << " resend-ms=" << resend_ms << ")\n";
    return 2;
  }
  const std::string report_path = args.get("report");
  const std::uint64_t origin_ns =
      args.get_int("origin-ns") > 0
          ? static_cast<std::uint64_t>(args.get_int("origin-ns"))
          : wall_clock_ns();

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGUSR1, on_dump_signal);
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE}) {
    std::signal(sig, on_fatal_signal);
  }

  // One registry shared by every layer of this process's stack, and one
  // flight recorder the detector layers trace into. Both are dumped on
  // demand (SIGUSR1) and embedded in every NodeReport snapshot.
  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder(
      static_cast<std::size_t>(args.get_int("trace-cap")));
  if (!report_path.empty()) {
    const std::string crash_trace = report_path + ".crash.trace";
    if (crash_trace.size() < sizeof(g_crash_trace_path)) {
      std::memcpy(g_crash_trace_path, crash_trace.c_str(),
                  crash_trace.size() + 1);
    }
  }
  g_crash_recorder = &recorder;

  transport::UdpConfig ucfg;
  ucfg.self = ProcessId{self};
  ucfg.n = n;
  ucfg.base_port = static_cast<std::uint16_t>(args.get_int("base-port"));
  ucfg.socket_buffer_bytes =
      static_cast<std::uint32_t>(args.get_int("rcvbuf"));
  ucfg.registry = &registry;
  transport::UdpTransport udp(ucfg);

  // Adversarial channel: inserted at the very bottom of the stack, so that
  // corrupted/truncated datagrams traverse everything a real damaged packet
  // would — ReliableDatagram's frame parser (when stacked) and the codec.
  transport::FaultConfig fault_cfg;
  fault_cfg.drop_rate = args.get_double("fault-drop");
  fault_cfg.duplicate_rate = args.get_double("fault-dup");
  fault_cfg.reorder_rate = args.get_double("fault-reorder");
  fault_cfg.corrupt_rate = args.get_double("fault-corrupt");
  fault_cfg.truncate_rate = args.get_double("fault-truncate");
  fault_cfg.seed = static_cast<std::uint64_t>(args.get_int("fault-seed"));
  fault_cfg.registry = &registry;
  const bool faulty =
      fault_cfg.drop_rate > 0.0 || fault_cfg.duplicate_rate > 0.0 ||
      fault_cfg.reorder_rate > 0.0 || fault_cfg.corrupt_rate > 0.0 ||
      fault_cfg.truncate_rate > 0.0;
  std::optional<transport::FaultyTransport> faulty_layer;
  transport::DatagramTransport* datagrams = &udp;
  if (faulty) {
    faulty_layer.emplace(udp, fault_cfg);
    datagrams = &*faulty_layer;
  }

  const bool reliable = args.get_bool("reliable");
  std::optional<transport::ReliableDatagram> reliable_layer;
  if (reliable) {
    transport::ReliableConfig rel_cfg;
    rel_cfg.registry = &registry;
    rel_cfg.recorder = &recorder;
    reliable_layer.emplace(*datagrams, rel_cfg);
    datagrams = &*reliable_layer;
  }
  transport::TypedTransport typed(*datagrams, &registry);

  transport::RealTimeConfig rcfg;
  rcfg.detector.self = ProcessId{self};
  rcfg.detector.n = n;
  rcfg.detector.f = f;
  rcfg.detector.delta_queries = args.get_bool("delta");
  rcfg.detector.giveup_rounds =
      static_cast<std::uint32_t>(args.get_int("giveup"));
  rcfg.detector.resync_interval =
      static_cast<std::uint32_t>(args.get_int("resync"));
  rcfg.pacing = from_millis(static_cast<double>(args.get_int("pacing-ms")));
  rcfg.resend = from_millis(static_cast<double>(resend_ms));
  rcfg.registry = &registry;
  rcfg.recorder = &recorder;
  transport::RealTimeDetector detector(typed, rcfg);
  RecordingObserver observer(origin_ns);
  detector.set_observer(&observer);

  try {
    detector.start();
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
    r.reliable = reliable;
    r.pacing_ns = static_cast<std::uint64_t>(rcfg.pacing.count());
    r.origin_ns = origin_ns;
    const std::uint64_t now = wall_clock_ns();
    r.snapshot_ns = now > origin_ns ? now - origin_ns : 0;
    r.rounds = detector.rounds_completed();
    r.metrics = registry.snapshot();
    for (const ProcessId id : detector.suspected()) {
      r.suspected.push_back(id.value);
    }
    r.events = observer.snapshot();
    if (!write_report_file(r, report_path)) {
      std::cerr << "mmrfd-node " << self << ": cannot write report "
                << report_path << "\n";
    }
  };

  const auto started = std::chrono::steady_clock::now();
  const auto flush_every =
      std::chrono::milliseconds(args.get_int("flush-ms"));
  const auto run_for = std::chrono::seconds(args.get_int("run-s"));
  auto last_flush = started;
  // SIGUSR1 handling happens here, not in the handler: dump_to_file takes a
  // mutex and allocates, so the handler only flips an async-signal-safe flag
  // that the 20 ms poll loop (and the shutdown path) consumes.
  const std::string trace_path =
      report_path.empty() ? "" : report_path + ".trace";
  const auto maybe_dump_trace = [&] {
    if (g_dump_trace == 0) return;
    g_dump_trace = 0;
    if (trace_path.empty()) {
      recorder.dump_text(std::cerr);
    } else if (!recorder.dump_to_file(trace_path)) {
      std::cerr << "mmrfd-node " << self << ": cannot write trace "
                << trace_path << "\n";
    }
  };

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    maybe_dump_trace();
    const auto now = std::chrono::steady_clock::now();
    if (run_for.count() > 0 && now - started >= run_for) break;
    if (!report_path.empty() && now - last_flush >= flush_every) {
      write_snapshot();
      last_flush = now;
    }
  }

  detector.stop();
  maybe_dump_trace();  // a SIGUSR1 racing shutdown still gets its dump
  if (!report_path.empty()) write_snapshot();
  return 0;
}

}  // namespace mmrfd::live
