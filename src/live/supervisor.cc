#include "live/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/log.h"
#include "live/control.h"
#include "metrics/analysis.h"
#include "metrics/event_log.h"
#include "obs/flight_recorder.h"
#include "sim/simulation.h"

namespace mmrfd::live {

namespace {

/// How long the start barrier waits for every node to say it is ready.
constexpr auto kReadyTimeout = std::chrono::seconds(30);

/// Counters-only JSON object for one telemetry line: {"name":value,...}.
/// Metric names are code-side constants ([a-z0-9._] by convention), so no
/// escaping beyond the basics is needed; anything exotic is dropped rather
/// than emitted malformed.
void append_counters_json(std::ostream& os, const obs::RegistrySnapshot& m) {
  os << '{';
  bool first = true;
  for (const obs::CounterSnapshot& c : m.counters) {
    if (c.name.find('"') != std::string::npos ||
        c.name.find('\\') != std::string::npos) {
      continue;
    }
    if (!first) os << ',';
    first = false;
    os << '"' << c.name << "\":" << c.value;
  }
  os << '}';
}

std::uint64_t micros(const timeval& t) {
  return static_cast<std::uint64_t>(t.tv_sec) * 1'000'000 +
         static_cast<std::uint64_t>(t.tv_usec);
}

/// wait4 on one child; a reaped child's resource use is summed into
/// `result`. Returns what wait4 returns.
pid_t reap_child(pid_t pid, int options, int& status, LiveRunResult& result) {
  rusage usage{};
  const pid_t got = ::wait4(pid, &status, options, &usage);
  if (got == pid) {
    result.node_user_cpu_us += micros(usage.ru_utime);
    result.node_sys_cpu_us += micros(usage.ru_stime);
    result.node_voluntary_switches +=
        static_cast<std::uint64_t>(usage.ru_nvcsw);
    result.node_involuntary_switches +=
        static_cast<std::uint64_t>(usage.ru_nivcsw);
  }
  return got;
}

/// Keeps a running node's peak resident set (VmHWM, KiB) in `result` if it
/// is the largest so far. Read before the node is stopped, not from wait4:
/// ru_maxrss also counts this process's pages, which the child held
/// between fork and exec.
void note_peak_rss(pid_t pid, LiveRunResult& result) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      result.node_max_rss_kb = std::max<std::uint64_t>(
          result.node_max_rss_kb, std::strtoull(line.c_str() + 6, nullptr, 10));
      return;
    }
  }
}

}  // namespace

std::string default_node_binary() {
  if (const char* env = std::getenv("MMRFD_NODE_BIN");
      env != nullptr && *env != '\0') {
    return env;
  }
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) {
    const auto dir = exe.parent_path();
    for (const char* rel :
         {"mmrfd-node", "../src/live/mmrfd-node", "../../src/live/mmrfd-node"}) {
      const auto candidate = dir / rel;
      if (std::filesystem::exists(candidate, ec)) {
        const auto canonical = std::filesystem::weakly_canonical(candidate, ec);
        return ec ? candidate.string() : canonical.string();
      }
    }
  }
  return "mmrfd-node";  // last resort: PATH
}

Supervisor::Supervisor(SupervisorConfig config) : config_(std::move(config)) {
  if (config_.n < 2 || config_.f >= config_.n) {
    throw std::invalid_argument("Supervisor: need n >= 2 and f < n");
  }
  if (config_.report_dir.empty()) {
    throw std::invalid_argument("Supervisor: report_dir is required");
  }
  node_binary_ = config_.node_binary.empty() ? default_node_binary()
                                             : config_.node_binary;
}

std::string Supervisor::report_path(ProcessId id, int incarnation) const {
  return config_.report_dir + "/node" + std::to_string(id.value) + ".g" +
         std::to_string(incarnation) + ".bin";
}

void Supervisor::spawn(Proc& p) {
  const std::string report = report_path(p.id, p.spawns);
  std::error_code ec;
  // Never harvest a stale run's snapshot: until this incarnation's writer
  // truncates both slots, or if it never gets that far, they hold an
  // earlier run's.
  std::filesystem::remove(report, ec);
  std::filesystem::remove(report_slot_path(report), ec);
  // Same for the flight-ring dump: a leftover node<i>.g<g>.bin.trace from a
  // previous run in the same report_dir would otherwise be stitched into this
  // run's timeline as if it were fresh.
  std::filesystem::remove(report + ".trace", ec);

  std::vector<std::string> argstrs = {
      node_binary_,
      "--self=" + std::to_string(p.id.value),
      "--n=" + std::to_string(config_.n),
      "--f=" + std::to_string(config_.f),
      "--base-port=" + std::to_string(config_.base_port),
      "--pacing-ms=" +
          std::to_string(config_.pacing.count() / 1'000'000),
      "--delta=" + std::string(config_.delta ? "true" : "false"),
      "--report=" + report,
      "--flush-ms=" + std::to_string(config_.flush.count() / 1'000'000),
      "--resend-ms=" + std::to_string(config_.resend.count() / 1'000'000),
      "--giveup=" + std::to_string(config_.giveup_rounds),
  };
  if (config_.trace) {
    argstrs.push_back("--trace-cap=" + std::to_string(config_.trace_capacity));
  }
  if (config_.fault_drop > 0.0 || config_.fault_corrupt > 0.0 ||
      config_.fault_truncate > 0.0) {
    argstrs.push_back("--fault-drop=" + std::to_string(config_.fault_drop));
    argstrs.push_back("--fault-corrupt=" +
                      std::to_string(config_.fault_corrupt));
    argstrs.push_back("--fault-truncate=" +
                      std::to_string(config_.fault_truncate));
    // Distinct per node (and per incarnation) so the cluster's fault
    // schedules are decorrelated yet reproducible.
    argstrs.push_back(
        "--fault-seed=" +
        std::to_string(config_.fault_seed + 1315423911ull * p.id.value +
                       static_cast<std::uint64_t>(p.spawns)));
  }
  // The control socket (live/control.h). Both ends are close-on-exec, so no
  // other child inherits one, a sibling node or one that another Supervisor
  // in this process forks: a leaked Supervisor end would hold the node's
  // lifeline open after the Supervisor died. The child clears the flag on
  // its own end only, between fork and exec.
  int ends[2];
  if (::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, ends) != 0) {
    throw std::runtime_error("Supervisor: socketpair failed");
  }
  argstrs.push_back("--control-fd=" + std::to_string(ends[1]));
  std::vector<char*> argv;
  argv.reserve(argstrs.size() + 1);
  for (std::string& s : argstrs) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(ends[0]);
    ::close(ends[1]);
    throw std::runtime_error("Supervisor: fork failed");
  }
  if (pid == 0) {
    ::fcntl(ends[1], F_SETFD, 0);
    ::execv(node_binary_.c_str(), argv.data());
    _exit(127);  // exec failure: reported to the parent as an exit status
  }
  ::close(ends[1]);
  if (p.control >= 0) ::close(p.control);
  p.control = ends[0];
  p.pid = pid;
  p.alive = true;
  ++p.spawns;
  p.report_paths.push_back(report);
}

LiveRunResult Supervisor::run(const std::vector<CrashEvent>& schedule,
                              Duration horizon) {
  std::error_code ec;
  std::filesystem::create_directories(config_.report_dir, ec);
  if (ec) {
    throw std::runtime_error("Supervisor: cannot create report dir " +
                             config_.report_dir);
  }
  for (const CrashEvent& e : schedule) {
    if (e.victim.value >= config_.n) {
      throw std::invalid_argument("Supervisor: crash victim out of range");
    }
  }

  LiveRunResult result;
  result.horizon = horizon;

  std::vector<Proc> procs(config_.n);
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    procs[i].id = ProcessId{i};
  }
  // The Supervisor's control ends close on every way out of run(), after
  // the nodes are reaped; a node still running then takes it as SIGTERM.
  struct CloseControls {
    std::vector<Proc>& procs;
    ~CloseControls() {
      for (Proc& p : procs) {
        if (p.control >= 0) ::close(p.control);
      }
    }
  } close_controls{procs};
  const auto kill_everything = [&] {
    for (Proc& p : procs) {
      if (p.alive && p.pid > 0) ::kill(p.pid, SIGKILL);
    }
    for (Proc& p : procs) {
      if (p.alive && p.pid > 0) {
        int status = 0;
        reap_child(p.pid, 0, status, result);
        p.alive = false;
      }
    }
  };
  try {
    for (Proc& p : procs) spawn(p);
    await_ready(procs);
  } catch (...) {
    kill_everything();
    throw;
  }
  // The release: every node is bound, so none loses a first query. The
  // origin is stamped here, and the kill plan, the kill stamps, the node
  // reports and the horizon all count from it. A node that died meanwhile
  // fails its send (no SIGPIPE) and is reaped as an unexpected exit.
  origin_ns_ = obs::wall_clock_ns();
  const auto started = std::chrono::steady_clock::now();
  for (const Proc& p : procs) control::send_release(p.control, origin_ns_);

  struct PendingCrash {
    CrashEvent event;
    bool killed{false};
    bool restarted{false};
    std::size_t crash_index{0};
  };
  std::vector<PendingCrash> pending;
  pending.reserve(schedule.size());
  for (const CrashEvent& e : schedule) pending.push_back({e, false, false, 0});

  // An exit is "unexpected" only while the run is live and the node was
  // neither SIGKILLed by the schedule nor SIGTERMed by the shutdown path.
  // Reaps strictly per-pid: a wait4(-1) here would steal exit statuses
  // from any OTHER children the embedding process happens to have.
  const auto reap = [&] {
    for (Proc& p : procs) {
      if (!p.alive || p.pid <= 0) continue;
      int status = 0;
      if (reap_child(p.pid, WNOHANG, status, result) != p.pid) continue;
      p.alive = false;
      if (!p.planned_kill && !p.graceful) {
        ++result.unexpected_exits;
        MMRFD_LOG_WARN("live") << "node " << p.id
                               << " exited unexpectedly (status " << status
                               << ")";
      }
    }
  };

  // Cluster time series: one JSONL line per readable node report every
  // config_.telemetry. Reading the report slots is pure observation: a read
  // that overlaps a node's pwrite fails that slot's checksum and takes the
  // other slot's complete snapshot.
  const bool telemetry_on = config_.telemetry > Duration::zero();
  const std::string telemetry_path = config_.report_dir + "/telemetry.jsonl";
  if (telemetry_on) {
    std::ofstream trunc(telemetry_path, std::ios::trunc);  // fresh run
  }
  Duration last_telemetry = kTimeZero;
  const auto sample_telemetry = [&](Duration now) {
    std::ofstream os(telemetry_path, std::ios::app);
    if (!os) return;
    for (const Proc& p : procs) {
      if (p.report_paths.empty()) continue;
      const auto r = read_report_file(p.report_paths.back());
      if (!r) continue;
      os << "{\"t_ms\":" << (now.count() / 1'000'000)
         << ",\"node\":" << p.id.value << ",\"gen\":" << (p.spawns - 1)
         << ",\"final\":false,\"c\":";
      append_counters_json(os, r->metrics);
      os << "}\n";
    }
  };

  const auto elapsed = [&] {
    return std::chrono::duration_cast<Duration>(
        std::chrono::steady_clock::now() - started);
  };
  // The scheduling loop can throw (a restart re-spawn hitting fork
  // exhaustion); never leak a running cluster of children past run().
  try {
  while (elapsed() < horizon) {
    reap();
    const Duration now = elapsed();
    if (telemetry_on && now - last_telemetry >= config_.telemetry) {
      sample_telemetry(now);
      last_telemetry = now;
    }
    for (PendingCrash& pc : pending) {
      if (!pc.killed && pc.event.at <= now) {
        Proc& victim = procs[pc.event.victim.value];
        victim.planned_kill = true;
        if (victim.alive && victim.pid > 0) {
          note_peak_rss(victim.pid, result);
          ::kill(victim.pid, SIGKILL);
        }
        pc.killed = true;
        // Stamp the kill in the same wall-clock frame the nodes stamp their
        // events in, so Analysis subtracts like from like.
        pc.crash_index = result.crashes.size();
        result.crashes.push_back(
            {pc.event.victim, Duration{static_cast<std::int64_t>(
                                  obs::wall_clock_ns() - origin_ns_)},
             false});
      }
      if (pc.killed && !pc.restarted && pc.event.restart_at &&
          *pc.event.restart_at <= now) {
        Proc& victim = procs[pc.event.victim.value];
        if (!victim.alive) {
          spawn(victim);
          // Its peers are running: no barrier, only the run's origin.
          control::send_release(victim.control, origin_ns_);
          // The new incarnation is a regular cluster member again: if IT
          // dies (exec failure, bind failure), that must count as an
          // unexpected exit, not hide behind the earlier planned kill.
          victim.planned_kill = false;
          pc.restarted = true;
          result.crashes[pc.crash_index].restarted = true;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  } catch (...) {
    kill_everything();
    throw;
  }

  // Graceful shutdown: SIGTERM makes each node stop its protocol thread,
  // flush its final report and write its flight ring to <report>.trace.
  reap();
  for (Proc& p : procs) {
    if (p.alive && p.pid > 0) {
      p.graceful = true;
      note_peak_rss(p.pid, result);
      ::kill(p.pid, SIGTERM);
    }
  }
  const auto term_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < term_deadline) {
    reap();
    if (std::none_of(procs.begin(), procs.end(),
                     [](const Proc& p) { return p.alive; })) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (Proc& p : procs) {
    if (p.alive && p.pid > 0) {
      MMRFD_LOG_WARN("live") << "node " << p.id
                             << " ignored SIGTERM; killing";
      p.graceful = false;
      ::kill(p.pid, SIGKILL);
      int status = 0;
      reap_child(p.pid, 0, status, result);
      p.alive = false;
    }
  }

  aggregate(procs, horizon, result);
  if (config_.trace) assemble_traces(procs, result);
  return result;
}

void Supervisor::await_ready(const std::vector<Proc>& procs) const {
  std::vector<pollfd> waiting;
  waiting.reserve(procs.size());
  for (const Proc& p : procs) waiting.push_back({p.control, POLLIN, 0});
  std::size_t left = waiting.size();
  const auto deadline = std::chrono::steady_clock::now() + kReadyTimeout;
  while (left > 0) {
    const auto wait_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (wait_ms.count() <= 0) {
      throw std::runtime_error("Supervisor: " + std::to_string(left) +
                               " node(s) not ready after 30 s");
    }
    if (::poll(waiting.data(), waiting.size(),
               static_cast<int>(wait_ms.count())) <= 0) {
      continue;
    }
    for (std::size_t i = 0; i < waiting.size(); ++i) {
      if (waiting[i].fd < 0 || waiting[i].revents == 0) continue;
      const control::Message m = control::receive(waiting[i].fd);
      if (m.kind == control::Message::Kind::kReady) {
        waiting[i].fd = -1;  // poll skips it from now on
        --left;
      } else if (m.kind == control::Message::Kind::kClosed) {
        // Exited before it bound (a port in use, an exec failure): the run
        // cannot start, and its peers would wait for it forever.
        throw std::runtime_error("Supervisor: node " +
                                 std::to_string(procs[i].id.value) +
                                 " exited before it was ready");
      }
    }
  }
}

void Supervisor::assemble_traces(const std::vector<Proc>& procs,
                                 LiveRunResult& result) const {
  namespace fs = std::filesystem;
  obs::TraceManifest manifest;
  manifest.origin_ns = origin_ns_;
  manifest.horizon_ns = result.horizon.count();
  for (const LiveCrash& c : result.crashes) {
    manifest.crashes.push_back({c.victim.value, c.at.count()});
  }
  std::error_code ec;
  for (const Proc& p : procs) {
    for (std::size_t g = 0; g < p.report_paths.size(); ++g) {
      // Written at the stop or by a fatal signal; a SIGKILLed incarnation
      // leaves none.
      const std::string file = p.report_paths[g] + ".trace";
      if (!fs::exists(file, ec)) continue;
      manifest.traces.push_back({p.id.value, static_cast<std::uint32_t>(g),
                                 fs::path(file).filename().string()});
    }
  }
  const std::string manifest_path =
      config_.report_dir + "/" + std::string(obs::kTraceManifestName);
  if (!obs::write_manifest(manifest_path, manifest)) {
    MMRFD_LOG_WARN("live") << "cannot write " << manifest_path;
    return;
  }
  // Assemble by re-reading the manifest and dump files, not the in-memory
  // state: the supervisor exercises exactly the offline path mmrfd-trace
  // walks, so the two can never drift apart.
  result.trace = obs::assemble_from_dir(config_.report_dir);
  if (result.trace) {
    std::ofstream os(config_.report_dir + "/trace_assembled.json",
                     std::ios::trunc);
    if (os) os << obs::to_json(*result.trace) << '\n';
  } else {
    MMRFD_LOG_WARN("live") << "trace assembly failed for "
                           << config_.report_dir;
  }
}

void Supervisor::aggregate(std::vector<Proc>& procs, Duration horizon,
                           LiveRunResult& result) const {
  // Harvest: one NodeReport per incarnation file. A SIGKILLed incarnation
  // contributes its last periodic snapshot — or nothing, legitimately, if
  // it died before its first flush. Only an incarnation that survived to
  // the SIGTERM shutdown (graceful) is *required* to have a report: its
  // absence is a real aggregation failure and is counted.
  for (Proc& p : procs) {
    LiveNodeOutcome outcome;
    outcome.id = p.id;
    outcome.spawns = p.spawns;
    outcome.planned_kill = p.planned_kill;
    for (std::size_t g = 0; g < p.report_paths.size(); ++g) {
      if (auto r = read_report_file(p.report_paths[g])) {
        outcome.reports.push_back(std::move(*r));
      } else if (p.graceful && g + 1 == p.report_paths.size()) {
        ++outcome.missing_reports;
        MMRFD_LOG_WARN("live")
            << "missing/unreadable report " << p.report_paths[g];
      }
    }
    result.missing_reports += outcome.missing_reports;
    result.nodes.push_back(std::move(outcome));
  }

  // Merge every report's transition history into one time-ordered stream
  // and reuse the simulator's analysis verbatim: faulty processes (the kill
  // victims) are excluded as observers by Analysis itself.
  sim::Simulation clock_source;  // never advanced; EventLog only needs a ref
  metrics::EventLog log(clock_source);
  std::vector<metrics::SuspicionEvent> events;
  for (const LiveNodeOutcome& node : result.nodes) {
    for (const NodeReport& r : node.reports) {
      for (const ReportEvent& ev : r.events) {
        if (ev.kind > 2 || ev.subject >= config_.n) continue;
        events.push_back(metrics::SuspicionEvent{
            Duration{static_cast<std::int64_t>(ev.when_ns)}, node.id,
            ProcessId{ev.subject},
            static_cast<metrics::SuspicionEventKind>(ev.kind), ev.tag});
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const metrics::SuspicionEvent& a,
                      const metrics::SuspicionEvent& b) {
                     return a.when < b.when;
                   });
  for (const metrics::SuspicionEvent& ev : events) log.append(ev);
  for (const LiveCrash& c : result.crashes) {
    log.record_crash_at(c.victim, c.at);
  }

  const metrics::Analysis analysis(log, config_.n, horizon);
  for (const metrics::Detection& d : analysis.detections()) {
    if (const auto latency = d.latency()) {
      result.detection_latencies.add(to_seconds(*latency));
    }
  }
  result.strong_completeness = analysis.strong_completeness();
  result.false_suspicions = analysis.false_suspicions().size();

  std::size_t harvested = 0;
  for (const LiveNodeOutcome& node : result.nodes) {
    for (const NodeReport& r : node.reports) {
      result.metrics.merge(r.metrics);
      ++harvested;
    }
  }
  result.rounds = result.metrics.counter_value("rt.rounds");
  result.malformed = result.metrics.counter_value("codec.malformed");
  result.datagrams_sent = result.metrics.counter_value("udp.datagrams_sent");
  result.wire_bytes_sent = result.metrics.counter_value("udp.bytes_sent");

  // Close the telemetry series: one "final" line per harvested report, then
  // a rollup line. The rollup's counters are result.metrics — the merge of
  // exactly the snapshots the final lines carry — so summing the final
  // lines' counters reproduces the rollup bit-for-bit.
  if (config_.telemetry > Duration::zero()) {
    std::ofstream os(config_.report_dir + "/telemetry.jsonl", std::ios::app);
    if (os) {
      for (const LiveNodeOutcome& node : result.nodes) {
        for (std::size_t g = 0; g < node.reports.size(); ++g) {
          const NodeReport& r = node.reports[g];
          os << "{\"t_ms\":" << (r.snapshot_ns / 1'000'000)
             << ",\"node\":" << node.id.value << ",\"gen\":" << g
             << ",\"final\":true,\"c\":";
          append_counters_json(os, r.metrics);
          os << "}\n";
        }
      }
      os << "{\"rollup\":true,\"nodes\":" << config_.n
         << ",\"reports\":" << harvested << ",\"c\":";
      append_counters_json(os, result.metrics);
      os << "}\n";
    }
  }
}

}  // namespace mmrfd::live
