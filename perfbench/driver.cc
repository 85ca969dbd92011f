// perfbench_driver — runs one benchmark workload and prints every metric it
// measured, by name and unit with its sample count or ratio basis, then one
// machine-readable result line:
//
//   PERFBENCH_RESULT {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
//
// perfbench/run.py builds this binary, runs it and reduces that line to the
// metrics BENCHMARK.json declares. Usage:
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --work-dir <dir> [--toy]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "bench.h"

namespace perfbench {

// --- Sheet -------------------------------------------------------------------

void Sheet::set(const std::string& name, double value, const std::string& unit,
                const std::string& basis) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = Metric{name, value, unit, basis};
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit, basis});
}

void Sheet::ratio(const std::string& name, double num, double den,
                  const std::string& unit) {
  std::ostringstream basis;
  basis.precision(12);
  basis << num << "/" << den;
  set(name, den != 0 ? num / den : 0.0, unit, basis.str());
}

void Sheet::percentile(const std::string& name,
                       const mmrfd::SampleSet& samples, double p,
                       double scale, const std::string& unit) {
  const double v = samples.empty() ? 0.0 : samples.percentile(p) * scale;
  set(name, v, unit, "n=" + std::to_string(samples.count()));
}

void Sheet::check(bool ok, const std::string& what) {
  (ok ? passes_ : failures_).push_back(what);
}

// --- Tracer ------------------------------------------------------------------

Tracer::Tracer(bool enabled, std::uint64_t run_id)
    : enabled_(enabled),
      run_id_(run_id),
      origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Scope Tracer::span(const char* name, std::uint64_t calls) {
  if (!enabled_) return Scope(nullptr, -1);
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.calls = calls;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(index);
  return Scope(this, index);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = tracer_->now_ns();
  if (!tracer_->open_.empty() && tracer_->open_.back() == index_) {
    tracer_->open_.pop_back();
  }
}

std::vector<Tracer::Total> Tracer::totals() const {
  // Children of one span never overlap (single thread, strict nesting), so
  // a span's self time is its duration minus the sum of its children's.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Total> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Total& t = by_name[s.name];
    t.name = s.name;
    ++t.spans;
    t.calls += s.calls;
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
  }
  std::vector<Total> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

double Tracer::ns_per_call(const std::string& name) const {
  for (const Total& t : totals()) {
    if (t.name == name && t.calls > 0) {
      return t.total_ns / static_cast<double>(t.calls);
    }
  }
  return 0.0;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
       << ",\"run\":" << run_id_ << ",\"calls\":" << s.calls << "}\n";
  }
  return static_cast<bool>(os);
}

// --- probes ------------------------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

namespace {

double rusage_cpu_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

}  // namespace

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double children_cpu_s() { return rusage_cpu_s(RUSAGE_CHILDREN); }

double peak_rss_mb(int pid) {
  const std::string path = pid == 0 ? std::string("/proc/self/status")
                                    : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::vector<int> child_pids(const std::string& comm) {
  std::vector<int> out;
  const int self = static_cast<int>(::getpid());
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string pid_str = entry.path().filename().string();
    if (pid_str.empty() ||
        pid_str.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    std::ifstream in(entry.path() / "stat");
    std::string stat;
    if (!std::getline(in, stat)) continue;
    // "pid (comm) state ppid ..." — comm may hold spaces, so split on the
    // last ')'.
    const auto open = stat.find('(');
    const auto close = stat.rfind(')');
    if (open == std::string::npos || close == std::string::npos) continue;
    if (stat.substr(open + 1, close - open - 1) != comm) continue;
    std::istringstream rest(stat.substr(close + 1));
    std::string state;
    int ppid = 0;
    rest >> state >> ppid;
    if (ppid == self) out.push_back(std::atoi(pid_str.c_str()));
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

void print_sheet(const Sheet& sheet, const Tracer& tracer) {
  std::cout << "# metrics\n";
  for (const Metric& m : sheet.metrics()) {
    char value[64];
    std::snprintf(value, sizeof value, "%.6g", m.value);
    std::cout << "  " << m.name << " = " << value << " " << m.unit;
    if (!m.basis.empty()) std::cout << "  (" << m.basis << ")";
    std::cout << "\n";
  }
  std::cout << "  operations: " << sheet.attempted
            << " (crash, correct observer) pairs, " << sheet.failed
            << " missed\n";
  std::cout << "# checks\n";
  for (const std::string& c : sheet.passes()) std::cout << "  ok   " << c << "\n";
  for (const std::string& c : sheet.failures()) {
    std::cout << "  FAIL " << c << "\n";
  }
  if (tracer.enabled()) {
    std::cout << "# spans (per name: spans, API calls, total ms, self ms)\n";
    for (const Tracer::Total& t : tracer.totals()) {
      char line[256];
      std::snprintf(line, sizeof line, "  %-34s %8llu %10llu %12.3f %12.3f\n",
                    t.name.c_str(), static_cast<unsigned long long>(t.spans),
                    static_cast<unsigned long long>(t.calls), t.total_ns / 1e6,
                    t.self_ns / 1e6);
      std::cout << line;
    }
  }
}

void print_result_line(const Sheet& sheet) {
  std::ostringstream os;
  os.precision(17);
  os << "PERFBENCH_RESULT {\"correct\":"
     << (sheet.failures().empty() ? "true" : "false")
     << ",\"attempted\":" << sheet.attempted << ",\"failed\":" << sheet.failed
     << ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : sheet.metrics()) {
    if (!std::isfinite(m.value)) continue;
    os << (first ? "" : ",") << "\"" << m.name << "\":{\"value\":" << m.value
       << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

bool parse_args(int argc, char** argv, RunOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--toy") {
      opt.toy = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      errno = 0;
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (errno != 0 || *end != '\0' || val.empty()) return false;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return false;
      opt.trace = val == "1";
    } else if (arg == "--work-dir") {
      opt.work_dir = val;
    } else {
      return false;
    }
  }
  return !opt.workload.empty() && opt.seconds > 0 && !opt.work_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  if (!parse_args(argc, argv, opt)) {
    std::cerr << "usage: perfbench_driver --workload <sim-churn-n1000|"
                 "live-crash-n16|live-lossy-n16> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir> [--toy]\n";
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) {
    std::cerr << "perfbench: cannot create " << opt.work_dir << "\n";
    return 2;
  }

  Sheet sheet;
  Tracer tracer(opt.trace, opt.seed);
  try {
    if (opt.workload == "sim-churn-n1000") {
      run_sim_churn(opt, sheet, tracer);
    } else if (opt.workload == "live-crash-n16") {
      run_live(opt, 0.0, sheet, tracer);
    } else if (opt.workload == "live-lossy-n16") {
      run_live(opt, 0.01, sheet, tracer);
    } else {
      std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run failed: " << e.what() << "\n";
    return 1;
  }

  if (tracer.enabled()) {
    const std::string spans = opt.work_dir + "/spans.jsonl";
    if (!tracer.write(spans)) {
      std::cerr << "perfbench: cannot write " << spans << "\n";
      return 1;
    }
    std::cout << "wrote " << spans << "\n";
  }
  print_sheet(sheet, tracer);
  print_result_line(sheet);
  return 0;
}
