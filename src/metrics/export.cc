#include "metrics/export.h"

#include <ostream>

namespace mmrfd::metrics {

namespace {
const char* kind_name(SuspicionEventKind kind) {
  switch (kind) {
    case SuspicionEventKind::kSuspected:
      return "suspected";
    case SuspicionEventKind::kCleared:
      return "cleared";
    case SuspicionEventKind::kMistake:
      return "mistake";
  }
  return "?";
}
}  // namespace

void export_events_csv(const EventLog& log, std::ostream& os) {
  os << "when_s,observer,subject,kind,tag\n";
  for (const auto& e : log.events()) {
    os << to_seconds(e.when) << ',' << e.observer.value << ','
       << e.subject.value << ',' << kind_name(e.kind) << ',' << e.tag << '\n';
  }
}

void export_crashes_csv(const EventLog& log, std::ostream& os) {
  os << "subject,when_s\n";
  for (const auto& c : log.crashes()) {
    os << c.subject.value << ',' << to_seconds(c.when) << '\n';
  }
}

void export_queries_csv(const core::PropertyRecorder& recorder,
                        std::ostream& os) {
  os << "issuer,seq,terminated_s,winning\n";
  for (const auto& r : recorder.records()) {
    os << r.issuer.value << ',' << r.seq << ',' << to_seconds(r.terminated_at)
       << ',';
    const char* sep = "";
    for (const ProcessId p : r.winners()) {
      os << sep << p.value;
      sep = ";";
    }
    os << '\n';
  }
}

void export_jsonl(const EventLog& log, const core::PropertyRecorder* recorder,
                  std::ostream& os) {
  for (const auto& c : log.crashes()) {
    os << R"({"type":"crash","subject":)" << c.subject.value << R"(,"when_s":)"
       << to_seconds(c.when) << "}\n";
  }
  for (const auto& e : log.events()) {
    os << R"({"type":"suspicion","kind":")" << kind_name(e.kind)
       << R"(","when_s":)" << to_seconds(e.when) << R"(,"observer":)"
       << e.observer.value << R"(,"subject":)" << e.subject.value
       << R"(,"tag":)" << e.tag << "}\n";
  }
  if (recorder != nullptr) {
    for (const auto& r : recorder->records()) {
      os << R"({"type":"query","issuer":)" << r.issuer.value << R"(,"seq":)"
         << r.seq << R"(,"terminated_s":)" << to_seconds(r.terminated_at)
         << R"(,"winning":[)";
      const char* sep = "";
      for (const ProcessId p : r.winners()) {
        os << sep << p.value;
        sep = ",";
      }
      os << "]}\n";
    }
  }
}

}  // namespace mmrfd::metrics
