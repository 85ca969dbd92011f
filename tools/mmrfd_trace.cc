// mmrfd-trace — offline cross-node trace assembly.
//
// Operates on a report directory left behind by a traced supervisor run
// (live::SupervisorConfig::trace): one binary `<report>.trace` flight-ring
// dump per node incarnation, written as it stopped, plus
// trace_manifest.txt, whose origin aligns every ring and whose horizon
// ends the assembled run. Subcommands:
//
//   assemble  <dir>   assembly summary: record, matched-link and
//                     causal-violation counts (--json: the full assembled
//                     document, same shape the supervisor writes to
//                     trace_assembled.json)
//   breakdown <dir>   per-crash detection tables: every observer's latency
//                     split into round-pacing / resend-wait / wire, with
//                     the pacing's post-quorum grace on its own
//   timeline  <dir>   the merged, origin-aligned, chronological event stream
//
// --out=FILE writes to a file instead of stdout.
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "common/argparse.h"
#include "obs/trace_assembler.h"

namespace {

using mmrfd::obs::AssembledTrace;

void write_summary(std::ostream& out, const AssembledTrace& trace) {
  out << "records:          " << trace.records << "\n"
      << "matched pairs:    " << trace.matched_pairs << "\n"
      << "causal violations:" << (trace.causal_violations == 0 ? " " : " !")
      << trace.causal_violations << "\n"
      << "crashes:          " << trace.crashes.size() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string out_path;
  mmrfd::ArgParser args(
      "usage: mmrfd-trace <assemble|breakdown|timeline> <report_dir> "
      "[flags]");
  args.flag("json", json, "emit the full assembled document as JSON")
      .flag("out", out_path, "write output to this file instead of stdout");
  // The subcommand and the directory come first; the flags follow them.
  const bool positional = argc >= 3 && argv[1][0] != '-' && argv[2][0] != '-';
  std::vector<const char*> flags = {argv[0]};
  flags.insert(flags.end(), argv + (positional ? 3 : 1), argv + argc);
  if (const auto status =
          args.parse(static_cast<int>(flags.size()), flags.data())) {
    return *status;
  }
  const std::string command = positional ? argv[1] : "";
  const std::string dir = positional ? argv[2] : "";
  if (command != "assemble" && command != "breakdown" &&
      command != "timeline") {
    std::cerr << args.usage();
    return 2;
  }

  const auto trace =
      mmrfd::obs::assemble_from_dir(dir, command == "timeline");
  if (!trace) {
    std::cerr << "mmrfd-trace: cannot assemble " << dir << " (missing "
              << mmrfd::obs::kTraceManifestName << "?)\n";
    return 1;
  }

  std::ofstream file;
  std::ostream* out = &std::cout;
  if (!out_path.empty()) {
    file.open(out_path, std::ios::trunc);
    if (!file) {
      std::cerr << "mmrfd-trace: cannot write " << out_path << "\n";
      return 1;
    }
    out = &file;
  }

  if (json) {
    *out << mmrfd::obs::to_json(*trace) << "\n";
  } else if (command == "assemble") {
    write_summary(*out, *trace);
  } else if (command == "breakdown") {
    mmrfd::obs::write_text(*out, *trace);
  } else {
    mmrfd::obs::write_timeline(*out, *trace);
  }
  return 0;
}
