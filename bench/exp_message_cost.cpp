// E4 — Message cost vs system size.
//
// All-to-all query-response is a 2(n-1)-messages-per-round exchange versus
// (n-1) for plain heartbeat: the asynchrony is bought with one extra message
// phase. Gossip's counter vectors make its *bytes* quadratic-ish per tick
// even though its message count matches heartbeat. The table reports
// messages and bytes per process per second (failure-free run, equal 1 s
// cadence for every detector).
//
// Every message is sized by the codec's rules: no envelope, varint integers.
// Expected shape: msgs/proc/s — mmr ~ 2(n-1), heartbeat ~ (n-1), gossip
// ~ (n-1); bytes/msg — with empty suspicion sets an mmr query or response
// is 2 bytes (a flags byte and the round's seq) and a heartbeat 1 (its seq),
// so mmr sends about 4x heartbeat's bytes; a gossip message is n + 1 bytes
// (the vector's length and n one-byte counters), so gossip's bytes/proc/s
// grows with n^2.
#include <iostream>

#include "common/argparse.h"
#include "exp_common.h"
#include "metrics/table.h"

using namespace mmrfd;
using metrics::Table;

int main(int argc, char** argv) {
  std::vector<std::uint32_t> sizes = {10, 20, 40, 60, 100};
  std::uint32_t horizon_s = 30, period_ms = 1000;
  bool csv = false;
  ArgParser args("E4: message and byte cost vs n (failure-free)");
  args.flag("sizes", sizes, "comma-separated n values")
      .flag("horizon", horizon_s, "simulated seconds")
      .flag("period", period_ms, "cadence (ms) for every detector")
      .flag("csv", csv, "emit CSV");
  if (const auto status = args.parse(argc, argv)) return *status;
  for (const std::uint32_t n : sizes) {
    if (!bench::check_system("exp_message_cost", "--sizes", n, (n + 3) / 4)) {
      return 2;
    }
  }

  std::cout << "# E4: message cost per process per second vs n "
            << "(no failures, 1 s cadence)\n\n";

  Table table({"n", "detector", "msgs_total", "msgs_per_proc_s",
               "bytes_per_proc_s", "bytes_per_msg"});

  for (const std::uint32_t n : sizes) {
    for (const std::string detector : {"mmr", "heartbeat", "gossip"}) {
      bench::Workload w;
      w.n = n;
      w.f = (n + 3) / 4;
      w.seed = 1;
      w.crashes = 0;
      w.horizon = from_seconds(horizon_s);
      w.period = from_millis(period_ms);
      w.timeout = 2 * w.period;
      const auto m = bench::run_detector(detector, w);
      const double per_proc_s =
          static_cast<double>(m.messages_sent) / n / horizon_s;
      const double bytes_per_proc_s =
          static_cast<double>(m.bytes_sent) / n / horizon_s;
      table.add_row(
          {Table::num(std::uint64_t{n}), detector,
           Table::num(m.messages_sent), Table::num(per_proc_s, 1),
           Table::num(bytes_per_proc_s, 1),
           Table::num(m.messages_sent
                          ? static_cast<double>(m.bytes_sent) /
                                static_cast<double>(m.messages_sent)
                          : 0.0,
                      1)});
    }
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
