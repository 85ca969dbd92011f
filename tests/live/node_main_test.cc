// mmrfd-node argument validation: bad arguments exit 2 before the node
// binds a socket or installs a signal handler, so node_main runs in-process.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "live/node_runtime.h"

namespace mmrfd::live {
namespace {

int run(std::vector<std::string> args) {
  args.insert(args.begin(), "mmrfd-node");
  std::vector<const char*> argv;
  for (const std::string& a : args) argv.push_back(a.c_str());
  return node_main(static_cast<int>(argv.size()), argv.data());
}

TEST(NodeMain, RejectsNonPositiveResend) {
  // Zero would fire resend waves back to back; the supervisor passes whole
  // milliseconds, so any sub-millisecond SupervisorConfig::resend lands here.
  for (const char* resend : {"--resend-ms=0", "--resend-ms=-5"}) {
    EXPECT_EQ(run({"--self", "0", "--n", "3", "--f", "1", resend}), 2)
        << resend;
  }
}

TEST(NodeMain, RejectsBadMembership) {
  EXPECT_EQ(run({"--self", "3", "--n", "3", "--f", "1"}), 2);
  EXPECT_EQ(run({"--self", "0", "--n", "3", "--f", "3"}), 2);
}

// Each case below also passes --run-s=1, so a node that wrongly accepts
// its arguments returns after a second instead of running until SIGTERM.

TEST(NodeMain, RejectsTraceCapacityOutsideTheLoadableRange) {
  // A negative capacity used to throw std::length_error out of node_main;
  // one above FlightRecorder::kMaxCapacity writes crash dumps no loader
  // accepts.
  for (const char* cap : {"--trace-cap=-1", "--trace-cap=67108865"}) {
    EXPECT_EQ(run({"--self", "0", "--n", "3", "--f", "1", "--run-s=1", cap}),
              2)
        << cap;
  }
}

TEST(NodeMain, RejectsNonPositivePacing) {
  // A zero pause makes a zero grace, so rounds would issue back to back.
  for (const char* pacing : {"--pacing-ms=0", "--pacing-ms=-5"}) {
    EXPECT_EQ(
        run({"--self", "0", "--n", "3", "--f", "1", "--run-s=1", pacing}), 2)
        << pacing;
  }
}

TEST(NodeMain, RejectsNonPositiveFlushWithAReport) {
  // With a report, a zero interval would write snapshots back to back.
  for (const char* flush : {"--flush-ms=0", "--flush-ms=-5"}) {
    EXPECT_EQ(run({"--self", "0", "--n", "3", "--f", "1", "--run-s=1",
                   "--report=node_main_test_unused.bin", flush}),
              2)
        << flush;
  }
}

TEST(NodeMain, RejectsBasePortsOutsideThePortRange) {
  // Node i binds base-port + i, which must not wrap past 65535.
  for (const char* port : {"--base-port=0", "--base-port=-1",
                           "--base-port=65534", "--base-port=70000"}) {
    EXPECT_EQ(run({"--self", "0", "--n", "3", "--f", "1", "--run-s=1", port}),
              2)
        << port;
  }
}

}  // namespace
}  // namespace mmrfd::live
