// mmrfd-node argument validation: bad arguments exit 2 before the node
// binds a socket or installs a signal handler, so node_main runs in-process.
// So does the node side of the control socket: a node waiting for its
// release never starts its protocol thread.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <future>
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

TEST(NodeMain, RejectsAControlFdThatIsNotOpen) {
  int closed[2];
  ASSERT_EQ(::pipe(closed), 0);
  ::close(closed[0]);
  ::close(closed[1]);
  for (const std::string& fd :
       {std::string("--control-fd=-2"),
        "--control-fd=" + std::to_string(closed[0])}) {
    EXPECT_EQ(run({"--self", "0", "--n", "3", "--f", "1", "--run-s=1", fd}), 2)
        << fd;
  }
}

TEST(NodeMain, ExitsWhenItsControlSocketClosesBeforeRelease) {
  // Bound and ready, the node waits for a release that never comes; when
  // the Supervisor's end closes it stops, as on SIGTERM, with no --run-s.
  int ends[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, ends), 0);
  auto node = std::async(std::launch::async, [fd = ends[1]] {
    return run({"--self", "0", "--n", "3", "--f", "1", "--base-port=44400",
                "--control-fd=" + std::to_string(fd)});
  });
  // Declared after `node`, so a failed assertion closes the Supervisor's
  // end, and the node returns, before the future waits for it.
  struct CloseOnExit {
    int fd;
    ~CloseOnExit() {
      if (fd >= 0) ::close(fd);
    }
  } supervisor_end{ends[0]};
  pollfd ready{ends[0], POLLIN, 0};
  ASSERT_EQ(::poll(&ready, 1, 10'000), 1) << "the node never said ready";
  char byte = 0;
  EXPECT_EQ(::recv(ends[0], &byte, 1, 0), 1);
  ::close(ends[0]);
  supervisor_end.fd = -1;
  ASSERT_EQ(node.wait_for(std::chrono::seconds(2)), std::future_status::ready)
      << "the node outlived its control socket";
  EXPECT_EQ(node.get(), 0);
  ::close(ends[1]);

  // Closed before the node starts: it cannot say ready, so it never runs.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, ends), 0);
  ::close(ends[0]);
  EXPECT_EQ(run({"--self", "0", "--n", "3", "--f", "1", "--base-port=44400",
                 "--control-fd=" + std::to_string(ends[1])}),
            0);
  ::close(ends[1]);
}

}  // namespace
}  // namespace mmrfd::live
