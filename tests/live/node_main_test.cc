// mmrfd-node argument validation: bad arguments exit 2 before the node
// binds a socket or installs a signal handler, so node_main runs in-process.
// So does the node side of the control socket: a node waiting for its
// release never starts its protocol thread. One case reads the built
// binary itself: outside sanitizer builds it must be static.
#include <elf.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "live/node_runtime.h"
#include "live/supervisor.h"

namespace mmrfd::live {
namespace {

// ASan and TSan need the dynamic loader, so their builds link the node
// dynamically (src/live/CMakeLists.txt).
constexpr bool kSanitizerBuild =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

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

TEST(NodeMain, RejectsNumbersThatDoNotParseOrFit) {
  // Each value must parse whole and fit the type the node keeps it in:
  // "10x" is not 10, and n = 2^32 + 2 is not 2.
  for (const char* bad :
       {"--n=x", "--pacing-ms=10x", "--base-port=99999999999999999999",
        "--fault-drop=0.5%", "--fault-seed=-1", "--n=4294967298",
        "--giveup=-1", "--control-fd=4294967297"}) {
    EXPECT_EQ(run({"--self", "0", "--n", "3", "--f", "1", "--run-s=1", bad}),
              2)
        << bad;
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

TEST(NodeMain, TakesAFaultSeedAnywhereInTheUint64Range) {
  // A Supervisor derives each node's seed as a uint64, so a seed past
  // int64 must reach the fault layer. The control socket is closed before
  // the node starts: it binds, cannot say ready, and returns 0.
  int ends[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, ends), 0);
  ::close(ends[0]);
  EXPECT_EQ(run({"--self", "0", "--n", "3", "--f", "1", "--base-port=44400",
                 "--fault-drop=0.01", "--fault-seed=18446744073709551615",
                 "--control-fd=" + std::to_string(ends[1])}),
            0);
  ::close(ends[1]);
}

TEST(NodeMain, NodeBinaryIsStaticOutsideSanitizerBuilds) {
  // A Supervisor execs one node per incarnation; linked dynamically, each
  // exec paid the loader's relocation of libstdc++, libm and libc. A static
  // executable has no PT_INTERP program header.
  if (kSanitizerBuild) GTEST_SKIP() << "sanitizer builds keep a dynamic node";
  const std::string path = default_node_binary();
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "cannot open " << path;
  Elf64_Ehdr eh{};
  ASSERT_TRUE(in.read(reinterpret_cast<char*>(&eh), sizeof eh)) << path;
  ASSERT_EQ(std::memcmp(eh.e_ident, ELFMAG, SELFMAG), 0) << path;
  ASSERT_EQ(eh.e_ident[EI_CLASS], ELFCLASS64) << path;
  ASSERT_GT(eh.e_phnum, 0) << path;
  for (unsigned i = 0; i < eh.e_phnum; ++i) {
    Elf64_Phdr ph{};
    in.seekg(static_cast<std::streamoff>(eh.e_phoff + i * eh.e_phentsize));
    ASSERT_TRUE(in.read(reinterpret_cast<char*>(&ph), sizeof ph)) << path;
    EXPECT_NE(ph.p_type, static_cast<Elf64_Word>(PT_INTERP))
        << path << " names a dynamic loader";
  }
}

}  // namespace
}  // namespace mmrfd::live
