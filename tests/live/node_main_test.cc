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

}  // namespace
}  // namespace mmrfd::live
