#include "common/argparse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mmrfd {
namespace {

/// One of each kind of flag, bound to its own variable.
struct Fixture {
  std::uint32_t n = 10;
  double rate = 1.5;
  bool verbose = false;
  std::string name = "abc";
  std::vector<std::uint32_t> sizes = {10, 20};
  std::int64_t offset = -1;
  std::uint64_t seed = 1;
  ArgParser parser{"test"};

  Fixture() {
    parser.flag("n", n, "system size")
        .flag("rate", rate, "a rate")
        .flag("verbose", verbose, "chatty")
        .flag("name", name, "a string")
        .flag("sizes", sizes, "a comma list")
        .flag("offset", offset, "a signed number")
        .flag("seed", seed, "a 64-bit seed");
  }

  std::optional<int> parse(std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return parser.parse(static_cast<int>(args.size()), args.data());
  }
};

TEST(ArgParser, DefaultsStayWithoutFlags) {
  Fixture p;
  EXPECT_EQ(p.parse({}), std::nullopt);
  EXPECT_EQ(p.n, 10u);
  EXPECT_DOUBLE_EQ(p.rate, 1.5);
  EXPECT_FALSE(p.verbose);
  EXPECT_EQ(p.name, "abc");
  EXPECT_EQ(p.sizes, (std::vector<std::uint32_t>{10, 20}));
  EXPECT_EQ(p.offset, -1);
}

TEST(ArgParser, EqualsForm) {
  Fixture p;
  EXPECT_EQ(p.parse({"--n=25", "--rate=0.25", "--sizes=5,6,7"}),
            std::nullopt);
  EXPECT_EQ(p.n, 25u);
  EXPECT_DOUBLE_EQ(p.rate, 0.25);
  EXPECT_EQ(p.sizes, (std::vector<std::uint32_t>{5, 6, 7}));
}

TEST(ArgParser, SpaceForm) {
  Fixture p;
  EXPECT_EQ(p.parse({"--n", "7", "--name", "xyz", "--offset", "-5"}),
            std::nullopt);
  EXPECT_EQ(p.n, 7u);
  EXPECT_EQ(p.name, "xyz");
  EXPECT_EQ(p.offset, -5);
}

TEST(ArgParser, BareBooleanFlag) {
  Fixture p;
  EXPECT_EQ(p.parse({"--verbose", "--n=3"}), std::nullopt);
  EXPECT_TRUE(p.verbose);
  EXPECT_EQ(p.n, 3u);
}

TEST(ArgParser, BooleansTakeOnlyTheirWords) {
  for (const char* yes : {"true", "1", "yes", "on"}) {
    Fixture p;
    EXPECT_EQ(p.parse({"--verbose", yes}), std::nullopt) << yes;
    EXPECT_TRUE(p.verbose) << yes;
  }
  for (const char* no : {"false", "0", "no", "off"}) {
    Fixture p;
    p.verbose = true;
    EXPECT_EQ(p.parse({"--verbose", no}), std::nullopt) << no;
    EXPECT_FALSE(p.verbose) << no;
  }
  // An unknown word used to read as false.
  for (const char* bad : {"--verbose=flase", "--verbose=True", "--verbose="}) {
    Fixture p;
    EXPECT_EQ(p.parse({bad}), 2) << bad;
  }
}

TEST(ArgParser, UnknownFlagRejected) {
  Fixture p;
  EXPECT_EQ(p.parse({"--bogus=1"}), 2);
}

TEST(ArgParser, PositionalRejected) {
  Fixture p;
  EXPECT_EQ(p.parse({"stray"}), 2);
}

TEST(ArgParser, ValueMissingRejected) {
  // Only a boolean may stand bare.
  for (const char* bare : {"--n", "--name", "--sizes"}) {
    Fixture p;
    EXPECT_EQ(p.parse({bare}), 2) << bare;
  }
}

TEST(ArgParser, HelpReturnsZero) {
  // --help prints the usage and ends the run; an error also ends it, with 2.
  Fixture p;
  EXPECT_EQ(p.parse({"--help"}), 0);
  Fixture q;
  EXPECT_EQ(q.parse({"--n=3", "-h"}), 0);
}

TEST(ArgParser, NumbersMustParseWhole) {
  // "12abc" is not 12: each value converts whole or the parse fails.
  for (const char* bad : {"--n=12abc", "--rate=1.5x", "--n=", "--n=x",
                          "--n= 5", "--n=5 ", "--n=+5", "--n=0x10",
                          "--rate=", "--offset=1.0"}) {
    Fixture p;
    EXPECT_EQ(p.parse({bad}), 2) << bad;
  }
}

TEST(ArgParser, IntegersAreRangeCheckedAgainstTheirOwnType) {
  // 2^32 + 2 is not 2 in a uint32, and an unsigned type takes no sign.
  for (const char* bad : {"--n=4294967296", "--n=4294967298", "--n=-1",
                          "--seed=-1", "--seed=18446744073709551616",
                          "--offset=9223372036854775808"}) {
    Fixture p;
    EXPECT_EQ(p.parse({bad}), 2) << bad;
  }
  Fixture p;
  EXPECT_EQ(p.parse({"--n=4294967295", "--seed=18446744073709551615",
                     "--offset=-9223372036854775808"}),
            std::nullopt);
  EXPECT_EQ(p.n, 4294967295u);
  EXPECT_EQ(p.seed, 18446744073709551615ull);
  EXPECT_EQ(p.offset, INT64_MIN);
}

TEST(ArgParser, ListsCheckEveryEntry) {
  for (const char* bad : {"--sizes=10,,20", "--sizes=10,", "--sizes=,10",
                          "--sizes=10,-5", "--sizes=10,x",
                          "--sizes=10,4294967296"}) {
    Fixture p;
    EXPECT_EQ(p.parse({bad}), 2) << bad;
  }
  Fixture p;
  EXPECT_EQ(p.parse({"--sizes="}), std::nullopt);
  EXPECT_TRUE(p.sizes.empty());
}

TEST(ArgParser, AnErrorIsOneLineNamingTheFlag) {
  Fixture p;
  testing::internal::CaptureStderr();
  EXPECT_EQ(p.parse({"--n=4294967298"}), 2);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--n"), std::string::npos) << err;
  EXPECT_NE(err.find("4294967298"), std::string::npos) << err;
  EXPECT_EQ(err.find('\n'), err.size() - 1) << err;
}

TEST(ArgParser, UsageListsFlagsWithTheirDefaults) {
  Fixture p;
  const auto u = p.parser.usage();
  EXPECT_NE(u.find("--n (default: 10)"), std::string::npos) << u;
  EXPECT_NE(u.find("system size"), std::string::npos) << u;
  EXPECT_NE(u.find("--rate (default: 1.5)"), std::string::npos) << u;
  EXPECT_NE(u.find("--verbose (default: false)"), std::string::npos) << u;
  EXPECT_NE(u.find("--name (default: abc)"), std::string::npos) << u;
  EXPECT_NE(u.find("--sizes (default: 10,20)"), std::string::npos) << u;
  EXPECT_NE(u.find("--offset (default: -1)"), std::string::npos) << u;
}

}  // namespace
}  // namespace mmrfd
