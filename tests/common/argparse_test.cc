#include "common/argparse.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace mmrfd {
namespace {

ArgParser make_parser() {
  ArgParser p("test");
  p.flag("n", "10", "system size")
      .flag("rate", "1.5", "a rate")
      .flag("verbose", "false", "chatty")
      .flag("name", "abc", "a string");
  return p;
}

TEST(ArgParser, DefaultsApply) {
  auto p = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.get_int("n"), 10);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 1.5);
  EXPECT_FALSE(p.get_bool("verbose"));
  EXPECT_EQ(p.get("name"), "abc");
}

TEST(ArgParser, EqualsForm) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--n=25", "--rate=0.25"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.get_int("n"), 25);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 0.25);
}

TEST(ArgParser, SpaceForm) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--n", "7", "--name", "xyz"};
  ASSERT_TRUE(p.parse(5, argv));
  EXPECT_EQ(p.get_int("n"), 7);
  EXPECT_EQ(p.get("name"), "xyz");
}

TEST(ArgParser, BareBooleanFlag) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_TRUE(p.get_bool("verbose"));
}

TEST(ArgParser, UnknownFlagRejected) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParser, PositionalRejected) {
  auto p = make_parser();
  const char* argv[] = {"prog", "stray"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParser, HelpReturnsFalse) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParser, NumbersMustParseWhole) {
  // "12abc" is not 12, and a value past the type is no value: each throws
  // std::invalid_argument naming the flag.
  auto p = make_parser();
  const char* argv[] = {"prog", "--n=12abc", "--rate=1.5x"};
  ASSERT_TRUE(p.parse(3, argv));
  try {
    (void)p.get_int("n");
    ADD_FAILURE() << "12abc parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)p.get_uint("n"), std::invalid_argument);
  EXPECT_THROW((void)p.get_double("rate"), std::invalid_argument);
  for (const char* bad : {"--n=", "--n=x", "--n=99999999999999999999",
                          "--n= 5", "--n=5 "}) {
    auto q = make_parser();
    const char* one[] = {"prog", bad};
    ASSERT_TRUE(q.parse(2, one));
    EXPECT_THROW((void)q.get_int("n"), std::invalid_argument) << bad;
  }
}

TEST(ArgParser, UnsignedReadsTheWholeUint64Range) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--n=18446744073709551615"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_EQ(p.get_uint("n"), 18446744073709551615ull);
  EXPECT_THROW((void)p.get_int("n"), std::invalid_argument);
  for (const char* bad : {"--n=-1", "--n=18446744073709551616"}) {
    auto q = make_parser();
    const char* one[] = {"prog", bad};
    ASSERT_TRUE(q.parse(2, one));
    EXPECT_THROW((void)q.get_uint("n"), std::invalid_argument) << bad;
  }
}

TEST(ArgParser, UnregisteredGetThrows) {
  auto p = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_THROW((void)p.get("missing"), std::invalid_argument);
}

TEST(ArgParser, UsageListsFlags) {
  auto p = make_parser();
  const auto u = p.usage();
  EXPECT_NE(u.find("--n"), std::string::npos);
  EXPECT_NE(u.find("system size"), std::string::npos);
}

}  // namespace
}  // namespace mmrfd
