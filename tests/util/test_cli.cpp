#include <gtest/gtest.h>

#include "util/cli.hpp"

namespace {

using picprk::util::ArgParser;
using picprk::util::parse_double;
using picprk::util::parse_int;

ArgParser make_parser() {
  ArgParser p("prog", "test program");
  p.add_int("cells", 100, "grid cells");
  p.add_double("r", 0.999, "geometric ratio");
  p.add_flag("verbose", false, "chatty output");
  p.add_string("dist", "geometric", "distribution");
  return p;
}

TEST(CliTest, DefaultsApply) {
  auto p = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.get_int("cells"), 100);
  EXPECT_DOUBLE_EQ(p.get_double("r"), 0.999);
  EXPECT_FALSE(p.get_flag("verbose"));
  EXPECT_EQ(p.get_string("dist"), "geometric");
  EXPECT_FALSE(p.supplied("cells"));
}

TEST(CliTest, SpaceSeparatedValues) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--cells", "256", "--dist", "linear"};
  ASSERT_TRUE(p.parse(5, argv));
  EXPECT_EQ(p.get_int("cells"), 256);
  EXPECT_EQ(p.get_string("dist"), "linear");
  EXPECT_TRUE(p.supplied("cells"));
}

TEST(CliTest, EqualsSeparatedValues) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--r=0.5", "--verbose"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_DOUBLE_EQ(p.get_double("r"), 0.5);
  EXPECT_TRUE(p.get_flag("verbose"));
}

TEST(CliTest, UnknownOptionThrows) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(p.parse(3, argv), std::invalid_argument);
}

TEST(CliTest, BadIntValueThrows) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--cells", "abc"};
  EXPECT_THROW(p.parse(3, argv), std::invalid_argument);
}

TEST(CliTest, TrailingGarbageIsRejected) {
  // A bare std::stoll read "1e5" as 1 and "12abc" as 12.
  for (const char* bad : {"1e5", "12abc", "3.5", ""}) {
    auto p = make_parser();
    const char* argv[] = {"prog", "--cells", bad};
    EXPECT_THROW(p.parse(3, argv), std::invalid_argument) << bad;
  }
  for (const char* bad : {"0.5x", "1e", "nope"}) {
    auto p = make_parser();
    const char* argv[] = {"prog", "--r", bad};
    EXPECT_THROW(p.parse(3, argv), std::invalid_argument) << bad;
  }
  auto p = make_parser();
  const char* argv[] = {"prog", "--cells", "-12", "--r", "1e5"};
  ASSERT_TRUE(p.parse(5, argv));
  EXPECT_EQ(p.get_int("cells"), -12);
  EXPECT_DOUBLE_EQ(p.get_double("r"), 1e5);
}

TEST(CliTest, WholeStringParsersThrowInvalidArgument) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_DOUBLE_EQ(parse_double("0.25"), 0.25);
  EXPECT_THROW((void)parse_int("42 "), std::invalid_argument);
  EXPECT_THROW((void)parse_int("99999999999999999999"), std::invalid_argument);
  EXPECT_THROW((void)parse_double("1.5.2"), std::invalid_argument);
  EXPECT_THROW((void)parse_double("1e999"), std::invalid_argument);
}

TEST(CliTest, MissingValueThrows) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--cells"};
  EXPECT_THROW(p.parse(2, argv), std::invalid_argument);
}

TEST(CliTest, HelpReturnsFalse) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--help"};
  testing::internal::CaptureStdout();
  EXPECT_FALSE(p.parse(2, argv));
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("--cells"), std::string::npos);
}

TEST(CliTest, UsageListsDefaults) {
  auto p = make_parser();
  EXPECT_NE(p.usage().find("0.999"), std::string::npos);
}

}  // namespace
