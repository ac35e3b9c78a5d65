// Regression tests for the strict key=value parser: the legacy per-binary
// parsers silently ignored unknown flags and pushed integers through atof
// truncation; cli::args must reject both.
#include "cli/args.h"

#include <gtest/gtest.h>

namespace cli = cmdsmc::cli;

TEST(CliArgs, SplitsKeyValueTokens) {
  const auto kvs = cli::parse_key_values({"mach=4.5", "body.kind=cylinder",
                                          "out=a=b"});
  ASSERT_EQ(kvs.size(), 3u);
  EXPECT_EQ(kvs[0].key, "mach");
  EXPECT_EQ(kvs[0].value, "4.5");
  EXPECT_EQ(kvs[1].key, "body.kind");
  EXPECT_EQ(kvs[1].value, "cylinder");
  // Only the first '=' splits; values may contain '='.
  EXPECT_EQ(kvs[2].key, "out");
  EXPECT_EQ(kvs[2].value, "a=b");
}

TEST(CliArgs, RejectsMalformedTokens) {
  EXPECT_THROW(cli::parse_key_values({"mach"}), cli::ArgError);
  EXPECT_THROW(cli::parse_key_values({"--mach", "4"}), cli::ArgError);
  EXPECT_THROW(cli::parse_key_values({"=4"}), cli::ArgError);
}

TEST(CliArgs, ParsesIntegersStrictly) {
  EXPECT_EQ(cli::parse_int("n", "42"), 42);
  EXPECT_EQ(cli::parse_int("n", "-7"), -7);
  // The atof-truncation footgun: a fractional value is an error, not 36.
  EXPECT_THROW(cli::parse_int("facets", "36.9"), cli::ArgError);
  EXPECT_THROW(cli::parse_int("n", "12x"), cli::ArgError);
  EXPECT_THROW(cli::parse_int("n", ""), cli::ArgError);
  EXPECT_THROW(cli::parse_int("n", "abc"), cli::ArgError);
  EXPECT_THROW(cli::parse_int("n", "99999999999999999999"), cli::ArgError);
}

TEST(CliArgs, ParsesUnsignedWithHex) {
  EXPECT_EQ(cli::parse_uint64("seed", "0x5eed"), 0x5eedULL);
  EXPECT_EQ(cli::parse_uint64("seed", "12345"), 12345ULL);
  EXPECT_THROW(cli::parse_uint64("seed", "-1"), cli::ArgError);
  EXPECT_THROW(cli::parse_uint64("seed", "0xzz"), cli::ArgError);
}

TEST(CliArgs, ParsesDoublesStrictly) {
  EXPECT_DOUBLE_EQ(cli::parse_double("m", "4.5"), 4.5);
  EXPECT_DOUBLE_EQ(cli::parse_double("m", "-1e-3"), -1e-3);
  EXPECT_THROW(cli::parse_double("m", "4.5x"), cli::ArgError);
  EXPECT_THROW(cli::parse_double("m", ""), cli::ArgError);
}

TEST(CliArgs, ParsesBooleans) {
  EXPECT_TRUE(cli::parse_bool("b", "1"));
  EXPECT_TRUE(cli::parse_bool("b", "true"));
  EXPECT_TRUE(cli::parse_bool("b", "ON"));
  EXPECT_TRUE(cli::parse_bool("b", "yes"));
  EXPECT_FALSE(cli::parse_bool("b", "0"));
  EXPECT_FALSE(cli::parse_bool("b", "False"));
  EXPECT_FALSE(cli::parse_bool("b", "off"));
  EXPECT_THROW(cli::parse_bool("b", "2"), cli::ArgError);
  EXPECT_THROW(cli::parse_bool("b", "maybe"), cli::ArgError);
}

TEST(CliArgs, UnknownKeyErrorListsValidKeys) {
  try {
    cli::throw_unknown_key("mcah", {"mach", "sigma"});
    FAIL() << "expected ArgError";
  } catch (const cli::ArgError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("mcah"), std::string::npos);
    EXPECT_NE(msg.find("mach"), std::string::npos);
    EXPECT_NE(msg.find("sigma"), std::string::npos);
  }
}

TEST(CliArgs, ErrorJsonIsOneEscapedLine) {
  const std::string json =
      cli::error_json("usage", "unknown key 'mcah'\nvalid keys: mach");
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"usage\""), std::string::npos);
  EXPECT_NE(json.find("unknown key"), std::string::npos);
  // Quotes and backslashes are escaped.
  const std::string tricky = cli::error_json("runtime", "a \"b\" c:\\d");
  EXPECT_NE(tricky.find("a \\\"b\\\" c:\\\\d"), std::string::npos);
  // Every control byte is escaped too (a raw one makes the line invalid
  // JSON): newlines as \n, the rest as \u00XX.
  const std::string control =
      cli::error_json("usage", "unknown key 'bad\x01key'\nvalid keys: mach");
  for (const char c : control)
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << control;
  EXPECT_NE(control.find("bad\\u0001key"), std::string::npos);
  EXPECT_NE(control.find("'\\nvalid"), std::string::npos);
}

TEST(CliArgs, ErrorClassificationDrivesExitCodes) {
  const cli::ArgError usage("bad flag");
  const std::invalid_argument config("SimConfig: bad grid dimensions");
  const std::runtime_error runtime("cannot open file");

  EXPECT_STREQ(cli::error_type(usage), "usage");
  EXPECT_STREQ(cli::error_type(config), "config");
  EXPECT_STREQ(cli::error_type(runtime), "runtime");

  // 2 = the caller's fault (usage/config), 3 = the environment's.
  EXPECT_EQ(cli::error_exit_code(usage), 2);
  EXPECT_EQ(cli::error_exit_code(config), 2);
  EXPECT_EQ(cli::error_exit_code(runtime), 3);
}
