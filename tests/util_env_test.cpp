// Tests for the environment-override helpers, in particular the strict
// integer parsing that replaced the silent stoull fallback: a misspelled
// RAMP_TRACE_LEN / RAMP_SEED / RAMP_JOBS must fail loudly, never be
// silently replaced by a default.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>

#include "pipeline/evaluator.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace ramp {
namespace {

/// Sets an environment variable for one test and restores it on exit.
class ScopedEnv {
 public:
  ScopedEnv(std::string name, const char* value) : name_(std::move(name)) {
    if (const char* old = std::getenv(name_.c_str())) old_ = old;
    if (value != nullptr) {
      ::setenv(name_.c_str(), value, /*overwrite=*/1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_.c_str(), old_->c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::optional<std::string> old_;
};

TEST(ParseU64Test, AcceptsPlainDigits) {
  EXPECT_EQ(parse_u64("0", "x"), 0u);
  EXPECT_EQ(parse_u64("42", "x"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615", "x"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseU64Test, RejectsGarbage) {
  EXPECT_THROW(parse_u64("", "x"), InvalidArgument);
  EXPECT_THROW(parse_u64("abc", "x"), InvalidArgument);
  EXPECT_THROW(parse_u64("12abc", "x"), InvalidArgument);   // trailing junk
  EXPECT_THROW(parse_u64("-1", "x"), InvalidArgument);      // no sign
  EXPECT_THROW(parse_u64("+5", "x"), InvalidArgument);
  EXPECT_THROW(parse_u64(" 5", "x"), InvalidArgument);      // no whitespace
  EXPECT_THROW(parse_u64("5 ", "x"), InvalidArgument);
  EXPECT_THROW(parse_u64("1.5", "x"), InvalidArgument);
  EXPECT_THROW(parse_u64("18446744073709551616", "x"),      // 2^64 overflows
               InvalidArgument);
}

TEST(ParseU64Test, ErrorNamesTheSetting) {
  try {
    parse_u64("nope", "environment variable RAMP_SEED");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("RAMP_SEED"), std::string::npos);
  }
}

TEST(EnvU64Test, FallsBackOnlyWhenUnset) {
  ScopedEnv unset("RAMP_TEST_U64", nullptr);
  EXPECT_EQ(env_u64("RAMP_TEST_U64", 7), 7u);
  ScopedEnv set("RAMP_TEST_U64", "123");
  EXPECT_EQ(env_u64("RAMP_TEST_U64", 7), 123u);
}

TEST(EnvU64Test, MalformedValueThrowsInsteadOfFallingBack) {
  ScopedEnv set("RAMP_TEST_U64", "twelve");
  EXPECT_THROW(env_u64("RAMP_TEST_U64", 7), InvalidArgument);
  ScopedEnv negative("RAMP_TEST_U64", "-3");
  EXPECT_THROW(env_u64("RAMP_TEST_U64", 7), InvalidArgument);
}

TEST(EnvJobsTest, RejectsZeroWorkers) {
  ScopedEnv set("RAMP_TEST_JOBS", "0");
  EXPECT_THROW(env_jobs("RAMP_TEST_JOBS", 4), InvalidArgument);
  ScopedEnv ok("RAMP_TEST_JOBS", "3");
  EXPECT_EQ(env_jobs("RAMP_TEST_JOBS", 4), 3u);
  ScopedEnv unset("RAMP_TEST_JOBS", nullptr);
  EXPECT_EQ(env_jobs("RAMP_TEST_JOBS", 4), 4u);
}

TEST(OutputDirTest, DefaultsToOutAndHonorsOverride) {
  ScopedEnv unset("RAMP_OUT_DIR", nullptr);
  EXPECT_EQ(output_dir(), "out");
  ScopedEnv set("RAMP_OUT_DIR", "/tmp/ramp_artifacts");
  EXPECT_EQ(output_dir(), "/tmp/ramp_artifacts");
}

TEST(EnvOnOffTest, AcceptsAllSwitchSpellings) {
  ScopedEnv unset("RAMP_TEST_SWITCH", nullptr);
  EXPECT_TRUE(env_on_off("RAMP_TEST_SWITCH", true));
  EXPECT_FALSE(env_on_off("RAMP_TEST_SWITCH", false));
  for (const char* on : {"on", "1", "true", "yes", "ON", "True", "YES"}) {
    ScopedEnv set("RAMP_TEST_SWITCH", on);
    EXPECT_TRUE(env_on_off("RAMP_TEST_SWITCH", false)) << on;
  }
  for (const char* off : {"off", "0", "false", "no", "OFF", "False", "NO"}) {
    ScopedEnv set("RAMP_TEST_SWITCH", off);
    EXPECT_FALSE(env_on_off("RAMP_TEST_SWITCH", true)) << off;
  }
}

TEST(EnvOnOffTest, UnrecognizedValueThrowsInsteadOfFallingBack) {
  for (const char* bad : {"banana", "enable", "2", "o n", " on"}) {
    ScopedEnv set("RAMP_TEST_SWITCH", bad);
    EXPECT_THROW(env_on_off("RAMP_TEST_SWITCH", true), InvalidArgument) << bad;
  }
}

TEST(FromEnvTest, ReadsOverrides) {
  ScopedEnv trace("RAMP_TRACE_LEN", "12345");
  ScopedEnv seed("RAMP_SEED", "99");
  const auto cfg = pipeline::EvaluationConfig::from_env();
  EXPECT_EQ(cfg.trace_instructions, 12345u);
  EXPECT_EQ(cfg.seed, 99u);
}

TEST(FromEnvTest, MalformedTraceLenThrows) {
  ScopedEnv trace("RAMP_TRACE_LEN", "300k");
  EXPECT_THROW(pipeline::EvaluationConfig::from_env(), InvalidArgument);
}

TEST(FromEnvTest, ZeroTraceLenThrows) {
  ScopedEnv trace("RAMP_TRACE_LEN", "0");
  EXPECT_THROW(pipeline::EvaluationConfig::from_env(), InvalidArgument);
}

TEST(FromEnvTest, MalformedSeedThrows) {
  ScopedEnv seed("RAMP_SEED", "0x2a");
  EXPECT_THROW(pipeline::EvaluationConfig::from_env(), InvalidArgument);
}

TEST(FromEnvTest, ReadsMetricsSwitchStrictly) {
  // Obs reads RAMP_METRICS itself; from_env only validates the spelling so a
  // typo fails loudly instead of silently falling back.
  {
    ScopedEnv off("RAMP_METRICS", "off");
    EXPECT_NO_THROW(pipeline::EvaluationConfig::from_env());
  }
  {
    ScopedEnv on("RAMP_METRICS", "1");
    EXPECT_NO_THROW(pipeline::EvaluationConfig::from_env());
  }
  {
    ScopedEnv unset("RAMP_METRICS", nullptr);
    EXPECT_NO_THROW(pipeline::EvaluationConfig::from_env());
  }
  ScopedEnv bad("RAMP_METRICS", "banana");
  EXPECT_THROW(pipeline::EvaluationConfig::from_env(), InvalidArgument);
}

}  // namespace
}  // namespace ramp
