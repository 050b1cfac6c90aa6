// Unit tests for the util substrate: strings, config, counters, clock, rng.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "util/clock.h"
#include "util/config.h"
#include "util/counters.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/strings.h"

namespace smartsock::util {
namespace {

// --- strings ----------------------------------------------------------------

TEST(Split, BasicFields) {
  auto fields = split("a,b,c", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(Split, DropsEmptyByDefault) {
  auto fields = split("a,,c,", ',');
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[1], "c");
}

TEST(Split, KeepsEmptyWhenAsked) {
  auto fields = split("a,,c,", ',', /*keep_empty=*/true);
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(Split, EmptyInput) {
  EXPECT_TRUE(split("", ',').empty());
  EXPECT_EQ(split("", ',', true).size(), 1u);
}

TEST(SplitWhitespace, MixedRuns) {
  auto fields = split_whitespace("  one \t two\nthree  ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "one");
  EXPECT_EQ(fields[1], "two");
  EXPECT_EQ(fields[2], "three");
}

TEST(Trim, Behaviour) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(ParseDouble, Strict) {
  EXPECT_EQ(parse_double("1.5"), 1.5);
  EXPECT_EQ(parse_double("-2"), -2.0);
  EXPECT_FALSE(parse_double("1.5x"));
  EXPECT_FALSE(parse_double(""));
  EXPECT_FALSE(parse_double("abc"));
}

TEST(ParseInt, Strict) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_FALSE(parse_int("42.0"));
  EXPECT_FALSE(parse_int("4e2"));
}

TEST(ParseUint, RejectsNegative) {
  EXPECT_EQ(parse_uint("42"), 42u);
  EXPECT_FALSE(parse_uint("-1"));
}

TEST(FormatDouble, RoundTrips) {
  for (double v : {0.0, 1.0, -1.5, 0.1, 1e10, 3.14159265358979, 95.346}) {
    auto parsed = parse_double(format_double(v));
    ASSERT_TRUE(parsed.has_value()) << v;
    EXPECT_EQ(*parsed, v);
  }
}

TEST(LooksLikeIpv4, Classification) {
  EXPECT_TRUE(looks_like_ipv4("127.0.0.1"));
  EXPECT_TRUE(looks_like_ipv4("255.255.255.255"));
  EXPECT_FALSE(looks_like_ipv4("256.0.0.1"));
  EXPECT_FALSE(looks_like_ipv4("1.2.3"));
  EXPECT_FALSE(looks_like_ipv4("1.2.3.4.5"));
  EXPECT_FALSE(looks_like_ipv4("a.b.c.d"));
}

TEST(Join, Basic) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join({}, ","), "");
}

// --- config ------------------------------------------------------------------

TEST(Config, ParsesKeyValues) {
  Config config;
  ASSERT_TRUE(config.parse("a = 1\nb=two\n# comment\nc = 3.5 # inline"));
  EXPECT_EQ(config.get_int_or("a", 0), 1);
  EXPECT_EQ(config.get_or("b", ""), "two");
  EXPECT_EQ(config.get_double_or("c", 0.0), 3.5);
}

TEST(Config, RejectsMalformedLine) {
  Config config;
  EXPECT_FALSE(config.parse("valid = 1\nnot a pair\n"));
  EXPECT_NE(config.error().find("line 2"), std::string::npos);
}

TEST(Config, LaterKeysWin) {
  Config config;
  ASSERT_TRUE(config.parse("k = 1\nk = 2\n"));
  EXPECT_EQ(config.get_int_or("k", 0), 2);
}

TEST(Config, BoolParsing) {
  Config config;
  ASSERT_TRUE(config.parse("t1=true\nt2=YES\nf1=0\nf2=off\njunk=banana\n"));
  EXPECT_TRUE(config.get_bool_or("t1", false));
  EXPECT_TRUE(config.get_bool_or("t2", false));
  EXPECT_FALSE(config.get_bool_or("f1", true));
  EXPECT_FALSE(config.get_bool_or("f2", true));
  EXPECT_TRUE(config.get_bool_or("junk", true));  // fallback on garbage
}

TEST(Config, MissingFileFails) {
  Config config;
  EXPECT_FALSE(config.load_file("/nonexistent/path/cfg"));
}

// --- counters ------------------------------------------------------------------

TEST(TrafficCounter, Accumulates) {
  TrafficCounter counter;
  counter.add_sent(100);
  counter.add_sent(50);
  counter.add_received(7);
  EXPECT_EQ(counter.bytes_sent(), 150u);
  EXPECT_EQ(counter.messages_sent(), 2u);
  EXPECT_EQ(counter.bytes_received(), 7u);
  EXPECT_EQ(counter.messages_received(), 1u);
  counter.reset();
  EXPECT_EQ(counter.bytes_sent(), 0u);
}

TEST(CurrentRss, ReportsSomething) {
  // /proc is available on the build machine.
  EXPECT_GT(current_rss_kb(), 0u);
}

// --- clock -----------------------------------------------------------------

TEST(SteadyClockTest, Monotonic) {
  SteadyClock clock;
  auto a = clock.now();
  auto b = clock.now();
  EXPECT_GE(b.count(), a.count());
}

TEST(SteadyClockTest, SleepAdvances) {
  SteadyClock clock;
  Stopwatch stopwatch(clock);
  clock.sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(stopwatch.elapsed(), std::chrono::milliseconds(8));
}

TEST(DurationHelpers, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(std::chrono::seconds(2)), 2.0);
  EXPECT_DOUBLE_EQ(to_millis(std::chrono::milliseconds(1500)), 1500.0);
  EXPECT_EQ(from_seconds(1.5), std::chrono::milliseconds(1500));
  EXPECT_EQ(from_millis(2.0), std::chrono::milliseconds(2));
}

// --- rng ----------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(9);
  auto sample = rng.sample_indices(10, 4);
  ASSERT_EQ(sample.size(), 4u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 4u);
  for (std::size_t index : sample) EXPECT_LT(index, 10u);
}

TEST(Rng, SampleAllWhenKExceedsN) {
  Rng rng(9);
  auto sample = rng.sample_indices(3, 10);
  EXPECT_EQ(sample.size(), 3u);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

// --- logging ---------------------------------------------------------------

TEST(Logging, LevelParsing) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("WARN"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::kInfo);
}

TEST(Logging, EnabledRespectsLevel) {
  Logger& logger = Logger::instance();
  LogLevel saved = logger.level();
  logger.set_level(LogLevel::kError);
  EXPECT_FALSE(logger.enabled(LogLevel::kDebug));
  EXPECT_TRUE(logger.enabled(LogLevel::kError));
  logger.set_level(saved);
}

}  // namespace
}  // namespace smartsock::util
