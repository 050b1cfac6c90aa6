// Property-style parameterized sweeps over the system's invariants:
//  * the RTT threshold tracks any MTU (Formula 3.6),
//  * the one-way estimator obeys the probe-size rules across paths/loads,
//  * the requirement language round-trips pretty-printed programs,
//  * the wire formats survive arbitrary field values,
//  * the matcher count contract holds for any pool size/request.
#include <gtest/gtest.h>

#include <set>

#include "apps/massd/shaper.h"
#include "bwest/one_way_udp_stream.h"
#include "core/server_matcher.h"
#include "core/wire.h"
#include "lang/parser.h"
#include "lang/requirement.h"
#include "probe/status_report.h"
#include "sim/testbed.h"
#include "sim/virtual_clock.h"

namespace smartsock {
namespace {

// --- MTU threshold sweep (Figs 3.3-3.5 generalized) -----------------------------

class MtuThresholdSweep : public testing::TestWithParam<int> {};

TEST_P(MtuThresholdSweep, SlopeBreaksExactlyAtConfiguredMtu) {
  int mtu = GetParam();
  sim::NetworkPath path(sim::sagit_to_suna(mtu));
  auto slope = [&](int s0, int s1) {
    return (path.deterministic_rtt_ms(s1) - path.deterministic_rtt_ms(s0)) / (s1 - s0);
  };
  double below = slope(mtu / 10, mtu - mtu / 10);
  double above = slope(mtu + mtu / 10, 4 * mtu);
  EXPECT_GT(below, 2.0 * above) << "mtu=" << mtu;
}

INSTANTIATE_TEST_SUITE_P(AllMtus, MtuThresholdSweep,
                         testing::Values(500, 576, 1000, 1500, 4352, 9000));

// --- estimator probe-size rules across utilizations -----------------------------

struct EstimatorCase {
  double utilization;
  int mtu;
};

// Names the case by its fields, not its raw bytes (see EvalCase's PrintTo).
void PrintTo(const EstimatorCase& c, std::ostream* os) {
  *os << '{' << c.utilization << ", " << c.mtu << '}';
}

class EstimatorSweep : public testing::TestWithParam<EstimatorCase> {};

TEST_P(EstimatorSweep, OptimalSizesWithinTwentyPercent) {
  auto [utilization, mtu] = GetParam();
  sim::PathConfig config = sim::sagit_to_suna(mtu);
  config.utilization = utilization;
  sim::NetworkPath path(config);
  bwest::SimProber prober(path);
  auto stream_config = bwest::OneWayUdpStreamEstimator::optimal_sizes_for_mtu(mtu);
  stream_config.probes_per_size = 40;
  auto estimate = bwest::OneWayUdpStreamEstimator(stream_config).estimate(prober);
  ASSERT_TRUE(estimate.valid());
  double truth = config.available_bw_mbps();
  EXPECT_NEAR(estimate.bw_mbps, truth, truth * 0.20)
      << "utilization=" << utilization << " mtu=" << mtu;
}

TEST_P(EstimatorSweep, SubMtuAlwaysUnderestimates) {
  auto [utilization, mtu] = GetParam();
  sim::PathConfig config = sim::sagit_to_suna(mtu);
  config.utilization = utilization;
  sim::NetworkPath path(config);
  bwest::SimProber prober(path);
  bwest::OneWayStreamConfig stream_config;
  stream_config.size1_bytes = mtu / 10;
  stream_config.size2_bytes = mtu / 2;
  stream_config.probes_per_size = 40;
  auto estimate = bwest::OneWayUdpStreamEstimator(stream_config).estimate(prober);
  ASSERT_TRUE(estimate.valid());
  // Eq 3.7: the estimate is capped by Speed_init no matter the true bw.
  EXPECT_LT(estimate.bw_mbps, config.init_speed_mbps * 1.15);
}

INSTANTIATE_TEST_SUITE_P(LoadsAndMtus, EstimatorSweep,
                         testing::Values(EstimatorCase{0.0, 1500},
                                         EstimatorCase{0.05, 1500},
                                         EstimatorCase{0.15, 1500},
                                         EstimatorCase{0.05, 1000},
                                         EstimatorCase{0.10, 9000}));

// --- language: print/reparse fixed point ----------------------------------------

class ReparseSweep : public testing::TestWithParam<const char*> {};

TEST_P(ReparseSweep, PrettyPrintReparsesToSameTree) {
  lang::Program first;
  lang::ParseError error;
  ASSERT_TRUE(lang::Parser::parse_source(GetParam(), first, error)) << error.to_string();
  ASSERT_EQ(first.statements.size(), 1u);
  std::string printed = first.statements[0].expr->to_string();

  lang::Program second;
  ASSERT_TRUE(lang::Parser::parse_source(printed, second, error))
      << printed << ": " << error.to_string();
  ASSERT_EQ(second.statements.size(), 1u);
  EXPECT_EQ(second.statements[0].expr->to_string(), printed);
}

INSTANTIATE_TEST_SUITE_P(
    Expressions, ReparseSweep,
    testing::Values("1 + 2 * 3 - 4 / 5",
                    "a && b || c && d",
                    "host_cpu_free >= 0.9",
                    "(x = 3) && (y = x + 1) && (y > 3)",
                    "-2 ^ 2",
                    "sqrt(abs(t - 1)) < log10(100)",
                    "user_denied_host1 = 137.132.90.182",
                    "((host_cpu_bogomips > 4000) || (host_cpu_bogomips < 2000))"));

// --- language: evaluation matches a C++ reference -------------------------------

struct EvalCase {
  const char* source;
  double cpu_free;
  bool expect_qualified;
};

// Without this, gtest prints the case as raw bytes, which include the address of
// `source` and the padding after `expect_qualified`; CTest would then give the
// cases a different name on every test discovery.
void PrintTo(const EvalCase& c, std::ostream* os) {
  *os << '{' << testing::PrintToString(c.source) << ", " << c.cpu_free << ", "
      << (c.expect_qualified ? "true" : "false") << '}';
}

class EvalSweep : public testing::TestWithParam<EvalCase> {};

TEST_P(EvalSweep, MatchesReference) {
  auto [source, cpu_free, expected] = GetParam();
  auto requirement = lang::Requirement::compile(source);
  ASSERT_TRUE(requirement);
  lang::AttributeSet attrs{{"host_cpu_free", cpu_free}, {"host_memory_free", 64.0}};
  EXPECT_EQ(requirement->qualifies(attrs), expected) << source << " cpu=" << cpu_free;
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, EvalSweep,
    testing::Values(EvalCase{"host_cpu_free > 0.9", 0.90, false},
                    EvalCase{"host_cpu_free >= 0.9", 0.90, true},
                    EvalCase{"host_cpu_free < 0.9", 0.90, false},
                    EvalCase{"host_cpu_free <= 0.9", 0.90, true},
                    EvalCase{"host_cpu_free == 0.9", 0.90, true},
                    EvalCase{"host_cpu_free != 0.9", 0.90, false},
                    EvalCase{"host_cpu_free > 0.5 && host_memory_free > 100", 0.9, false},
                    EvalCase{"host_cpu_free > 0.5 || host_memory_free > 100", 0.9, true}));

// --- status report wire format over field sweeps --------------------------------

class ReportSweep : public testing::TestWithParam<double> {};

TEST_P(ReportSweep, WireRoundTripExact) {
  double value = GetParam();
  probe::StatusReport report;
  report.host = "sweep";
  report.address = "127.0.0.1:1";
  report.load1 = value;
  report.net_tbytes_ps = value * 3;
  report.mem_free_mb = value / 7;
  auto parsed = probe::StatusReport::from_wire(report.to_wire());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->load1, report.load1);
  EXPECT_EQ(parsed->net_tbytes_ps, report.net_tbytes_ps);
  EXPECT_EQ(parsed->mem_free_mb, report.mem_free_mb);
}

INSTANTIATE_TEST_SUITE_P(Values, ReportSweep,
                         testing::Values(0.0, 1.0, 0.123456789, 1e-9, 1e9, 4771.02,
                                         123456789.25));

// --- matcher count contract -------------------------------------------------------

struct MatcherCase {
  std::size_t pool;
  std::size_t qualified;  // how many in the pool pass the requirement
  std::size_t requested;
};

void PrintTo(const MatcherCase& c, std::ostream* os) {
  *os << '{' << c.pool << ", " << c.qualified << ", " << c.requested << '}';
}

class MatcherSweep : public testing::TestWithParam<MatcherCase> {};

TEST_P(MatcherSweep, SelectedCountIsMinOfQualifiedRequestedCap) {
  auto [pool, qualified, requested] = GetParam();
  core::MatchInput input;
  for (std::size_t i = 0; i < pool; ++i) {
    ipc::SysRecord record;
    ipc::copy_fixed(record.host, ipc::kHostNameLen, "h" + std::to_string(i));
    ipc::copy_fixed(record.address, ipc::kAddressLen, "10.0.0." + std::to_string(i) + ":1");
    record.cpu_idle = i < qualified ? 0.95 : 0.10;
    input.sys.push_back(record);
  }
  auto requirement = lang::Requirement::compile("host_cpu_free > 0.5");
  ASSERT_TRUE(requirement);
  core::ServerMatcher matcher;
  auto result = matcher.match(*requirement, input, requested);

  std::size_t expected = std::min({qualified, requested, core::kMaxServersPerReply});
  EXPECT_EQ(result.selected.size(), expected);
  EXPECT_EQ(result.evaluated, pool);
  EXPECT_EQ(result.qualified, qualified);
  // No duplicates ever.
  std::set<std::string> unique;
  for (const auto& entry : result.selected) unique.insert(entry.host);
  EXPECT_EQ(unique.size(), result.selected.size());
}

INSTANTIATE_TEST_SUITE_P(Counts, MatcherSweep,
                         testing::Values(MatcherCase{0, 0, 5}, MatcherCase{5, 5, 5},
                                         MatcherCase{10, 3, 5}, MatcherCase{10, 10, 3},
                                         MatcherCase{80, 80, 70}, MatcherCase{12, 0, 4}));

// --- shaper rate sweep (Fig 5.3 generalized as a property) ------------------------

class ShaperSweep : public testing::TestWithParam<double> {};

TEST_P(ShaperSweep, VirtualTimeMatchesConfiguredRate) {
  double rate = GetParam();
  sim::VirtualClock clock;
  apps::TokenBucket bucket(rate, rate / 100.0, clock);
  const std::uint64_t total = static_cast<std::uint64_t>(rate * 3);  // ~3 s of data
  for (std::uint64_t sent = 0; sent < total; sent += 1024) {
    bucket.acquire(std::min<std::uint64_t>(1024, total - sent));
  }
  double elapsed = util::to_seconds(clock.now());
  EXPECT_NEAR(elapsed, 3.0, 0.2) << "rate=" << rate;
}

INSTANTIATE_TEST_SUITE_P(Rates, ShaperSweep,
                         testing::Values(50.0 * 1024, 170.0 * 1024, 500.0 * 1024,
                                         860.0 * 1024, 5.0 * 1024 * 1024));

}  // namespace
}  // namespace smartsock
