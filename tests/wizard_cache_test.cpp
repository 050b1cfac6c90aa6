// Wizard query fast path: compiled-requirement cache accounting (hit/miss,
// LRU eviction, negative entries), cached-vs-fresh equivalence, parallel
// matcher byte-identity against the serial scan, and the wizard's
// store-version-validated reply cache.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/server_matcher.h"
#include "core/wizard.h"
#include "ipc/in_memory_store.h"
#include "lang/requirement_cache.h"
#include "obs/metrics.h"
#include "util/counters.h"
#include "util/lru.h"

namespace smartsock::core {
namespace {

// --- requirement cache ---------------------------------------------------------

TEST(RequirementCache, MissThenHit) {
  lang::RequirementCache cache(8);
  auto first = cache.get_or_compile("host_cpu_free > 0.5\n");
  ASSERT_TRUE(first);
  EXPECT_FALSE(first.hit);

  auto second = cache.get_or_compile("host_cpu_free > 0.5\n");
  ASSERT_TRUE(second);
  EXPECT_TRUE(second.hit);
  // Hits hand out the same compiled program, not a copy.
  EXPECT_EQ(first.requirement.get(), second.requirement.get());

  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(RequirementCache, DistinctExpressionsAreDistinctEntries) {
  lang::RequirementCache cache(8);
  cache.get_or_compile("host_cpu_free > 0.5\n");
  cache.get_or_compile("host_cpu_free > 0.6\n");
  EXPECT_EQ(cache.stats().size, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(RequirementCache, EvictsLeastRecentlyUsedAtCapacity) {
  lang::RequirementCache cache(2);
  cache.get_or_compile("host_cpu_free > 0.1\n");  // A
  cache.get_or_compile("host_cpu_free > 0.2\n");  // B
  cache.get_or_compile("host_cpu_free > 0.1\n");  // touch A; B is now LRU
  cache.get_or_compile("host_cpu_free > 0.3\n");  // C evicts B

  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);

  EXPECT_TRUE(cache.get_or_compile("host_cpu_free > 0.1\n").hit);   // A survived
  EXPECT_FALSE(cache.get_or_compile("host_cpu_free > 0.2\n").hit);  // B evicted
}

TEST(RequirementCache, NegativeCachesCompileErrors) {
  lang::RequirementCache cache(8);
  const char* malformed = "host_cpu_free > > 0.5\n";

  auto first = cache.get_or_compile(malformed);
  EXPECT_FALSE(first);
  EXPECT_FALSE(first.hit);
  EXPECT_FALSE(first.error.empty());

  auto second = cache.get_or_compile(malformed);
  EXPECT_FALSE(second);
  EXPECT_TRUE(second.hit);  // the parser did not run again
  EXPECT_EQ(second.error, first.error);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(RequirementCache, CapacityZeroDisablesCaching) {
  lang::RequirementCache cache(0);
  EXPECT_FALSE(cache.get_or_compile("host_cpu_free > 0.5\n").hit);
  EXPECT_FALSE(cache.get_or_compile("host_cpu_free > 0.5\n").hit);
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  // Still compiles correctly in pass-through mode.
  EXPECT_TRUE(cache.get_or_compile("host_cpu_free > 0.5\n"));
}

// --- fixture records -----------------------------------------------------------

ipc::SysRecord sys_record(const std::string& host, double cpu_idle, double mem_free,
                          const std::string& group = "g1") {
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, host);
  // Address must be unique per host: the store upserts keyed by address.
  unsigned octet = 0;
  for (char c : host) octet = (octet + static_cast<unsigned>(c)) % 250;
  ipc::copy_fixed(record.address, ipc::kAddressLen,
                  "10.1.0." + std::to_string(octet) + ":5000");
  ipc::copy_fixed(record.group, ipc::kGroupLen, group);
  record.cpu_idle = cpu_idle;
  record.mem_free_mb = mem_free;
  record.mem_total_mb = 1024;
  return record;
}

MatchInput mixed_input(std::size_t servers) {
  MatchInput input;
  input.local_group = "local";
  for (std::size_t i = 0; i < servers; ++i) {
    auto record = sys_record("host" + std::to_string(i),
                             0.1 + static_cast<double>(i % 10) / 10.0,
                             static_cast<double>(50 + (i * 37) % 900),
                             "g" + std::to_string(i % 3));
    ipc::copy_fixed(record.address, ipc::kAddressLen,
                    "10.2." + std::to_string(i / 250) + "." + std::to_string(i % 250) + ":5000");
    input.sys.push_back(record);

    if (i % 2 == 0) {  // half the hosts have a clearance record
      ipc::SecRecord sec;
      ipc::copy_fixed(sec.host, ipc::kHostNameLen, "host" + std::to_string(i));
      sec.level = static_cast<std::int32_t>(i % 4);
      input.sec.push_back(sec);
    }
  }
  for (int g = 0; g < 2; ++g) {  // g2 deliberately unmeasured
    ipc::NetRecord net;
    ipc::copy_fixed(net.from_group, ipc::kGroupLen, "local");
    ipc::copy_fixed(net.to_group, ipc::kGroupLen, "g" + std::to_string(g));
    net.bw_mbps = 10.0 * (g + 1);
    net.delay_ms = 1.0 + g;
    input.net.push_back(net);
  }
  return input;
}

lang::Requirement compile(const std::string& text) {
  std::string error;
  auto requirement = lang::Requirement::compile(text, &error);
  EXPECT_TRUE(requirement) << error;
  return std::move(*requirement);
}

// --- cached vs fresh equivalence -----------------------------------------------

TEST(RequirementCache, CachedRequirementSelectsIdenticalServers) {
  const std::string text =
      "host_cpu_free > 0.3\n"
      "rank_by = host_memory_free\n"
      "user_preferred_host1 = host7\n"
      "user_denied_host1 = host3\n";

  lang::RequirementCache cache(4);
  cache.get_or_compile(text);                     // populate
  auto cached = cache.get_or_compile(text);       // served from cache
  ASSERT_TRUE(cached);
  ASSERT_TRUE(cached.hit);
  lang::Requirement fresh = compile(text);

  MatchInput input = mixed_input(64);
  ServerMatcher matcher;
  MatchResult from_cache = matcher.match(*cached.requirement, input, 12);
  MatchResult from_fresh = matcher.match(fresh, input, 12);

  EXPECT_EQ(from_cache.selected, from_fresh.selected);
  EXPECT_EQ(from_cache.evaluated, from_fresh.evaluated);
  EXPECT_EQ(from_cache.qualified, from_fresh.qualified);
  EXPECT_EQ(from_cache.diagnostics, from_fresh.diagnostics);
}

// --- parallel matcher byte-identity --------------------------------------------

void expect_identical(const MatchResult& a, const MatchResult& b) {
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.qualified, b.qualified);
  EXPECT_EQ(a.diagnostics, b.diagnostics);
}

TEST(ParallelMatcher, IdenticalToSerialOnMixedRecords) {
  // rank ties, preferred + denied hosts, security levels, unmeasured network
  // paths, and an error-producing statement (undefined variable) all in one
  // requirement, so the merge must preserve order, ranks and diagnostics.
  const std::string text =
      "host_cpu_free > 0.3\n"
      "rank_by = host_memory_free\n"
      "user_preferred_host1 = host5\n"
      "user_denied_host1 = host11\n";

  lang::Requirement requirement = compile(text);
  MatchInput input = mixed_input(257);  // odd size: uneven chunk split

  ServerMatcher serial;
  MatchResult expected = serial.match(requirement, input, 30);
  EXPECT_GT(expected.selected.size(), 0u);

  for (std::size_t threads : {2u, 3u, 8u}) {
    ServerMatcher parallel(threads);
    EXPECT_EQ(parallel.threads(), threads);
    expect_identical(parallel.match(requirement, input, 30), expected);
  }
}

TEST(ParallelMatcher, IdenticalDiagnosticsForErroringRequirement) {
  // monitor_network_bw is unbound for group g2 servers: those records error
  // and the diagnostics must come back in record order.
  lang::Requirement requirement = compile("monitor_network_bw > 1\n");
  MatchInput input = mixed_input(100);

  ServerMatcher serial;
  ServerMatcher parallel(4);
  MatchResult expected = serial.match(requirement, input, 60);
  EXPECT_FALSE(expected.diagnostics.empty());
  expect_identical(parallel.match(requirement, input, 60), expected);
}

TEST(ParallelMatcher, HandlesEmptyAndTinyInputs) {
  lang::Requirement requirement = compile("host_cpu_free > 0.0\n");
  ServerMatcher parallel(4);

  MatchInput empty;
  empty.local_group = "local";
  EXPECT_TRUE(parallel.match(requirement, empty, 5).selected.empty());

  MatchInput one = mixed_input(1);
  ServerMatcher serial;
  expect_identical(parallel.match(requirement, one, 5), serial.match(requirement, one, 5));
}

// --- wizard reply cache --------------------------------------------------------

UserRequest make_request(const std::string& detail, std::uint32_t sequence = 1,
                         std::uint16_t count = 5) {
  UserRequest request;
  request.sequence = sequence;
  request.server_num = count;
  request.detail = detail;
  return request;
}

TEST(WizardReplyCache, RepeatQueryHitsUntilStoreChanges) {
  ipc::InMemoryStatusStore store;
  store.put_sys(sys_record("alpha", 0.9, 500));
  store.put_sys(sys_record("beta", 0.2, 100));

  WizardConfig config;
  config.cache_size = 16;
  Wizard wizard(config, store);
  ASSERT_TRUE(wizard.valid());
  EXPECT_TRUE(wizard.bind_error().empty());

  auto first = wizard.handle(make_request("host_cpu_free > 0.5\n", 1));
  ASSERT_TRUE(first.ok);
  ASSERT_EQ(first.servers.size(), 1u);
  EXPECT_EQ(first.servers[0].host, "alpha");
  EXPECT_EQ(wizard.reply_cache_stats().misses, 1u);

  auto second = wizard.handle(make_request("host_cpu_free > 0.5\n", 2));
  EXPECT_EQ(wizard.reply_cache_stats().hits, 1u);
  EXPECT_EQ(second.sequence, 2u);  // cached reply carries the new sequence
  EXPECT_EQ(second.servers, first.servers);

  // A store mutation invalidates: the gamma server must appear.
  store.put_sys(sys_record("gamma", 0.95, 900));
  auto third = wizard.handle(make_request("host_cpu_free > 0.5\n", 3));
  EXPECT_EQ(wizard.reply_cache_stats().misses, 2u);
  ASSERT_EQ(third.servers.size(), 2u);

  // And the refreshed reply is cached again.
  wizard.handle(make_request("host_cpu_free > 0.5\n", 4));
  EXPECT_EQ(wizard.reply_cache_stats().hits, 2u);
}

TEST(WizardReplyCache, DistinguishesCountAndOption) {
  ipc::InMemoryStatusStore store;
  store.put_sys(sys_record("alpha", 0.9, 500));

  WizardConfig config;
  config.cache_size = 16;
  Wizard wizard(config, store);
  ASSERT_TRUE(wizard.valid());

  auto best_effort = wizard.handle(make_request("host_cpu_free > 0.5\n", 1, 3));
  EXPECT_TRUE(best_effort.ok);

  UserRequest strict = make_request("host_cpu_free > 0.5\n", 2, 3);
  strict.option = RequestOption::kStrict;
  auto strict_reply = wizard.handle(strict);
  EXPECT_FALSE(strict_reply.ok);  // only 1 of 3 qualified
  // Same detail text, different option: must not have been served from the
  // best-effort entry.
  EXPECT_EQ(wizard.reply_cache_stats().misses, 2u);
}

TEST(WizardReplyCache, MalformedExpressionUsesNegativeRequirementCache) {
  ipc::InMemoryStatusStore store;
  WizardConfig config;
  config.cache_size = 16;
  Wizard wizard(config, store);
  ASSERT_TRUE(wizard.valid());

  auto first = wizard.handle(make_request("host_cpu_free > > 1\n", 1));
  EXPECT_FALSE(first.ok);
  EXPECT_NE(first.error.find("requirement:"), std::string::npos);

  auto second = wizard.handle(make_request("host_cpu_free > > 1\n", 2));
  EXPECT_FALSE(second.ok);
  EXPECT_EQ(second.error, first.error);
  EXPECT_EQ(wizard.requirement_cache().stats().hits, 1u);
}

TEST(WizardReplyCache, CacheSizeZeroStillAnswersCorrectly) {
  ipc::InMemoryStatusStore store;
  store.put_sys(sys_record("alpha", 0.9, 500));

  WizardConfig config;
  config.cache_size = 0;
  Wizard wizard(config, store);
  ASSERT_TRUE(wizard.valid());

  for (std::uint32_t seq = 1; seq <= 3; ++seq) {
    auto reply = wizard.handle(make_request("host_cpu_free > 0.5\n", seq));
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.servers.size(), 1u);
  }
  EXPECT_EQ(wizard.reply_cache_stats().hits, 0u);
  EXPECT_EQ(wizard.requirement_cache().stats().hits, 0u);
}

TEST(WizardFastPath, RecordsPerQueryLatency) {
  ipc::InMemoryStatusStore store;
  store.put_sys(sys_record("alpha", 0.9, 500));

  WizardConfig config;
  Wizard wizard(config, store);
  ASSERT_TRUE(wizard.valid());

  // The histogram is process-wide (shared by name across wizards), so the
  // test reads the count delta.
  obs::Histogram* latency =
      obs::MetricsRegistry::instance().histogram("wizard_query_latency_us");
  std::uint64_t before = latency->count();
  for (std::uint32_t seq = 1; seq <= 10; ++seq) {
    wizard.handle(make_request("host_cpu_free > 0.5\n", seq));
  }
  EXPECT_EQ(latency->count() - before, 10u);
  EXPECT_GT(latency->percentile(99), 0.0);
  EXPECT_GE(latency->percentile(99), latency->percentile(50));
}

// --- latency recorder ----------------------------------------------------------

TEST(LatencyRecorder, PercentilesTrackSamples) {
  util::LatencyRecorder recorder;
  for (int i = 0; i < 99; ++i) recorder.record_us(10.0);
  recorder.record_us(10000.0);

  EXPECT_EQ(recorder.count(), 100u);
  // p50 lands in the 10 µs bucket (±bucket width), p99+ sees the outlier.
  EXPECT_NEAR(recorder.percentile(50), 10.0, 2.0);
  EXPECT_GT(recorder.percentile(99.5), 1000.0);
  EXPECT_NEAR(recorder.mean_us(), 109.9, 1.0);

  recorder.reset();
  EXPECT_EQ(recorder.count(), 0u);
  EXPECT_EQ(recorder.percentile(50), 0.0);
}

}  // namespace
}  // namespace smartsock::core
