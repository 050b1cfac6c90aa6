// Wizard replica set (ISSUE 8): cluster config parsing, health-scored
// replica selection, the shared retry budget across a replica set, hard
// failure fast-demotion, monotone snapshot-version pinning, and the chaos
// acceptance run — 3 replicas, a query storm, the primary killed mid-storm,
// zero failed queries.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>

#include "core/smart_client.h"
#include "core/wizard_cluster.h"
#include "harness/cluster_harness.h"
#include "net/fault.h"
#include "net/udp_socket.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "sim/virtual_clock.h"

namespace smartsock {
namespace {

using namespace std::chrono_literals;

std::uint64_t global_counter(const std::string& name) {
  for (const auto& [key, value] : obs::MetricsRegistry::instance().snapshot().counters) {
    if (key == name) return value;
  }
  return 0;
}

double global_gauge(const std::string& name) {
  for (const auto& [key, value] : obs::MetricsRegistry::instance().snapshot().gauges) {
    if (key == name) return value;
  }
  return -1.0;
}

// --- WizardClusterConfig ------------------------------------------------------

TEST(WizardCluster, ParsesOrderedListAndRoundTrips) {
  auto config = core::WizardClusterConfig::parse(
      "127.0.0.1:9001, 127.0.0.1:9002 ;127.0.0.1:9003,");
  ASSERT_TRUE(config.has_value());
  ASSERT_EQ(config->size(), 3u);
  EXPECT_EQ(config->wizards[0].to_string(), "127.0.0.1:9001");
  EXPECT_EQ(config->wizards[1].to_string(), "127.0.0.1:9002");
  EXPECT_EQ(config->wizards[2].to_string(), "127.0.0.1:9003");
  EXPECT_EQ(config->to_string(), "127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003");
  auto reparsed = core::WizardClusterConfig::parse(config->to_string());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->wizards, config->wizards);
}

TEST(WizardCluster, RejectsMalformedEmptyAndDuplicates) {
  EXPECT_FALSE(core::WizardClusterConfig::parse("").has_value());
  EXPECT_FALSE(core::WizardClusterConfig::parse(",,").has_value());
  EXPECT_FALSE(core::WizardClusterConfig::parse("not-an-endpoint").has_value());
  EXPECT_FALSE(core::WizardClusterConfig::parse("127.0.0.1:9001,nope").has_value());
  // Listing one replica twice would silently halve the real redundancy.
  EXPECT_FALSE(
      core::WizardClusterConfig::parse("127.0.0.1:9001,127.0.0.1:9001").has_value());
}

TEST(WizardCluster, FromEnvReadsSmartsockWizards) {
  ::setenv(core::kWizardsEnv, "127.0.0.1:9001,127.0.0.1:9002", 1);
  core::WizardClusterConfig from_env = core::WizardClusterConfig::from_env();
  ASSERT_EQ(from_env.size(), 2u);
  EXPECT_EQ(from_env.wizards[1].to_string(), "127.0.0.1:9002");

  ::setenv(core::kWizardsEnv, "garbage", 1);
  EXPECT_TRUE(core::WizardClusterConfig::from_env().empty());

  ::unsetenv(core::kWizardsEnv);
  EXPECT_TRUE(core::WizardClusterConfig::from_env().empty());
}

// --- ReplicaSelector ----------------------------------------------------------

std::vector<net::Endpoint> endpoints(std::size_t n) {
  std::vector<net::Endpoint> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(*net::Endpoint::parse("127.0.0.1:" + std::to_string(9001 + i)));
  }
  return out;
}

TEST(ReplicaSelector, HealthyClusterSticksToFirstReplica) {
  sim::VirtualClock clock;
  core::ReplicaSelector selector(endpoints(3), {}, clock);
  EXPECT_EQ(selector.select(), 0u);
  // A measured (nonzero) latency must not make the primary look worse than
  // the untried secondaries' prior.
  selector.record_success(0, 250.0);
  EXPECT_EQ(selector.select(), 0u);
  selector.record_success(0, 400.0);
  EXPECT_EQ(selector.select(), 0u);
}

// A loaded primary can measure far above the untried prior; its success
// must still outrank replicas that were never tried, or a failover to a
// lagging secondary happens without the primary failing at all.
TEST(ReplicaSelector, SlowWorkingReplicaOutranksUntriedOnes) {
  sim::VirtualClock clock;
  core::ReplicaSelector selector(endpoints(3), {}, clock);
  selector.record_success(0, 2000.0);
  EXPECT_EQ(selector.select(), 0u);
  // Same when the working replica is not first in the list: replica 0
  // failed, replica 1 answered slowly, replica 2 is untried.
  core::ReplicaSelector demoted(endpoints(3), {}, clock);
  demoted.record_failure(0, /*hard=*/false);
  demoted.record_success(1, 2000.0);
  EXPECT_EQ(demoted.select(), 1u);
}

TEST(ReplicaSelector, FailureDemotesAndSuccessRestores) {
  sim::VirtualClock clock;
  core::ReplicaSelector selector(endpoints(3), {}, clock);
  selector.record_success(0, 200.0);
  selector.record_failure(0, /*hard=*/true);
  // One failure outweighs any plausible latency gap.
  EXPECT_EQ(selector.select(), 1u);
  auto health = selector.health();
  EXPECT_EQ(health[0].consecutive_failures, 1);
  EXPECT_EQ(health[0].hard_failures, 1u);
  EXPECT_EQ(health[0].failures, 1u);
  // Recovery: a success clears the failure streak and the primary wins again.
  selector.record_success(0, 200.0);
  EXPECT_EQ(selector.select(), 0u);
}

TEST(ReplicaSelector, BreakerRemovesReplicaUntilCooldownProbe) {
  sim::VirtualClock clock;
  core::ReplicaSelectorConfig config;
  config.breaker.failures_to_open = 2;
  config.breaker.cooldown = 100ms;
  core::ReplicaSelector selector(endpoints(2), config, clock);
  selector.record_failure(0, true);
  selector.record_failure(0, true);
  EXPECT_EQ(selector.health()[0].breaker, util::CircuitBreaker::State::kOpen);
  // The open primary is out of the rotation.
  EXPECT_EQ(selector.select(), 1u);
  // The secondary dies too: every breaker refuses, so select() returns the
  // best-scored candidate anyway — probing a dead set beats giving up.
  // Scores tie (same failures, both open), so list order wins.
  selector.record_failure(1, true);
  selector.record_failure(1, true);
  EXPECT_EQ(selector.health()[1].breaker, util::CircuitBreaker::State::kOpen);
  EXPECT_EQ(selector.select(), 0u);
  // After the cooldown, select() grants the primary the single half-open
  // probe; a success there closes its breaker for good.
  clock.advance(150ms);
  EXPECT_EQ(selector.select(), 0u);
  selector.record_success(0, 100.0);
  EXPECT_EQ(selector.health()[0].breaker, util::CircuitBreaker::State::kClosed);
  EXPECT_EQ(selector.select(), 0u);
}

TEST(ReplicaSelector, PublishesPerEndpointHealthGauges) {
  sim::VirtualClock clock;
  core::ReplicaSelectorConfig config;
  config.breaker.failures_to_open = 2;
  core::ReplicaSelector selector(endpoints(3), config, clock);
  selector.record_success(0, 100.0);
  selector.record_failure(1, false);
  selector.record_failure(2, true);
  selector.record_failure(2, true);  // trips the breaker
  selector.publish_health();

  EXPECT_EQ(global_gauge("client_replica_health{endpoint=\"127.0.0.1:9001\"}"), 1.0);
  EXPECT_EQ(global_gauge("client_replica_health{endpoint=\"127.0.0.1:9002\"}"), 0.5);
  EXPECT_EQ(global_gauge("client_replica_health{endpoint=\"127.0.0.1:9003\"}"), 0.0);
}

// --- shared retry budget across the replica set -------------------------------

// All replicas hard-refuse (fault-injected ECONNREFUSED, the deterministic
// stand-in for ICMP port-unreachable): the query burns its one free
// fast-failover pass per replica, then the normal shared attempt budget —
// backoff sleeping on the virtual clock, no wall-clock waits — and reports
// the *last* error at exhaustion.
TEST(ClusterRetryBudget, SharedAcrossReplicasAndExhaustionReturnsLastError) {
  sim::VirtualClock clock;
  net::FaultInjector injector(net::FaultConfig{});
  core::SmartClientConfig config;
  config.cluster = *core::WizardClusterConfig::parse(
      "127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003");
  for (const net::Endpoint& endpoint : config.cluster.wizards) {
    injector.set_udp_refuse_endpoint(endpoint.to_string(), true);
  }
  net::ScopedGlobalFaults faults(injector);
  config.clock = &clock;
  config.seed = 7;
  config.retries = 3;  // 4 budgeted attempts, shared across all three replicas
  config.retry.initial_backoff = 50ms;

  core::SmartClient client(config);
  ASSERT_TRUE(client.valid());
  auto real_start = std::chrono::steady_clock::now();
  core::WizardReply reply = client.query("host_cpu_free > 0.1", 2);
  double real_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - real_start)
                       .count();

  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("cannot send request to wizard"), std::string::npos)
      << reply.error;
  // 3 hard free passes + 4 budgeted attempts = exactly 7 sends, every one
  // refused. The budget did not refill on failover.
  EXPECT_EQ(injector.stats().udp_refused_send, 7u);
  // The free passes walked the whole replica set.
  EXPECT_GE(client.failovers(), 2u);
  // Backoff slept on the injected virtual clock, not the wall clock.
  EXPECT_GT(clock.now(), util::Duration::zero());
  EXPECT_LT(real_ms, 2000.0);
}

TEST(ClusterRetryBudget, WallClockBudgetCapsAttemptsAcrossReplicas) {
  sim::VirtualClock clock;
  net::FaultInjector injector(net::FaultConfig{});
  core::SmartClientConfig config;
  config.cluster =
      *core::WizardClusterConfig::parse("127.0.0.1:9001,127.0.0.1:9002");
  for (const net::Endpoint& endpoint : config.cluster.wizards) {
    injector.set_udp_refuse_endpoint(endpoint.to_string(), true);
  }
  net::ScopedGlobalFaults faults(injector);
  config.clock = &clock;
  config.seed = 11;
  config.retries = 100;           // attempts alone would allow 101 sends
  config.retry.initial_backoff = 50ms;
  config.retry.budget = 200ms;    // but the shared wall budget stops early

  core::SmartClient client(config);
  core::WizardReply reply = client.query("host_cpu_free > 0.1", 2);
  EXPECT_FALSE(reply.ok);
  // 2 free passes + the few attempts 200ms of exponential backoff admits —
  // nowhere near the 101 the attempt count alone would allow.
  EXPECT_LE(injector.stats().udp_refused_send, 10u);
  EXPECT_GE(injector.stats().udp_refused_send, 3u);
}

// --- hard-failure fast demotion -----------------------------------------------

// A dead primary that refuses outright costs a failover, not a reply
// timeout: the query lands on the healthy replica on the spot.
TEST(ClusterFailover, HardRefuseSkipsToNextReplicaWithoutBackoff) {
  harness::HarnessOptions options;
  options.hosts = {*sim::find_paper_host("dalmatian"), *sim::find_paper_host("telesto"),
                   *sim::find_paper_host("sagit")};
  options.wizard_replicas = 2;
  harness::ClusterHarness cluster(options);
  ASSERT_TRUE(cluster.start());
  ASSERT_TRUE(cluster.wait_for_all_reports(5s));

  net::FaultInjector injector(net::FaultConfig{});
  injector.set_udp_refuse_endpoint(cluster.wizard_endpoint(0).to_string(), true);
  net::ScopedGlobalFaults faults(injector);

  core::SmartClientConfig config;
  config.wizard = cluster.wizard_endpoint(0);
  config.cluster = cluster.wizard_cluster();
  config.seed = 23;
  config.reply_timeout = 800ms;
  core::SmartClient client(config);

  auto started = std::chrono::steady_clock::now();
  core::WizardReply reply = client.query("host_cpu_free > 0.1", 2);
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - started)
                          .count();
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_GE(client.failovers(), 1u);
  // The refused primary was skipped immediately: no 800ms reply timeout and
  // no backoff step were burned on it.
  EXPECT_LT(elapsed_ms, 700.0);
  auto health = client.selector().health();
  EXPECT_GE(health[0].hard_failures, 1u);
  EXPECT_GE(health[1].successes, 1u);
  cluster.stop();
}

// --- monotone version pinning -------------------------------------------------

TEST(ClusterVersions, RepliesCarryMonotoneVersionsAcrossQueries) {
  harness::HarnessOptions options;
  options.hosts = {*sim::find_paper_host("dalmatian"), *sim::find_paper_host("telesto"),
                   *sim::find_paper_host("sagit")};
  options.wizard_replicas = 3;
  harness::ClusterHarness cluster(options);
  ASSERT_TRUE(cluster.start());
  ASSERT_TRUE(cluster.wait_for_all_reports(5s));

  core::SmartClient client = cluster.make_client(29);
  core::WizardReply first = client.query("host_cpu_free > 0.1", 2);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_GT(first.version, 0u);
  ASSERT_TRUE(cluster.refresh_now());
  core::WizardReply second = client.query("host_cpu_free > 0.1", 2);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_GE(second.version, first.version);
  EXPECT_GE(client.last_seen_version(), first.version);
  cluster.stop();
}

/// Minimal scripted wizard replica: answers every request from a fixed
/// snapshot version, so tests stage version skew between replicas without
/// a full monitoring pipeline behind each one.
class StubWizard {
 public:
  explicit StubWizard(std::uint64_t version) : version_(version) {
    auto socket = net::UdpSocket::bind(net::Endpoint::loopback(0));
    EXPECT_TRUE(socket.has_value());
    socket_ = std::move(*socket);
    thread_ = std::thread([this] { serve(); });
  }
  ~StubWizard() { stop(); }

  net::Endpoint endpoint() const { return socket_.local_endpoint(); }

  /// Stops answering (the socket stays bound; pair with a fault-injector
  /// refuse entry for an immediate-failure kill).
  void stop() {
    bool expected = false;
    if (!stopped_.compare_exchange_strong(expected, true)) return;
    if (thread_.joinable()) thread_.join();
  }

 private:
  void serve() {
    while (!stopped_.load(std::memory_order_acquire)) {
      auto datagram = socket_.receive(50ms);
      if (!datagram) continue;
      auto request = core::UserRequest::from_wire(datagram->payload);
      if (!request) continue;
      core::WizardReply reply;
      reply.sequence = request->sequence;
      reply.ok = true;
      reply.version = version_;
      reply.servers.push_back(core::ServerEntry{"stub", "127.0.0.1:1"});
      socket_.send_to(reply.to_wire(), datagram->peer);
    }
  }

  std::uint64_t version_;
  net::UdpSocket socket_;
  std::thread thread_;
  std::atomic<bool> stopped_{false};
};

// After the fresh primary dies, only a lagging replica remains. Failover
// must not silently rewind time: best-effort clients get the lagging answer
// flagged through the stale-token path, strict clients get a failure — and
// the pinned version never moves backwards for either.
TEST(ClusterVersions, LaggingReplicaServedAsStaleNeverRewindsPin) {
  StubWizard fresh(/*version=*/50);
  StubWizard lagging(/*version=*/30);

  core::SmartClientConfig config;
  config.cluster.wizards = {fresh.endpoint(), lagging.endpoint()};
  config.seed = 31;
  config.reply_timeout = 300ms;
  config.retries = 2;
  config.retry.initial_backoff = 10ms;
  core::SmartClient client(config);

  core::SmartClientConfig strict_config = config;
  strict_config.freshness = core::FreshnessMode::kStrictFresh;
  strict_config.seed = 37;
  core::SmartClient strict(strict_config);

  // Both clients pin v50 while the fresh primary is alive.
  core::WizardReply first = client.query("x > 0", 1);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.version, 50u);
  EXPECT_FALSE(first.stale);
  EXPECT_EQ(client.last_seen_version(), 50u);
  core::WizardReply strict_first = strict.query("x > 0", 1);
  ASSERT_TRUE(strict_first.ok) << strict_first.error;
  EXPECT_EQ(strict.last_seen_version(), 50u);

  // Kill the fresh primary: stop answering and refuse its endpoint so each
  // failover is an immediate hard error rather than a reply timeout.
  fresh.stop();
  net::FaultInjector injector(net::FaultConfig{});
  injector.set_udp_refuse_endpoint(fresh.endpoint().to_string(), true);
  net::ScopedGlobalFaults faults(injector);

  core::WizardReply second = client.query("x > 0", 1);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.stale);  // the lagging answer is flagged, not hidden
  EXPECT_EQ(second.version, 30u);
  EXPECT_EQ(client.last_seen_version(), 50u);  // the pin never rewound
  EXPECT_GE(client.failovers(), 1u);

  // Strict-freshness clients refuse to go back in time at all.
  core::WizardReply strict_second = strict.query("x > 0", 1);
  EXPECT_FALSE(strict_second.ok);
  EXPECT_NE(strict_second.error.find("lags pinned version 50"), std::string::npos)
      << strict_second.error;
  EXPECT_EQ(strict.last_seen_version(), 50u);

  lagging.stop();
}

// --- replica-set health rule --------------------------------------------------

TEST(ClusterHealth, TransmitterReplicaGaugesDriveHealthRule) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  obs::HealthEngine engine(registry);

  auto transport_level = [&]() {
    obs::HealthReport report = engine.evaluate();
    for (const auto& subsystem : report.subsystems) {
      if (subsystem.name == "transport") return subsystem.level;
    }
    return obs::HealthLevel::kOk;
  };

  registry.gauge("transmitter_replicas_configured")->set(3);
  registry.gauge("transmitter_replicas_healthy")->set(3);
  EXPECT_EQ(transport_level(), obs::HealthLevel::kOk);

  registry.gauge("transmitter_replicas_healthy")->set(2);
  EXPECT_EQ(transport_level(), obs::HealthLevel::kDegraded);

  registry.gauge("transmitter_replicas_healthy")->set(0);
  EXPECT_EQ(transport_level(), obs::HealthLevel::kCritical);
}

// --- chaos acceptance ---------------------------------------------------------

// The tentpole's acceptance run: 3 wizard replicas under the cluster
// harness, a query storm, the primary killed abruptly mid-storm. Zero
// failed queries, monotone snapshot versions, failovers observed, and the
// replica slots left intact for the transmitter to keep probing.
TEST(ClusterChaos, KillPrimaryMidStormZeroFailedQueries) {
  harness::HarnessOptions options;
  options.hosts = {*sim::find_paper_host("dalmatian"), *sim::find_paper_host("telesto"),
                   *sim::find_paper_host("sagit")};
  options.wizard_replicas = 3;
  harness::ClusterHarness cluster(options);
  ASSERT_TRUE(cluster.start());
  ASSERT_TRUE(cluster.wait_for_all_reports(5s));

  const std::uint64_t failovers_before = global_counter("client_wizard_failovers_total");

  core::SmartClientConfig config;
  config.wizard = cluster.wizard_endpoint(0);
  config.cluster = cluster.wizard_cluster();
  config.seed = 41;
  config.reply_timeout = 400ms;
  config.retries = 3;
  config.retry.initial_backoff = 20ms;
  core::SmartClient client(config);

  constexpr int kQueries = 30;
  constexpr int kKillAt = 8;
  std::uint64_t last_fresh_version = 0;
  std::size_t killed = 0;
  int failed = 0;
  for (int i = 0; i < kQueries; ++i) {
    if (i == kKillAt) {
      // Kill the replica the client is actually using (the selector may
      // have settled on a secondary if the first cold query was slow);
      // killing an idle replica would exercise nothing.
      killed = client.selector().select();
      ASSERT_TRUE(cluster.kill_wizard_replica(killed));
    }
    core::WizardReply reply = client.query("host_cpu_free > 0.1", 2);
    if (!reply.ok) {
      ++failed;
      ADD_FAILURE() << "query " << i << " failed: " << reply.error;
      continue;
    }
    // Monotone versions: an un-flagged answer never rewinds the snapshot.
    // (A stale-flagged answer from a lagging survivor may be older — that
    // is exactly the flag's contract.)
    if (!reply.stale) {
      EXPECT_GE(reply.version, last_fresh_version) << "query " << i;
      last_fresh_version = std::max(last_fresh_version, reply.version);
    }
  }
  EXPECT_EQ(failed, 0);
  EXPECT_GE(client.failovers(), 1u);
  EXPECT_GT(global_counter("client_wizard_failovers_total"), failovers_before);

  // The kill left the slot (and its endpoint) behind, daemons torn down.
  EXPECT_EQ(cluster.wizard_replica_count(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.wizard_replica_alive(i), i != killed) << "replica " << i;
  }
  // Survivors keep taking pushes.
  EXPECT_TRUE(cluster.refresh_now(5s));
  cluster.stop();
}

}  // namespace
}  // namespace smartsock
