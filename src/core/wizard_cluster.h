// Wizard replica set — cluster configuration and client-side replica
// selection (ISSUE 8 tentpole).
//
// The thesis runs one wizard per cluster; a wizard crash takes the whole
// lookup service down with it. This module is the client half of the
// replica-set story: a shared, ordered list of wizard endpoints
// (WizardClusterConfig — parsed from `--wizards a:p,b:p,...` or the
// SMARTSOCK_WIZARDS environment variable) and a health-scored selector
// (ReplicaSelector) that SmartClient consults before every send. The
// transmitter side (fanning the delta replication protocol out to every
// replica's receiver) lives in transport/transmitter.{h,cpp}.
//
// Selection is deterministic: each replica carries an EWMA of observed
// reply latency, a consecutive-failure count, and a circuit breaker; the
// replica with the lowest score wins, ties going to list order so a
// healthy cluster always answers from the preferred (first) endpoint.
// Hard failures (ECONNREFUSED and friends, surfaced through
// net::is_hard_peer_error) are counted separately so callers can skip the
// backoff step entirely and fail over on the spot.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/endpoint.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/retry.h"

namespace smartsock::core {

/// Environment variable holding the default replica list, same syntax as
/// the --wizards flag: "host:port,host:port,...".
inline constexpr const char* kWizardsEnv = "SMARTSOCK_WIZARDS";

/// Ordered wizard replica list, shared by the tools and SmartClient. The
/// order is a preference: clients stick to the first endpoint while it is
/// healthy and walk down the list on failure.
struct WizardClusterConfig {
  std::vector<net::Endpoint> wizards;

  bool empty() const { return wizards.empty(); }
  std::size_t size() const { return wizards.size(); }

  /// Parses "host:port,host:port,...". Commas and semicolons both separate
  /// entries and surrounding whitespace is ignored; empty entries are
  /// skipped so a trailing comma is harmless. Returns nullopt when the
  /// spec contains no parseable endpoint or any non-empty entry is
  /// malformed. Duplicate endpoints are rejected — a typo that lists the
  /// same replica twice would silently halve the real redundancy.
  static std::optional<WizardClusterConfig> parse(std::string_view spec);

  /// Reads SMARTSOCK_WIZARDS. Unset or unparseable yields an empty config
  /// (callers fall back to their single --wizard endpoint).
  static WizardClusterConfig from_env();

  /// Round-trips through parse(): "host:port,host:port".
  std::string to_string() const;
};

/// Tunables for ReplicaSelector's health score. The score is in latency
/// microseconds so the knobs compose naturally: one consecutive failure
/// outweighs any plausible LAN latency gap, an open breaker outweighs
/// everything.
struct ReplicaSelectorConfig {
  /// Weight of the newest latency sample in the EWMA.
  double ewma_alpha = 0.3;
  /// Prior for a replica with no latency sample yet, small enough that the
  /// first failure on the primary promotes an untried secondary. An untried
  /// secondary never looks faster than a working primary: the prior is
  /// raised to the EWMA of any replica whose last attempt succeeded.
  double untried_latency_us = 500.0;
  /// Added per consecutive failure.
  double failure_penalty_us = 10'000.0;
  /// Added while the replica's breaker is half-open / open.
  double half_open_penalty_us = 1e6;
  double open_penalty_us = 1e9;
  /// Per-replica breaker; trips a persistently dead replica out of the
  /// rotation instead of re-probing it every query.
  util::CircuitBreakerConfig breaker{};
};

/// Health-scored endpoint selection over a fixed replica list. Thread-safe;
/// one instance lives inside each SmartClient for the lifetime of the
/// client so scores persist across queries.
class ReplicaSelector {
 public:
  /// Snapshot of one replica's bookkeeping, for tests and debugging.
  struct Health {
    net::Endpoint endpoint;
    double ewma_latency_us = 0.0;
    bool has_latency = false;
    int consecutive_failures = 0;
    util::CircuitBreaker::State breaker = util::CircuitBreaker::State::kClosed;
    std::uint64_t successes = 0;
    std::uint64_t failures = 0;
    std::uint64_t hard_failures = 0;
    double score = 0.0;
  };

  explicit ReplicaSelector(std::vector<net::Endpoint> endpoints,
                           ReplicaSelectorConfig config = {},
                           util::Clock& clock = util::SteadyClock::instance());

  std::size_t size() const { return endpoints_.size(); }
  const net::Endpoint& endpoint(std::size_t index) const { return endpoints_[index]; }

  /// The replica to try now: the admissible candidate with the lowest
  /// score, ties to list order. A breaker in cooldown refuses admission;
  /// when every breaker refuses, the best-scored replica is returned
  /// anyway — probing a dead set beats failing without trying.
  std::size_t select();

  /// `latency_us` is the observed request→reply time; feeds the EWMA.
  void record_success(std::size_t index, double latency_us);
  /// `hard` marks a proven-unreachable peer (net::is_hard_peer_error) as
  /// opposed to a timeout; tracked separately and weighted identically.
  void record_failure(std::size_t index, bool hard);

  std::vector<Health> health() const;

  /// Publishes one `client_replica_health{endpoint="host:port"}` gauge per
  /// replica: 1 healthy, 0.5 suspect (failures recorded but breaker still
  /// admitting), 0 breaker open. Called by SmartClient after every
  /// outcome so the stats formats always show the current view.
  void publish_health(obs::MetricsRegistry& registry = obs::MetricsRegistry::instance());

 private:
  // CircuitBreaker owns a mutex, so replicas live behind unique_ptr.
  struct Replica {
    explicit Replica(const util::CircuitBreakerConfig& breaker_config, util::Clock& clock)
        : breaker(breaker_config, clock) {}
    util::CircuitBreaker breaker;
    double ewma_latency_us = 0.0;
    bool has_latency = false;
    int consecutive_failures = 0;
    std::uint64_t successes = 0;
    std::uint64_t failures = 0;
    std::uint64_t hard_failures = 0;
  };

  double untried_prior_locked() const;
  double score_locked(const Replica& replica, double untried_prior) const;

  ReplicaSelectorConfig config_;
  std::vector<net::Endpoint> endpoints_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<obs::Gauge*> health_gauges_;  // lazily bound in publish_health
};

}  // namespace smartsock::core
