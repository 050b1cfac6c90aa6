#include "core/wizard_cluster.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "util/strings.h"

namespace smartsock::core {

std::optional<WizardClusterConfig> WizardClusterConfig::parse(std::string_view spec) {
  WizardClusterConfig config;
  std::string normalized(spec);
  std::replace(normalized.begin(), normalized.end(), ';', ',');
  for (std::string_view entry : util::split(normalized, ',')) {
    std::string_view trimmed = util::trim(entry);
    if (trimmed.empty()) continue;
    auto endpoint = net::Endpoint::parse(std::string(trimmed));
    if (!endpoint) return std::nullopt;
    for (const net::Endpoint& existing : config.wizards) {
      if (existing == *endpoint) return std::nullopt;  // duplicate replica
    }
    config.wizards.push_back(*endpoint);
  }
  if (config.wizards.empty()) return std::nullopt;
  return config;
}

WizardClusterConfig WizardClusterConfig::from_env() {
  const char* value = std::getenv(kWizardsEnv);
  if (value == nullptr || *value == '\0') return {};
  auto parsed = parse(value);
  return parsed ? *parsed : WizardClusterConfig{};
}

std::string WizardClusterConfig::to_string() const {
  std::string out;
  for (const net::Endpoint& endpoint : wizards) {
    if (!out.empty()) out += ',';
    out += endpoint.to_string();
  }
  return out;
}

ReplicaSelector::ReplicaSelector(std::vector<net::Endpoint> endpoints,
                                 ReplicaSelectorConfig config, util::Clock& clock)
    : config_(config), endpoints_(std::move(endpoints)) {
  replicas_.reserve(endpoints_.size());
  health_gauges_.resize(endpoints_.size(), nullptr);
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    replicas_.push_back(std::make_unique<Replica>(config_.breaker, clock));
  }
}

double ReplicaSelector::untried_prior_locked() const {
  // A loaded primary can measure well above the static prior, so the prior
  // rises to the slowest replica whose last attempt succeeded; select()
  // breaks the resulting tie toward the tried replica.
  double prior = config_.untried_latency_us;
  for (const auto& replica : replicas_) {
    if (replica->has_latency && replica->consecutive_failures == 0) {
      prior = std::max(prior, replica->ewma_latency_us);
    }
  }
  return prior;
}

double ReplicaSelector::score_locked(const Replica& replica, double untried_prior) const {
  double latency = replica.has_latency ? replica.ewma_latency_us : untried_prior;
  double score = latency + replica.consecutive_failures * config_.failure_penalty_us;
  switch (replica.breaker.state()) {
    case util::CircuitBreaker::State::kOpen:
      score += config_.open_penalty_us;
      break;
    case util::CircuitBreaker::State::kHalfOpen:
      score += config_.half_open_penalty_us;
      break;
    case util::CircuitBreaker::State::kClosed:
      break;
  }
  return score;
}

std::size_t ReplicaSelector::select() {
  std::lock_guard<std::mutex> lock(mu_);
  double prior = untried_prior_locked();
  std::vector<double> scores(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    scores[i] = score_locked(*replicas_[i], prior);
  }
  std::vector<std::size_t> order(replicas_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Equal scores go to a replica with a latency sample, so an untried one
  // never outranks a working one; stable_sort keeps list order among the
  // rest, so a healthy cluster answers from the preferred (first) endpoint.
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (scores[a] != scores[b]) return scores[a] < scores[b];
    return replicas_[a]->has_latency && !replicas_[b]->has_latency;
  });
  for (std::size_t index : order) {
    // allow() also grants the single half-open probe after a breaker's
    // cooldown, so a tripped replica gets re-tried exactly once per window.
    if (replicas_[index]->breaker.allow()) return index;
  }
  return order.front();
}

void ReplicaSelector::record_success(std::size_t index, double latency_us) {
  if (index >= replicas_.size()) return;
  std::lock_guard<std::mutex> lock(mu_);
  Replica& replica = *replicas_[index];
  replica.ewma_latency_us =
      replica.has_latency
          ? (1.0 - config_.ewma_alpha) * replica.ewma_latency_us +
                config_.ewma_alpha * latency_us
          : latency_us;
  replica.has_latency = true;
  replica.consecutive_failures = 0;
  ++replica.successes;
  replica.breaker.record_success();
}

void ReplicaSelector::record_failure(std::size_t index, bool hard) {
  if (index >= replicas_.size()) return;
  std::lock_guard<std::mutex> lock(mu_);
  Replica& replica = *replicas_[index];
  ++replica.consecutive_failures;
  ++replica.failures;
  if (hard) ++replica.hard_failures;
  replica.breaker.record_failure();
}

std::vector<ReplicaSelector::Health> ReplicaSelector::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  double prior = untried_prior_locked();
  std::vector<Health> out;
  out.reserve(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const Replica& replica = *replicas_[i];
    Health entry;
    entry.endpoint = endpoints_[i];
    entry.ewma_latency_us = replica.ewma_latency_us;
    entry.has_latency = replica.has_latency;
    entry.consecutive_failures = replica.consecutive_failures;
    entry.breaker = replica.breaker.state();
    entry.successes = replica.successes;
    entry.failures = replica.failures;
    entry.hard_failures = replica.hard_failures;
    entry.score = score_locked(replica, prior);
    out.push_back(entry);
  }
  return out;
}

void ReplicaSelector::publish_health(obs::MetricsRegistry& registry) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (health_gauges_[i] == nullptr) {
      health_gauges_[i] = registry.gauge("client_replica_health{endpoint=\"" +
                                         endpoints_[i].to_string() + "\"}");
    }
    const Replica& replica = *replicas_[i];
    double value = 1.0;
    if (replica.breaker.state() == util::CircuitBreaker::State::kOpen) {
      value = 0.0;
    } else if (replica.consecutive_failures > 0 ||
               replica.breaker.state() == util::CircuitBreaker::State::kHalfOpen) {
      value = 0.5;
    }
    health_gauges_[i]->set(value);
  }
}

}  // namespace smartsock::core
