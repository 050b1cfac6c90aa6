#include "obs/health.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

namespace smartsock::obs {

namespace {

std::uint64_t wall_now_us() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::system_clock::now().time_since_epoch())
                                        .count());
}

std::string fmt_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  return buffer;
}

HealthLevel worse(HealthLevel a, HealthLevel b) { return a > b ? a : b; }

}  // namespace

const char* to_string(HealthLevel level) {
  switch (level) {
    case HealthLevel::kOk: return "ok";
    case HealthLevel::kDegraded: return "degraded";
    case HealthLevel::kCritical: return "critical";
  }
  return "unknown";
}

const std::uint64_t* HealthEngine::find_counter(const Snapshot& snap,
                                                std::string_view name) {
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return &value;
  }
  return nullptr;
}

const double* HealthEngine::find_gauge(const Snapshot& snap, std::string_view name) {
  for (const auto& [key, value] : snap.gauges) {
    if (key == name) return &value;
  }
  return nullptr;
}

const HistogramStats* HealthEngine::find_histogram(const Snapshot& snap,
                                                   std::string_view name) {
  for (const HistogramStats& stats : snap.histograms) {
    if (stats.name == name) return &stats;
  }
  return nullptr;
}

HealthEngine::HealthEngine(MetricsRegistry& registry, HealthThresholds thresholds)
    : registry_(&registry), thresholds_(thresholds) {
  install_default_checks();
}

void HealthEngine::add_check(std::string subsystem, std::string name, CheckFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  checks_.push_back(Check{std::move(subsystem), std::move(name), std::move(fn)});
}

std::uint64_t HealthEngine::counter_delta(const Snapshot& snap, const std::string& name) {
  // Called from check lambdas inside evaluate(), which already holds mu_.
  const std::uint64_t* value = find_counter(snap, name);
  if (value == nullptr) return 0;
  auto it = last_counters_.find(name);
  std::uint64_t previous = it == last_counters_.end() ? *value : it->second;
  last_counters_[name] = *value;
  return *value >= previous ? *value - previous : 0;
}

void HealthEngine::install_default_checks() {
  HealthThresholds t = thresholds_;

  add_check("wizard", "stale-feed", [](const Snapshot& snap) -> Finding {
    const double* degraded = find_gauge(snap, "wizard_degraded");
    if (degraded == nullptr) return Finding{HealthLevel::kOk, "", false};
    if (*degraded >= 1.0) {
      return Finding{HealthLevel::kDegraded,
                     "answering from stale status data (wizard_degraded=1)"};
    }
    return Finding{};
  });

  add_check("wizard", "reply-latency", [t](const Snapshot& snap) -> Finding {
    const HistogramStats* latency = find_histogram(snap, "wizard_query_latency_us");
    if (latency == nullptr || latency->count == 0) return Finding{HealthLevel::kOk, "", false};
    if (latency->p99_us > t.latency_p99_critical_us) {
      return Finding{HealthLevel::kCritical, "query latency p99 " +
                                                 fmt_double(latency->p99_us) + "us over " +
                                                 fmt_double(t.latency_p99_critical_us) + "us"};
    }
    if (latency->p99_us > t.latency_p99_degraded_us) {
      return Finding{HealthLevel::kDegraded, "query latency p99 " +
                                                 fmt_double(latency->p99_us) + "us over " +
                                                 fmt_double(t.latency_p99_degraded_us) + "us"};
    }
    return Finding{};
  });

  add_check("transport", "push-breaker", [](const Snapshot& snap) -> Finding {
    const double* state = find_gauge(snap, "transmitter_breaker_state");
    if (state == nullptr) return Finding{HealthLevel::kOk, "", false};
    // util::CircuitBreaker::State: 0 closed, 1 open, 2 half-open.
    if (*state == 1.0) {
      return Finding{HealthLevel::kCritical, "push circuit breaker open — receiver down"};
    }
    if (*state == 2.0) {
      return Finding{HealthLevel::kDegraded, "push circuit breaker half-open (probing)"};
    }
    return Finding{};
  });

  add_check("transport", "replica-set", [](const Snapshot& snap) -> Finding {
    // Replica-set degradation (ISSUE 8): every wizard replica the
    // transmitter cannot reach is a replica answering queries from an
    // ageing snapshot. All replicas down = the whole feed is dark.
    const double* configured = find_gauge(snap, "transmitter_replicas_configured");
    const double* healthy = find_gauge(snap, "transmitter_replicas_healthy");
    if (configured == nullptr || healthy == nullptr || *configured <= 1.0) {
      // Single-receiver deployments are covered by the push-breaker check.
      return Finding{HealthLevel::kOk, "", false};
    }
    if (*healthy <= 0.0) {
      return Finding{HealthLevel::kCritical,
                     "no wizard replica reachable (0 of " + fmt_double(*configured) +
                         " receivers taking pushes)"};
    }
    if (*healthy < *configured) {
      return Finding{HealthLevel::kDegraded,
                     fmt_double(*healthy) + " of " + fmt_double(*configured) +
                         " wizard replicas taking pushes"};
    }
    return Finding{};
  });

  add_check("ingest", "rcvbuf-overflow", [this](const Snapshot& snap) -> Finding {
    // Kernel-level UDP loss: the monitor publishes its ingest socket's
    // SO_RXQ_OVFL drop counter as udp_rcvbuf_dropped_total. Any growth
    // between checks means the receive queue is currently overflowing —
    // reports are being lost before user space ever sees them. Remedy: a
    // bigger --rcvbuf.
    if (find_counter(snap, "udp_rcvbuf_dropped_total") == nullptr) {
      return Finding{HealthLevel::kOk, "", false};
    }
    std::uint64_t delta = counter_delta(snap, "udp_rcvbuf_dropped_total");
    if (delta > 0) {
      return Finding{HealthLevel::kDegraded,
                     std::to_string(delta) +
                         " datagram(s) dropped on ingest receive queues since last "
                         "check (SO_RCVBUF overflow — raise --rcvbuf)"};
    }
    return Finding{};
  });

  add_check("transport", "malformed-frames", [this](const Snapshot& snap) -> Finding {
    if (find_counter(snap, "receiver_malformed_frames_total") == nullptr) {
      return Finding{HealthLevel::kOk, "", false};
    }
    std::uint64_t delta = counter_delta(snap, "receiver_malformed_frames_total");
    if (delta > 0) {
      return Finding{HealthLevel::kDegraded,
                     std::to_string(delta) + " malformed snapshot frame(s) since last check"};
    }
    return Finding{};
  });

  add_check("transport", "full-snapshot-fallback", [this](const Snapshot& snap) -> Finding {
    // A delta-enabled transmitter should converge to incremental pushes
    // after at most one full snapshot per receiver (re)start. Repeated full
    // pushes with no delta progress mean the fast path is dead — a legacy
    // receiver, a store that cannot delta, or a receiver losing its replica
    // state every cycle — and every push pays full-copy bandwidth.
    if (find_counter(snap, "transmitter_delta_pushes_total") == nullptr) {
      return Finding{HealthLevel::kOk, "", false};
    }
    std::uint64_t full = counter_delta(snap, "transmitter_full_pushes_total");
    std::uint64_t delta = counter_delta(snap, "transmitter_delta_pushes_total");
    if (full >= 2 && delta == 0) {
      return Finding{HealthLevel::kDegraded,
                     std::to_string(full) +
                         " full-snapshot push(es) with no delta progress since last check"};
    }
    return Finding{};
  });

  add_check("sysmon", "quarantine", [](const Snapshot& snap) -> Finding {
    const double* hosts = find_gauge(snap, "sysmon_quarantined_hosts");
    if (hosts == nullptr) return Finding{HealthLevel::kOk, "", false};
    if (*hosts > 0) {
      return Finding{HealthLevel::kDegraded,
                     fmt_double(*hosts) + " host(s) quarantined for flapping"};
    }
    return Finding{};
  });

  add_check("sysdb", "record-age", [t](const Snapshot& snap) -> Finding {
    // Per-host age gauges are labelled samples of one family.
    constexpr std::string_view kPrefix = "sysdb_record_age_seconds{";
    double oldest = -1;
    std::string oldest_host;
    for (const auto& [name, value] : snap.gauges) {
      if (name.rfind(kPrefix, 0) != 0) continue;
      if (value > oldest) {
        oldest = value;
        oldest_host = name.substr(kPrefix.size());
        if (!oldest_host.empty() && oldest_host.back() == '}') oldest_host.pop_back();
      }
    }
    if (oldest < 0) return Finding{HealthLevel::kOk, "", false};
    if (oldest > t.record_age_critical_s) {
      return Finding{HealthLevel::kCritical, "oldest sysdb record (" + oldest_host + ") " +
                                                 fmt_double(oldest) + "s stale"};
    }
    if (oldest > t.record_age_degraded_s) {
      return Finding{HealthLevel::kDegraded, "oldest sysdb record (" + oldest_host + ") " +
                                                 fmt_double(oldest) + "s stale"};
    }
    return Finding{};
  });

  add_check("reactor", "loop-lag", [t](const Snapshot& snap) -> Finding {
    const HistogramStats* lag = find_histogram(snap, "reactor_loop_lag_us");
    if (lag == nullptr || lag->count == 0) return Finding{HealthLevel::kOk, "", false};
    if (lag->p99_us > t.loop_lag_p99_degraded_us) {
      return Finding{HealthLevel::kDegraded,
                     "event-loop lag p99 " + fmt_double(lag->p99_us) + "us over " +
                         fmt_double(t.loop_lag_p99_degraded_us) + "us budget"};
    }
    return Finding{};
  });

  add_check("reactor", "watchdog-stall", [this](const Snapshot& snap) -> Finding {
    if (find_counter(snap, "reactor_watchdog_stalls_total") == nullptr) {
      return Finding{HealthLevel::kOk, "", false};
    }
    std::uint64_t delta = counter_delta(snap, "reactor_watchdog_stalls_total");
    const double* stalled = find_gauge(snap, "reactor_watchdog_stalled");
    bool ongoing = stalled != nullptr && *stalled > 0;
    if (delta > 0 || ongoing) {
      std::string reason = ongoing
                               ? "a callback is blocking the event loop right now"
                               : std::to_string(delta) +
                                     " event-loop stall(s) detected since last check";
      return Finding{HealthLevel::kCritical, std::move(reason)};
    }
    return Finding{};
  });

  add_check("net", "fault-injection", [this](const Snapshot& snap) -> Finding {
    // Any fault_*_total movement means the injector is actively dropping /
    // corrupting traffic — expected in chaos runs, never in production.
    std::uint64_t delta = 0;
    bool present = false;
    for (const auto& [name, value] : snap.counters) {
      if (name.rfind("fault_", 0) != 0) continue;
      present = true;
      delta += counter_delta(snap, name);
    }
    if (!present) return Finding{HealthLevel::kOk, "", false};
    if (delta > 0) {
      return Finding{HealthLevel::kDegraded,
                     std::to_string(delta) + " injected fault(s) since last check"};
    }
    return Finding{};
  });
}

HealthReport HealthEngine::evaluate() {
  Snapshot snap = registry_->snapshot();
  HealthReport report;
  report.ts_us = wall_now_us();

  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, HealthReport::Subsystem> subsystems;
  for (const Check& check : checks_) {
    Finding finding = check.fn(snap);
    if (!finding.applicable) continue;
    HealthReport::Subsystem& subsystem = subsystems[check.subsystem];
    subsystem.name = check.subsystem;
    subsystem.level = worse(subsystem.level, finding.level);
    if (finding.level != HealthLevel::kOk) {
      subsystem.reasons.push_back(check.name + ": " + finding.reason);
    }
  }
  for (auto& [name, subsystem] : subsystems) {
    report.overall = worse(report.overall, subsystem.level);
    report.subsystems.push_back(std::move(subsystem));
  }
  return report;
}

std::string HealthReport::to_json() const {
  std::ostringstream out;
  out << "{\"ts_us\": " << ts_us << ", \"overall\": \"" << obs::to_string(overall)
      << "\", \"subsystems\": {";
  for (std::size_t i = 0; i < subsystems.size(); ++i) {
    const Subsystem& subsystem = subsystems[i];
    if (i) out << ",";
    out << "\n  \"" << json_escape(subsystem.name) << "\": {\"level\": \""
        << obs::to_string(subsystem.level) << "\", \"reasons\": [";
    for (std::size_t r = 0; r < subsystem.reasons.size(); ++r) {
      if (r) out << ", ";
      out << "\"" << json_escape(subsystem.reasons[r]) << "\"";
    }
    out << "]}";
  }
  out << "\n}}\n";
  return out.str();
}

std::string HealthReport::to_text() const {
  std::ostringstream out;
  out << "health: " << obs::to_string(overall) << "\n";
  for (const Subsystem& subsystem : subsystems) {
    out << "  " << subsystem.name << ": " << obs::to_string(subsystem.level) << "\n";
    for (const std::string& reason : subsystem.reasons) {
      out << "    - " << reason << "\n";
    }
  }
  return out.str();
}

}  // namespace smartsock::obs
