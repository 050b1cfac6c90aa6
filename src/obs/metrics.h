// Metrics registry — the unified observability surface (ISSUE 2 tentpole).
//
// The paper measured smartsock from the outside (`top`, a libpcap dumper,
// hand-instrumented clients); this registry measures it from the inside.
// Every daemon registers named counters, gauges and fixed-bucket latency
// histograms here; socket wrappers account their traffic through registry-
// owned TrafficCounters. The hot path is lock-free: registration takes a
// mutex once, after which every update is a relaxed atomic op on a pointer
// the registry guarantees valid for the process lifetime.
//
// A snapshot() is a consistent-enough point-in-time copy (each value is read
// atomically; cross-metric skew is bounded by the walk time) and serializes
// to JSON (for the stats endpoint / bench artifacts), Prometheus text
// exposition, and a human-readable table.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/counters.h"

namespace smartsock::obs {

/// Monotonically increasing event count. Wait-free.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value. Wait-free.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) { value_.fetch_add(d, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed geometric-bucket histogram (1 µs .. ~10 s). The wizard's query
/// latency recorder is exactly this shape, so the registry reuses it.
using Histogram = util::LatencyRecorder;

/// Compile-time provenance of this binary (ISSUE 7 satellite). Filled from
/// the SMARTSOCK_VERSION / SMARTSOCK_COMMIT defines CMake stamps onto the
/// metrics library plus the compiler's own __VERSION__.
struct BuildInfo {
  std::string version;
  std::string commit;
  std::string compiler;
};

/// The process-wide build identity (same object every call).
const BuildInfo& build_info();

/// Seconds since this process initialized the metrics layer (static-init
/// steady clock; close enough to process start for dashboards).
double process_uptime_seconds();

struct HistogramStats {
  std::string name;
  std::uint64_t count = 0;
  double mean_us = 0;
  /// Tail estimates from the recorder's incremental P² sketch (ISSUE 4) —
  /// O(1) memory, sharper than the ~6.5%-wide geometric buckets.
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  /// (exclusive upper bound in µs, count) per non-empty bucket.
  std::vector<std::pair<double, std::uint64_t>> buckets;
};

/// Point-in-time copy of every registered metric.
struct Snapshot {
  std::uint64_t wall_us = 0;  // system clock, µs since the Unix epoch
  std::uint64_t rss_kb = 0;   // resident set size of this process
  BuildInfo build;            // version/commit/compiler stamped at build time
  double uptime_seconds = 0;  // process uptime at snapshot time
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramStats> histograms;
  std::vector<util::ComponentUsage> traffic;  // merged by component name

  /// {"ts_us":..,"rss_kb":..,"counters":{..},"gauges":{..},
  ///  "histograms":{name:{count,mean_us,p50_us,p90_us,p99_us,buckets:[[ub,n]..]}},
  ///  "traffic":{component:{bytes_sent,..}}}
  std::string to_json(bool pretty = false) const;

  /// Prometheus text exposition: one # HELP/# TYPE pair per metric family,
  /// names sanitized to [a-zA-Z_:][a-zA-Z0-9_:]*, label values escaped.
  /// Counters/gauges pass through; histograms expand to cumulative
  /// _bucket/_sum/_count plus _p50/_p90/_p99 sketch gauges; traffic expands
  /// to smartsock_traffic_*_total{component="..."}.
  std::string to_prometheus() const;

  /// Human-readable table for the stats CLI.
  std::string to_text() const;
};

/// Named metric registry. A process normally uses instance(), but the class
/// is instantiable so tests get isolated registries.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& instance();

  /// Get-or-create by name. Returned pointers stay valid for the registry's
  /// lifetime; registering the same name twice returns the same object (two
  /// wizards in one process share "wizard_requests_total").
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Traffic accounting for one socket owner. Unlike the metrics above,
  /// every call creates a fresh counter — many probes register as
  /// "system_probe" and their traffic is summed at snapshot time.
  util::TrafficCounter* traffic(const std::string& component);

  /// Dynamic metrics: a collector runs at snapshot time and may append
  /// gauges/counters computed from live state (e.g. per-server record ages
  /// from the sysdb). Collectors must unregister before anything they
  /// capture dies.
  using Collector = std::function<void(Snapshot&)>;
  std::uint64_t add_collector(Collector fn);
  void remove_collector(std::uint64_t id);

  Snapshot snapshot() const;

  /// Traffic merged by component with send/receive rates over `window`
  /// seconds — the Table-5.2 resource-usage view the benches print.
  std::vector<util::ComponentUsage> traffic_usage(double window_seconds) const;

  /// Zeroes every metric (bench phase boundaries). Registration survives.
  void reset_all();

  /// Writes a "name value" text snapshot to `fd` for the crash blackbox.
  /// Best-effort async-signal-safe: no allocation, registry mutex taken with
  /// try_lock (skipping the dump if a registration holds it), histogram
  /// tails from the wait-free bucket walk instead of the sketch spinlock.
  void crash_dump(int fd) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::vector<std::pair<std::string, std::unique_ptr<util::TrafficCounter>>> traffic_;
  std::map<std::uint64_t, Collector> collectors_;
  std::uint64_t next_collector_id_ = 1;
};

/// Escapes a string for embedding in a JSON string literal.
std::string json_escape(std::string_view text);

/// Rewrites `name` into a valid Prometheus metric/label name
/// ([a-zA-Z_:][a-zA-Z0-9_:]*): every invalid char becomes '_', and a
/// leading digit gets a '_' prefix. Empty input becomes "_".
std::string prom_sanitize_name(std::string_view name);

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline get backslash-escaped.
std::string prom_escape_label_value(std::string_view value);

}  // namespace smartsock::obs
