// smartbench — the repository's end-to-end benchmark.
//
// Boots the paper's pipeline in one process over loopback sockets
//   probe reports -> SystemMonitor -> monitor-side store -> Transmitter
//   -> Receiver -> wizard-side store -> Wizard -> SmartClient
// with every component on its default-constructed config, and drives one
// named workload from seeded generators:
//
//   smartbench --workload select_cached|select_uncached|fleet_ingest
//              --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same load with
// sampled spans, then times each layer's public calls on the workload's
// inputs, prints the per-layer metrics and writes DIR/trace_<workload>.json.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <poll.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/server_matcher.h"
#include "core/smart_client.h"
#include "core/wire.h"
#include "core/wizard.h"
#include "ipc/in_memory_store.h"
#include "lang/requirement.h"
#include "model.h"
#include "monitor/system_monitor.h"
#include "net/udp_socket.h"
#include "obs/span.h"
#include "tracer.h"
#include "transport/receiver.h"
#include "transport/transmitter.h"

namespace ss = smartsock;
using namespace perfbench;

namespace {

// The daemons' defaults, read from default-constructed configs so that a
// change to a default is measured like any other change.
const std::uint64_t kReportIntervalNs = static_cast<std::uint64_t>(
    ss::monitor::SystemMonitorConfig{}.probe_interval.count());
const std::uint64_t kPushIntervalNs =
    static_cast<std::uint64_t>(ss::transport::TransmitterConfig{}.interval.count());

// Reports in flight between the sender and the monitor. 128 sometimes
// overflowed the default socket receive buffer; a lost report then stalls a
// flow-controlled sender, so the window stays well below it.
constexpr std::uint64_t kWindow = 64;
// Pipelines booted per run; setup_s is their median.
constexpr int kSetups = 5;
// Freshness markers go out on this fixed period, which is independent of
// the push timer, so marker phases spread evenly over the push interval.
constexpr std::uint64_t kMarkerPeriodNs = 37'000'000;
constexpr std::uint64_t kPollPeriodNs = 10'000'000;
constexpr std::uint64_t kProbeTimeoutNs = 500'000'000;
// Traced runs record one end-to-end span per this many queries / reports.
constexpr std::uint64_t kSampleEvery = 64;

enum class PoolKind { kCached, kUncached, kMarker };

struct WorkloadSpec {
  const char* name;
  std::size_t fleet;
  std::size_t clients;  // closed-loop SmartClient threads
  bool streaming;       // sender paced at the report cadence, or flat out
  PoolKind pool;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"select_cached", 500, 2, false, PoolKind::kCached},
    {"select_uncached", 2000, 2, false, PoolKind::kUncached},
    {"fleet_ingest", 5000, 0, true, PoolKind::kMarker},
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void sleep_ns(std::uint64_t ns) { std::this_thread::sleep_for(std::chrono::nanoseconds(ns)); }

// ---------------------------------------------------------------------------
// Pipeline

struct Pipeline {
  // Declaration order is teardown order reversed: the transmitter stops
  // before the stores it reads, the wizard before the receiver it asks.
  ss::ipc::InMemoryStatusStore monitor_store;
  ss::ipc::InMemoryStatusStore wizard_store;
  std::unique_ptr<ss::monitor::SystemMonitor> monitor;
  std::unique_ptr<ss::transport::Receiver> receiver;
  std::unique_ptr<ss::core::Wizard> wizard;
  std::unique_ptr<ss::transport::Transmitter> transmitter;

  // The probe side: one socket, used by one thread at a time.
  ss::net::UdpSocket report_socket;
  std::uint64_t reports_sent = 0;
  std::uint64_t send_errors = 0;

  /// Sends `host`'s next report; the model is updated first, so it always
  /// holds the values last sent.
  void send_report(Host& host) {
    advance(host);
    if (report_socket.send_to(host.report.to_wire(), monitor->endpoint()).ok()) {
      ++reports_sent;
    } else {
      ++send_errors;
    }
  }
  std::uint64_t reports_settled() const {
    return monitor->reports_received() + monitor->reports_rejected() +
           monitor->quarantined_reports_dropped();
  }
  std::uint64_t in_flight() const {
    std::uint64_t settled = reports_settled();
    return reports_sent > settled ? reports_sent - settled : 0;
  }
  /// Waits until at most `limit` reports are in flight; false when the
  /// monitor makes no progress for a second (a lost report).
  bool wait_in_flight(std::uint64_t limit) {
    std::uint64_t last = reports_settled();
    std::uint64_t since = now_ns();
    while (in_flight() > limit) {
      sleep_ns(50'000);
      std::uint64_t settled = reports_settled();
      if (settled != last) {
        last = settled;
        since = now_ns();
      } else if (now_ns() - since > 1'000'000'000) {
        return false;
      }
    }
    return true;
  }
};

/// Boots a pipeline, reports the whole fleet once, and returns when the
/// wizard answers from all of it.
std::unique_ptr<Pipeline> boot(Fleet& fleet, std::string& error) {
  auto p = std::make_unique<Pipeline>();
  p->monitor = std::make_unique<ss::monitor::SystemMonitor>(ss::monitor::SystemMonitorConfig{},
                                                            p->monitor_store);
  if (!p->monitor->valid() || !p->monitor->start()) {
    error = "system monitor failed to start";
    return nullptr;
  }
  // Netdb and secdb stand in for the network and security monitors.
  for (const auto& net : fleet.net) p->monitor_store.put_net(net);
  for (const auto& sec : fleet.sec) p->monitor_store.put_sec(sec);

  p->receiver = std::make_unique<ss::transport::Receiver>(ss::transport::ReceiverConfig{},
                                                          p->wizard_store);
  if (!p->receiver->valid() || !p->receiver->start()) {
    error = "receiver failed to start";
    return nullptr;
  }
  p->wizard = std::make_unique<ss::core::Wizard>(ss::core::WizardConfig{}, p->wizard_store,
                                                 p->receiver.get());
  if (!p->wizard->valid() || !p->wizard->start()) {
    error = "wizard failed to start: " + p->wizard->bind_error();
    return nullptr;
  }

  auto socket = ss::net::UdpSocket::create();
  if (!socket) {
    error = "cannot create the report socket";
    return nullptr;
  }
  p->report_socket = std::move(*socket);
  for (Host& host : fleet.hosts) {
    if (!p->wait_in_flight(kWindow - 1)) break;
    p->send_report(host);
  }
  if (!p->wait_in_flight(0) || p->send_errors != 0) {
    error = "the monitor did not admit every report of the fleet";
    return nullptr;
  }

  ss::transport::TransmitterConfig tx;
  tx.receiver = p->receiver->endpoint();
  p->transmitter = std::make_unique<ss::transport::Transmitter>(tx, p->monitor_store);
  if (!p->transmitter->start()) {
    error = "transmitter failed to start";
    return nullptr;
  }

  ss::core::SmartClientConfig cc;
  cc.wizard = p->wizard->endpoint();
  cc.seed = 1;
  ss::core::SmartClient client(cc);
  std::size_t want = std::min(fleet.hosts.size(), ss::core::kMaxServersPerReply);
  std::uint64_t deadline = now_ns() + 10'000'000'000ull;
  while (now_ns() < deadline) {
    ss::ipc::SnapshotPtr snap = p->wizard_store.snapshot();
    if (snap->sys.size() == fleet.hosts.size() && snap->sec.size() == fleet.sec.size() &&
        snap->net.size() == fleet.net.size()) {
      ss::core::WizardReply reply = client.query("host_cpu_free > 0", want);
      if (reply.ok && reply.servers.size() == want) return p;
    }
    sleep_ns(1'000'000);
  }
  error = "the wizard never answered from the whole fleet";
  return nullptr;
}

// ---------------------------------------------------------------------------
// Requests and the reply oracle

/// Draws the workload's requests. select_cached is skewed over 64 requests;
/// select_uncached is uniform over 4,096 texts and counts 1-60; the marker
/// pool (fleet_ingest's layer timings) asks for windows of marker values.
class Picker {
 public:
  Picker(PoolKind kind, const Fleet& fleet) : kind_(kind) {
    if (kind == PoolKind::kCached) {
      pool_ = cached_pool();
    } else if (kind == PoolKind::kUncached) {
      pool_ = uncached_pool();
    } else {
      for (std::size_t j = 0; j < 64; ++j) {
        pool_.push_back(marker_req(kMarkerBase + static_cast<double>(j * kMarkerWindow)));
      }
    }
    for (const Req& req : pool_) {
      std::size_t n = 0;
      for (const Host& host : fleet.hosts) n += req.qualifies(fleet, host) ? 1 : 0;
      qualifying_.push_back(n);
    }
  }
  struct Pick {
    std::size_t index;
    std::size_t count;
  };
  Pick pick(ss::util::Rng& rng) const {
    if (kind_ == PoolKind::kCached) {
      double u = rng.uniform(0.0, 1.0);
      auto index = std::min<std::size_t>(pool_.size() - 1,
                                         static_cast<std::size_t>(u * u * pool_.size()));
      return {index, kCachedCounts[rng.uniform_int(0, 3)]};
    }
    if (kind_ == PoolKind::kUncached) {
      return {static_cast<std::size_t>(rng.uniform_int(0, pool_.size() - 1)),
              static_cast<std::size_t>(rng.uniform_int(1, 60))};
    }
    return {static_cast<std::size_t>(rng.uniform_int(0, pool_.size() - 1)),
            kMarkerWindow};
  }
  const Req& req(std::size_t index) const { return pool_[index]; }
  std::size_t qualifying(std::size_t index) const { return qualifying_[index]; }

 private:
  PoolKind kind_;
  std::vector<Req> pool_;
  std::vector<std::size_t> qualifying_;  // answers are fixed for a run
};

/// Checks one reply against the model; empty when it is right. `exact`
/// holds the number of servers that must come back, or SIZE_MAX when only
/// the bounds [at_least, ...] can be known (in-flight marker reports).
std::string check_servers(const Fleet& fleet, const Req& req,
                          const ss::core::WizardReply& reply, std::size_t exact,
                          std::vector<std::size_t>* indices = nullptr) {
  std::vector<std::size_t> seen;
  for (const ss::core::ServerEntry& server : reply.servers) {
    std::size_t index = host_index(server.host, fleet.hosts.size());
    if (index == fleet.hosts.size()) return "unknown host " + server.host;
    const Host& host = fleet.hosts[index];
    if (server.address != host.report.address) return "wrong address for " + server.host;
    if (!req.qualifies(fleet, host)) return server.host + " does not qualify for " + req.text;
    seen.push_back(index);
  }
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    return "a server appears twice for " + req.text;
  }
  if (exact != SIZE_MAX && reply.servers.size() != exact) {
    return "got " + std::to_string(reply.servers.size()) + " servers, expected " +
           std::to_string(exact) + " for " + req.text;
  }
  if (indices != nullptr) *indices = std::move(seen);
  return {};
}

// ---------------------------------------------------------------------------
// Load

/// A uniform sample of at most `capacity` values of a stream, so that the
/// benchmark's own memory does not grow with the program's throughput.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed, std::size_t window)
      : capacity_(capacity), window_(window), rng_(seed) {
    // Touch the whole buffer now, so peak RSS does not depend on how many
    // queries a run completes.
    kept_.assign(capacity, 0.0);
    kept_.clear();
  }
  void add(double value, std::uint64_t at_ns) {
    first_ns_ = seen_ == 0 ? at_ns : std::min(first_ns_, at_ns);
    last_ns_ = std::max(last_ns_, at_ns);
    ++seen_;
    if (kept_.size() < capacity_) {
      kept_.push_back(value);
      return;
    }
    auto slot = static_cast<std::uint64_t>(rng_.uniform_int(0, static_cast<std::int64_t>(seen_ - 1)));
    if (slot < capacity_) kept_[slot] = value;
  }
  std::uint64_t seen() const { return seen_; }
  /// Times of the first and last sample added.
  std::uint64_t first_ns() const { return first_ns_; }
  std::uint64_t last_ns() const { return last_ns_; }
  const std::vector<double>& kept() const { return kept_; }
  /// The push interval of the measurement window the samples fell in.
  std::size_t window() const { return window_; }

 private:
  std::size_t capacity_;
  std::size_t window_;
  ss::util::Rng rng_;
  std::uint64_t seen_ = 0;
  std::uint64_t first_ns_ = 0;
  std::uint64_t last_ns_ = 0;
  std::vector<double> kept_;
};
constexpr std::size_t kReservoirSize = 1 << 14;

/// Nearest-rank percentile over several reservoirs, each kept value weighted
/// by the share of its stream it stands for.
double percentile(const std::vector<const Reservoir*>& parts, double p) {
  std::vector<std::pair<double, double>> weighted;
  double total = 0;
  for (const Reservoir* each : parts) {
    const Reservoir& part = *each;
    if (part.kept().empty()) continue;
    double weight = static_cast<double>(part.seen()) / static_cast<double>(part.kept().size());
    for (double value : part.kept()) weighted.emplace_back(value, weight);
    total += static_cast<double>(part.seen());
  }
  if (weighted.empty()) return 0.0;
  std::sort(weighted.begin(), weighted.end());
  double target = p / 100.0 * total;
  double cumulative = 0;
  for (const auto& [value, weight] : weighted) {
    cumulative += weight;
    if (cumulative >= target * (1 - 1e-12)) return value;
  }
  return weighted.back().first;
}

struct Outcome {
  std::uint64_t queries = 0;
  std::uint64_t query_failures = 0;  // ok == false, timeout or wrong answer
  std::uint64_t wrong_answers = 0;
  std::vector<Reservoir> rtt_us;  // queries completed inside the window, per push interval
  std::vector<std::string> errors;

  void fail(std::string message, bool wrong) {
    ++query_failures;
    if (wrong) ++wrong_answers;
    if (errors.size() < 5) errors.push_back(std::move(message));
  }
  void merge(Outcome&& other) {
    queries += other.queries;
    query_failures += other.query_failures;
    wrong_answers += other.wrong_answers;
    for (Reservoir& part : other.rtt_us) rtt_us.push_back(std::move(part));
    for (auto& e : other.errors) {
      if (errors.size() < 5) errors.push_back(std::move(e));
    }
  }
};

struct Shared {
  Pipeline& pipeline;
  Fleet& fleet;
  const WorkloadSpec& spec;
  const Picker& picker;
  Tracer& tracer;
  Tracer off;
  std::uint64_t seed;
  std::uint64_t t0;
  std::uint64_t t_end;
  std::atomic<bool> stop{false};

  /// One reservoir per push interval of the measurement window, so the
  /// tail can be read interval by interval.
  std::vector<Reservoir> rtt_reservoirs(std::uint64_t seed) const {
    std::vector<Reservoir> out;
    for (std::size_t w = 0; w * kPushIntervalNs < t_end - t0; ++w) {
      out.emplace_back(kReservoirSize, seed + w, w);
    }
    return out;
  }
  void record_rtt(std::vector<Reservoir>& rtt, std::uint64_t started, std::uint64_t done) const {
    std::size_t w = (done - t0) / kPushIntervalNs;
    if (done <= t_end && w < rtt.size()) {
      rtt[w].add(static_cast<double>(done - started) / 1e3, done);
    }
  }
};

/// One closed-loop user: asks, waits for the answer, checks it, asks again.
void run_client(Shared& s, std::size_t index, Outcome& out) {
  ss::core::SmartClientConfig cc;
  cc.wizard = s.pipeline.wizard->endpoint();
  cc.seed = s.seed * 1000 + index + 1;
  ss::core::SmartClient client(cc);
  ss::util::Rng rng(s.seed * 7919 + index);
  std::uint64_t last_version = 0;
  out.rtt_us = s.rtt_reservoirs(cc.seed);
  while (!s.stop.load(std::memory_order_relaxed)) {
    Picker::Pick pick = s.picker.pick(rng);
    const Req& req = s.picker.req(pick.index);
    ++out.queries;
    std::uint64_t started = now_ns();
    ss::core::WizardReply reply;
    {
      Tracer& tracer = out.queries % kSampleEvery == 0 ? s.tracer : s.off;
      Span span(tracer, "e2e.query", (out.queries << 8) | (16 + index));
      reply = client.query(req.text, pick.count);
    }
    std::uint64_t done = now_ns();
    if (!reply.ok) {
      out.fail("query failed: " + reply.error, false);
      continue;
    }
    if (reply.version < last_version) {
      out.fail("reply version went back from " + std::to_string(last_version), true);
    }
    last_version = std::max(last_version, reply.version);
    std::size_t exact =
        std::min({pick.count, s.picker.qualifying(pick.index), ss::core::kMaxServersPerReply});
    std::string wrong = check_servers(s.fleet, req, reply, exact);
    if (!wrong.empty()) {
      out.fail(wrong, true);
      continue;
    }
    s.record_rtt(out.rtt_us, started, done);
  }
}

struct Marker {
  std::size_t host;
  std::uint64_t sent_ns = 0;
  std::uint64_t seen_ns = 0;
};

struct ReporterOutcome {
  Outcome probe;  // the freshness prober's queries
  std::vector<Marker> markers;
};

/// The sender and the freshness prober, in one thread so that a marker's
/// report can never be overtaken by an older report for the same host.
///
/// The sender reports every host once per report interval (paced) or as fast
/// as the monitor admits (streaming), never with more than kWindow reports
/// in flight. Every kMarkerPeriodNs the prober marks the next host of a
/// seeded permutation with a unique bogomips value, then polls the wizard
/// every kPollPeriodNs for the oldest unseen markers until a reply selects
/// them. After the window closes it keeps reporting and polling until every
/// marker was seen, or three push intervals have passed.
void run_reporter(Shared& s, ReporterOutcome& out) {
  Pipeline& p = s.pipeline;
  std::vector<Host>& hosts = s.fleet.hosts;
  const std::size_t n = hosts.size();
  ss::util::Rng rng(s.seed * 104729 + 17);
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng.engine());

  out.probe.rtt_us = s.rtt_reservoirs(s.seed * 104729 + 19);
  auto probe_socket = ss::net::UdpSocket::bind(ss::net::Endpoint::loopback(0));
  if (!probe_socket) {
    out.probe.fail("cannot bind the prober socket", false);
    return;
  }
  const ss::net::Endpoint wizard = p.wizard->endpoint();
  const std::uint64_t report_gap = kReportIntervalNs / n;
  const std::uint64_t drain_deadline = s.t_end + 3 * kPushIntervalNs;
  std::uint64_t next_report = s.t0;
  std::uint64_t next_marker = s.t0;
  std::uint64_t next_poll = s.t0;
  std::size_t round_robin = 0;
  std::size_t oldest_unseen = 0;
  std::uint64_t last_version = 0;
  std::uint32_t sequence = static_cast<std::uint32_t>(s.seed % 1000) * 1000000u;

  struct Pending {
    bool active = false;
    std::uint32_t sequence = 0;
    std::uint64_t sent_ns = 0;
    std::size_t first = 0;  // marker index the asked window starts at
  } pending;

  auto send = [&](std::size_t index) {
    Tracer& tracer = p.reports_sent % kSampleEvery == 0 ? s.tracer : s.off;
    Span span(tracer, "e2e.report_send", (p.reports_sent << 8) | 1);
    p.send_report(hosts[index]);
  };

  // Applies one prober reply: every marker it shows is seen now.
  auto on_reply = [&](const ss::core::WizardReply& reply, std::uint64_t now) {
    std::size_t first = pending.first;
    std::size_t last = std::min(out.markers.size(), first + kMarkerWindow);
    Req req = marker_req(kMarkerBase + static_cast<double>(first));
    if (!reply.ok) {
      out.probe.fail("prober query failed: " + reply.error, false);
      return;
    }
    if (reply.version < last_version) {
      out.probe.fail("prober reply version went back", true);
      return;
    }
    last_version = reply.version;
    std::vector<std::size_t> shown;
    // The host's current marker may be newer than the window only after the
    // permutation wraps, which takes n * kMarkerPeriodNs.
    std::string wrong = check_servers(s.fleet, req, reply, SIZE_MAX, &shown);
    if (!wrong.empty()) {
      out.probe.fail(wrong, true);
      return;
    }
    // Each shown host holds a marker of this window, and a marker once seen
    // must keep showing: visibility never goes back.
    std::vector<bool> shown_marker(last - first, false);
    for (std::size_t host : shown) {
      std::size_t m = static_cast<std::size_t>(hosts[host].report.bogomips - kMarkerBase);
      if (m < first || m >= last || out.markers[m].host != host) {
        out.probe.fail("prober saw " + host_name(host) + " outside its window", true);
        return;
      }
      shown_marker[m - first] = true;
    }
    for (std::size_t m = first; m < last; ++m) {
      Marker& marker = out.markers[m];
      if (shown_marker[m - first]) {
        if (marker.seen_ns == 0) {
          marker.seen_ns = now;
          Tracer& tracer = s.tracer;
          if (tracer.enabled()) {
            tracer.add(SpanRec{"e2e.freshness", (m << 8) | 2, tracer.next_id(), 0,
                               marker.sent_ns, now, 1});
          }
        }
      } else if (marker.seen_ns != 0 && marker.seen_ns < pending.sent_ns &&
                 reply.servers.size() < kMarkerWindow) {
        out.probe.fail("marker on " + host_name(marker.host) + " disappeared", true);
        return;
      }
    }
    while (oldest_unseen < out.markers.size() && out.markers[oldest_unseen].seen_ns != 0) {
      ++oldest_unseen;
    }
  };

  for (;;) {
    std::uint64_t now = now_ns();
    bool measuring = now < s.t_end;
    if (!measuring && (oldest_unseen == out.markers.size() || now >= drain_deadline)) break;

    if (measuring && now >= next_marker && p.in_flight() < kWindow) {
      std::size_t k = out.markers.size();
      std::size_t host = perm[k % n];
      hosts[host].report.bogomips = kMarkerBase + static_cast<double>(k);
      send(host);
      out.markers.push_back(Marker{host, now_ns(), 0});
      next_marker += kMarkerPeriodNs;
    }
    if (s.spec.streaming) {
      for (int i = 0; i < 16 && p.in_flight() < kWindow; ++i) send(round_robin++ % n);
    } else {
      while (next_report <= now && p.in_flight() < kWindow) {
        send(round_robin++ % n);
        next_report += report_gap;
      }
    }

    if (pending.active) {
      std::string payload;
      ss::net::Endpoint peer;
      while (probe_socket->try_receive_from(payload, peer).ok()) {
        auto reply = ss::core::WizardReply::from_wire(payload);
        if (!reply || reply->sequence != pending.sequence) continue;
        std::uint64_t done = now_ns();
        pending.active = false;
        s.record_rtt(out.probe.rtt_us, pending.sent_ns, done);
        on_reply(*reply, done);
        break;
      }
      if (pending.active && now_ns() - pending.sent_ns > kProbeTimeoutNs) {
        pending.active = false;
        out.probe.fail("prober query timed out", false);
      }
    }
    now = now_ns();
    if (!pending.active && now >= next_poll && oldest_unseen < out.markers.size()) {
      ss::core::UserRequest request;
      request.sequence = ++sequence;
      request.server_num = static_cast<std::uint16_t>(kMarkerWindow);
      request.detail = marker_req(kMarkerBase + static_cast<double>(oldest_unseen)).text;
      // Without clients the prober's queries are the measured ones: a
      // clause that is always true and names the poll makes every poll a
      // fresh match over the whole fleet instead of a reply-cache hit.
      if (s.spec.clients == 0) {
        request.detail += " && " + std::to_string(out.probe.queries + 1) + " > 0";
      }
      pending = Pending{true, request.sequence, now, oldest_unseen};
      ++out.probe.queries;
      if (!probe_socket->send_to(request.to_wire(), wizard).ok()) {
        pending.active = false;
        out.probe.fail("prober send failed", false);
      }
      next_poll = now + kPollPeriodNs;
    }

    // Sleep until the next due event, waking early for a prober reply.
    std::uint64_t wake = now + 1'000'000;
    if (measuring) wake = std::min(wake, next_marker);
    if (s.spec.streaming) {
      wake = std::min(wake, now + (p.in_flight() < kWindow ? 0 : 50'000));
    } else {
      wake = std::min(wake, std::max(next_report, now + 50'000));
    }
    if (!pending.active && oldest_unseen < out.markers.size()) wake = std::min(wake, next_poll);
    if (wake > now) {
      pollfd pfd{probe_socket->fd(), POLLIN, 0};
      timespec ts{static_cast<time_t>((wake - now) / 1'000'000'000),
                  static_cast<long>((wake - now) % 1'000'000'000)};
      ::ppoll(&pfd, 1, &ts, nullptr);
    }
  }
}

// ---------------------------------------------------------------------------
// Convergence

/// Compares the wizard-side store with the model value for value; empty
/// when equal.
std::string compare_store(const Pipeline& p, const Fleet& fleet) {
  ss::ipc::SnapshotPtr snap = p.wizard_store.snapshot();
  if (snap->sys.size() != fleet.hosts.size()) {
    return "wizard store holds " + std::to_string(snap->sys.size()) + " of " +
           std::to_string(fleet.hosts.size()) + " hosts";
  }
  std::vector<bool> present(fleet.hosts.size(), false);
  for (const ss::ipc::SysRecord& rec : snap->sys) {
    std::size_t index = host_index(rec.host_str(), fleet.hosts.size());
    if (index == fleet.hosts.size()) return "unknown host " + rec.host_str();
    if (present[index]) return "wizard store holds " + rec.host_str() + " twice";
    present[index] = true;
    const ss::probe::StatusReport& r = fleet.hosts[index].report;
    bool equal = rec.address_str() == r.address && rec.group_str() == r.group &&
                 rec.load1 == r.load1 && rec.load5 == r.load5 && rec.load15 == r.load15 &&
                 rec.cpu_user == r.cpu_user && rec.cpu_nice == r.cpu_nice &&
                 rec.cpu_system == r.cpu_system && rec.cpu_idle == r.cpu_idle &&
                 rec.bogomips == r.bogomips && rec.mem_total_mb == r.mem_total_mb &&
                 rec.mem_used_mb == r.mem_used_mb && rec.mem_free_mb == r.mem_free_mb &&
                 rec.disk_rreq_ps == r.disk_rreq_ps && rec.disk_rblocks_ps == r.disk_rblocks_ps &&
                 rec.disk_wreq_ps == r.disk_wreq_ps && rec.disk_wblocks_ps == r.disk_wblocks_ps &&
                 rec.net_rbytes_ps == r.net_rbytes_ps &&
                 rec.net_rpackets_ps == r.net_rpackets_ps &&
                 rec.net_tbytes_ps == r.net_tbytes_ps && rec.net_tpackets_ps == r.net_tpackets_ps;
    if (!equal) return "wizard store differs from the model for " + r.host;
  }
  if (snap->net.size() != fleet.net.size() || snap->sec.size() != fleet.sec.size()) {
    return "wizard netdb/secdb size differs from the model";
  }
  for (const ss::ipc::NetRecord& rec : snap->net) {
    bool found = std::any_of(fleet.net.begin(), fleet.net.end(), [&](const auto& m) {
      return m.to_str() == rec.to_str() && m.from_str() == rec.from_str() &&
             m.bw_mbps == rec.bw_mbps && m.delay_ms == rec.delay_ms;
    });
    if (!found) return "wizard netdb differs from the model";
  }
  for (const ss::ipc::SecRecord& rec : snap->sec) {
    std::size_t index = host_index(rec.host_str(), fleet.hosts.size());
    if (index == fleet.hosts.size() || fleet.hosts[index].security_level != rec.level) {
      return "wizard secdb differs from the model";
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// Per-layer timings (traced runs)

/// Runs `body(sample)` up to `samples` times, stopping early after `budget_ns`.
template <typename Body>
void sample_loop(std::size_t samples, std::uint64_t budget_ns, Body body) {
  std::uint64_t until = now_ns() + budget_ns;
  for (std::size_t i = 0; i < samples && (i < 3 || now_ns() < until); ++i) body(i);
}

struct LayerInputs {
  Pipeline& live;
  const Fleet& fleet;
  const Picker& picker;
  std::size_t churn;  // reports landing per push interval
  std::uint64_t seed;
};

void time_query_path(Tracer& t, const LayerInputs& in) {
  ss::ipc::SnapshotPtr snap = in.live.wizard_store.snapshot();
  ss::ipc::InMemoryStatusStore store;
  store.replace_sys(snap->sys);
  store.replace_net(snap->net);
  store.replace_sec(snap->sec);
  ss::core::Wizard wizard(ss::core::WizardConfig{}, store);
  auto a = ss::net::UdpSocket::bind(ss::net::Endpoint::loopback(0));
  auto b = ss::net::UdpSocket::bind(ss::net::Endpoint::loopback(0));
  if (!a || !b) return;
  ss::util::Rng rng(in.seed + 31);
  const auto one_s = std::chrono::seconds(1);
  sample_loop(400, 1'500'000'000, [&](std::size_t i) {
    Picker::Pick pick = in.picker.pick(rng);
    store.put_sys(snap->sys[0]);  // a write, so the first handle misses
    std::uint64_t trace = (i << 8) | 3;
    Span root(t, "bench.query", trace);
    ss::core::UserRequest request;
    request.sequence = static_cast<std::uint32_t>(i + 1);
    request.server_num = static_cast<std::uint16_t>(pick.count);
    request.detail = in.picker.req(pick.index).text;
    std::string wire;
    {
      Span span(t, "core.request_encode", trace, root.id());
      wire = request.to_wire();
    }
    {
      Span span(t, "net.udp_roundtrip", trace, root.id());
      a->send_to(wire, b->local_endpoint());
      auto there = b->receive(one_s);
      b->send_to(wire, a->local_endpoint());
      auto back = a->receive(one_s);
      if (!there || !back) return;
    }
    std::optional<ss::core::UserRequest> decoded;
    {
      Span span(t, "core.request_decode", trace, root.id());
      decoded = ss::core::UserRequest::from_wire(wire);
    }
    if (!decoded) return;
    ss::core::WizardReply reply;
    {
      Span span(t, "core.handle_miss", trace, root.id());
      reply = wizard.handle(*decoded);
    }
    {
      Span span(t, "core.handle_hit", trace, root.id());
      reply = wizard.handle(*decoded);
    }
    std::string reply_wire;
    {
      Span span(t, "core.reply_encode", trace, root.id());
      reply_wire = reply.to_wire();
    }
    {
      Span span(t, "core.reply_decode", trace, root.id());
      auto parsed = ss::core::WizardReply::from_wire(reply_wire);
      (void)parsed;
    }
  });
}

void time_match_path(Tracer& t, const LayerInputs& in) {
  ss::ipc::SnapshotPtr snap = in.live.wizard_store.snapshot();
  ss::core::ServerMatcher matcher;
  ss::util::Rng rng(in.seed + 37);
  // The matcher's extra attributes, from the benchmark's model.
  std::vector<std::pair<double, double>> extra;  // security level, group bandwidth
  for (const ss::ipc::SysRecord& rec : snap->sys) {
    const Host& host = in.fleet.hosts[host_index(rec.host_str(), in.fleet.hosts.size())];
    extra.emplace_back(host.security_level, in.fleet.group_bw[host.group]);
  }
  sample_loop(60, 1'500'000'000, [&](std::size_t i) {
    Picker::Pick pick = in.picker.pick(rng);
    std::uint64_t trace = (i << 8) | 4;
    Span root(t, "bench.match", trace);
    std::optional<ss::lang::Requirement> req;
    {
      Span span(t, "lang.compile", trace, root.id());
      req = ss::lang::Requirement::compile(in.picker.req(pick.index).text);
    }
    if (!req) return;
    ss::core::MatchView view;
    view.sys = snap->sys;
    view.net = snap->net;
    view.sec = snap->sec;
    view.local_group = "local";
    {
      Span span(t, "core.match", trace, root.id());
      ss::core::MatchResult result = matcher.match(*req, view, pick.count);
      span.set_ops(std::max<std::size_t>(result.evaluated, 1));
    }
    std::vector<ss::lang::AttributeSet> attrs(snap->sys.size());
    {
      Span span(t, "core.attributes", trace, root.id(), snap->sys.size());
      for (std::size_t r = 0; r < snap->sys.size(); ++r) {
        attrs[r] = ss::core::sys_record_attributes(snap->sys[r]);
      }
    }
    for (std::size_t r = 0; r < attrs.size(); ++r) {
      attrs[r]["host_security_level"] = extra[r].first;
      attrs[r]["monitor_network_bw"] = extra[r].second;
    }
    std::size_t qualified = 0;
    {
      Span span(t, "lang.evaluate", trace, root.id(), attrs.size());
      for (const auto& a : attrs) qualified += req->evaluate(a).qualified ? 1 : 0;
    }
    (void)qualified;
  });
}

void time_report_path(Tracer& t, const LayerInputs& in) {
  ss::ipc::InMemoryStatusStore store;
  ss::monitor::SystemMonitor monitor(ss::monitor::SystemMonitorConfig{}, store);
  auto socket = ss::net::UdpSocket::create();
  if (!monitor.valid() || !socket) return;
  std::vector<Host> hosts = in.fleet.hosts;  // copies: the model stays as checked
  const std::size_t n = hosts.size();
  // Fill the monitor to fleet size first, one window at a time.
  std::size_t next = 0;
  auto encode_window = [&] {
    std::vector<std::string> wires;
    for (std::uint64_t k = 0; k < kWindow; ++k) {
      Host& host = hosts[next++ % n];
      advance(host);
      wires.push_back(host.report.to_wire());
    }
    return wires;
  };
  auto send_window = [&](const std::vector<std::string>& wires) {
    for (const std::string& wire : wires) socket->send_to(wire, monitor.endpoint());
  };
  auto drain_window = [&](std::uint64_t target) {
    std::uint64_t until = now_ns() + 2'000'000'000ull;
    while (monitor.reports_received() < target && now_ns() < until) {
      monitor.poll_batch(std::chrono::milliseconds(100));
    }
  };
  while (next < n) {
    std::uint64_t target = monitor.reports_received() + kWindow;
    send_window(encode_window());
    drain_window(std::min<std::uint64_t>(target, n));
  }
  sample_loop(60, 1'000'000'000, [&](std::size_t i) {
    std::uint64_t trace = (i << 8) | 5;
    Span root(t, "bench.report_batch", trace);
    std::vector<std::string> wires;
    {
      Span span(t, "probe.report_encode", trace, root.id(), kWindow);
      wires = encode_window();
    }
    std::uint64_t target = monitor.reports_received() + kWindow;
    {
      Span span(t, "net.report_send", trace, root.id(), kWindow);
      send_window(wires);
    }
    {
      Span span(t, "monitor.poll_batch", trace, root.id(), kWindow);
      drain_window(target);
    }
    {
      Span span(t, "probe.report_decode", trace, root.id(), wires.size());
      for (const std::string& wire : wires) {
        auto parsed = ss::probe::StatusReport::from_wire(wire);
        (void)parsed;
      }
    }
  });

  // Store writes and reads at fleet size, on the monitor's store.
  ss::util::Rng rng(in.seed + 41);
  sample_loop(300, 1'000'000'000, [&](std::size_t i) {
    std::uint64_t trace = (i << 8) | 6;
    Host& host = hosts[static_cast<std::size_t>(rng.uniform_int(0, n - 1))];
    advance(host);
    ss::ipc::SysRecord record = ss::monitor::to_sys_record(host.report, ss::ipc::steady_now_ns());
    Span root(t, "bench.store_write", trace);
    {
      Span span(t, "ipc.put_sys", trace, root.id());
      store.put_sys(record);
    }
    {
      Span span(t, "ipc.snapshot_rebuild", trace, root.id());
      store.snapshot();
    }
    {
      Span span(t, "ipc.snapshot_cached", trace, root.id(), 1000);
      for (int k = 0; k < 1000; ++k) store.snapshot();
    }
  });
}

/// Times pushes at the workload's churn; returns the bytes of each push.
std::vector<double> time_push_path(Tracer& t, const LayerInputs& in) {
  std::vector<double> push_bytes;
  ss::ipc::SnapshotPtr live = in.live.monitor_store.snapshot();
  ss::ipc::InMemoryStatusStore source;
  ss::ipc::InMemoryStatusStore replica;
  for (const auto& rec : live->sys) source.put_sys(rec);
  for (const auto& rec : live->net) source.put_net(rec);
  for (const auto& rec : live->sec) source.put_sec(rec);
  ss::transport::Receiver receiver(ss::transport::ReceiverConfig{}, replica);
  if (!receiver.valid() || !receiver.start()) return push_bytes;
  ss::transport::TransmitterConfig tx;
  tx.receiver = receiver.endpoint();
  ss::transport::Transmitter transmitter(tx, source);
  auto wait_applied = [&](std::uint64_t before) {
    std::uint64_t until = now_ns() + 2'000'000'000ull;
    while (receiver.snapshots_received() <= before && now_ns() < until) sleep_ns(20'000);
  };
  std::uint64_t before = receiver.snapshots_received();
  transmitter.transmit_once();  // the first push to a fresh receiver is full
  wait_applied(before);

  std::vector<Host> hosts = in.fleet.hosts;
  std::size_t next = 0;
  sample_loop(12, 1'500'000'000, [&](std::size_t i) {
    for (std::size_t k = 0; k < in.churn; ++k) {
      Host& host = hosts[next++ % hosts.size()];
      advance(host);
      source.put_sys(ss::monitor::to_sys_record(host.report, ss::ipc::steady_now_ns()));
    }
    std::uint64_t trace = (i << 8) | 7;
    Span root(t, "bench.push", trace);
    std::uint64_t applied = receiver.snapshots_received();
    std::uint64_t bytes = transmitter.bytes_sent();
    {
      Span span(t, "transport.transmit_once", trace, root.id());
      transmitter.transmit_once();
    }
    push_bytes.push_back(static_cast<double>(transmitter.bytes_sent() - bytes));
    {
      Span span(t, "transport.apply_wait", trace, root.id());
      wait_applied(applied);
    }
  });
  receiver.stop();

  sample_loop(10, 1'000'000'000, [&](std::size_t i) {
    ss::ipc::InMemoryStatusStore fresh;
    std::uint64_t trace = (i << 8) | 8;
    Span root(t, "bench.full_apply", trace);
    Span span(t, "ipc.replace_sys", trace, root.id());
    fresh.replace_sys(live->sys);
  });
  return push_bytes;
}

void time_span_record(Tracer& t) {
  ss::obs::SpanStore store(4096);
  sample_loop(10, 500'000'000, [&](std::size_t i) {
    Span span(t, "obs.span_record", (i << 8) | 9, 0, 4096);
    for (int k = 0; k < 4096; ++k) {
      ss::obs::Span recorded("bench", "probe", "", 0, store);
    }
  });
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + format_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int usage(const char* error) {
  std::fprintf(stderr,
               "smartbench: %s\nusage: smartbench --workload select_cached|select_uncached|"
               "fleet_ingest --seed N --seconds S --trace 0|1 [--trace-dir DIR]\n",
               error);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      trace = value == "1";
    } else if (arg == "--trace-dir") {
      trace_dir = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload == w.name) spec = &w;
  }
  if (spec == nullptr) return usage("unknown workload");
  if (!(seconds > 0)) return usage("--seconds must be positive");

  Fleet fleet = make_fleet(spec->fleet, seed);
  Picker picker(spec->pool, fleet);

  // Set-up: boot the pipeline kSetups times and keep the last one.
  std::vector<double> setup_s;
  std::unique_ptr<Pipeline> pipeline;
  for (int i = 0; i < kSetups; ++i) {
    pipeline.reset();
    std::string error;
    std::uint64_t started = now_ns();
    pipeline = boot(fleet, error);
    if (!pipeline) {
      std::fprintf(stderr, "smartbench: setup failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(now_ns() - started) / 1e9);
  }
  Pipeline& p = *pipeline;

  Tracer tracer(trace);
  auto window_ns = static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t t0 = now_ns();
  Shared shared{p, fleet, *spec, picker, tracer, Tracer(false), seed, t0, t0 + window_ns};

  auto cache_before = p.wizard->reply_cache_stats();
  auto req_cache_before = p.wizard->requirement_cache().stats();
  std::uint64_t delta_before = p.transmitter->delta_pushes();
  std::uint64_t full_before = p.transmitter->full_pushes();
  std::uint64_t admitted_before = p.monitor->reports_received();
  std::uint64_t sent_before = p.reports_sent;

  ReporterOutcome reporter;
  std::vector<Outcome> clients(spec->clients);
  std::vector<std::thread> threads;
  threads.emplace_back([&] { run_reporter(shared, reporter); });
  for (std::size_t i = 0; i < spec->clients; ++i) {
    threads.emplace_back([&, i] { run_client(shared, i, clients[i]); });
  }
  // Admitted reports per push interval, read at the interval boundaries.
  std::vector<double> ingest_rates;
  std::uint64_t admitted_mark = admitted_before;
  std::uint64_t mark_ns = shared.t0;
  for (std::uint64_t from = shared.t0; from < shared.t_end; from += kPushIntervalNs) {
    std::uint64_t to = std::min(shared.t_end, from + kPushIntervalNs);
    sleep_ns(to - std::min(to, now_ns()));
    std::uint64_t admitted = p.monitor->reports_received();
    std::uint64_t at = now_ns();
    ingest_rates.push_back(static_cast<double>(admitted - admitted_mark) * 1e9 /
                           static_cast<double>(at - mark_ns));
    admitted_mark = admitted;
    mark_ns = at;
  }
  std::uint64_t admitted_in_window = admitted_mark - admitted_before;
  shared.stop.store(true);
  for (std::thread& thread : threads) thread.join();

  auto cache_after = p.wizard->reply_cache_stats();
  auto req_cache_after = p.wizard->requirement_cache().stats();
  std::uint64_t delta_pushes = p.transmitter->delta_pushes() - delta_before;
  std::uint64_t full_pushes = p.transmitter->full_pushes() - full_before;

  // Convergence: every report admitted, then one more push and apply, after
  // which the wizard-side store equals the model value for value.
  p.wait_in_flight(0);
  std::uint64_t reports = p.reports_sent - sent_before + p.send_errors;
  std::uint64_t lost_reports = p.in_flight() + p.send_errors;
  p.transmitter->transmit_once();
  std::string divergence = "not compared";
  std::uint64_t until = now_ns() + 3'000'000'000ull;
  while (now_ns() < until) {
    divergence = compare_store(p, fleet);
    if (divergence.empty()) break;
    sleep_ns(5'000'000);
  }

  Outcome queries;
  for (Outcome& c : clients) queries.merge(std::move(c));
  std::uint64_t markers = reporter.markers.size();
  std::vector<double> freshness_ms;
  for (const Marker& m : reporter.markers) {
    if (m.seen_ns != 0) freshness_ms.push_back(static_cast<double>(m.seen_ns - m.sent_ns) / 1e6);
  }
  std::uint64_t unseen = markers - freshness_ms.size();
  // Query-path figures come from the closed-loop clients, or from the
  // prober's queries on a workload without clients.
  Outcome& timed = spec->clients > 0 ? queries : reporter.probe;
  // Rates are medians over push intervals, so a burst of CPU stolen from
  // the machine in one interval does not move them.
  // A query rate is (completions - 1) over the time from the interval's
  // first completion to its last.
  struct Interval {
    std::uint64_t count = 0;
    std::uint64_t first_ns = UINT64_MAX;
    std::uint64_t last_ns = 0;
  };
  std::vector<const Reservoir*> all;
  std::map<std::size_t, Interval> intervals;
  for (const Reservoir& part : timed.rtt_us) {
    all.push_back(&part);
    if (part.seen() == 0) continue;
    Interval& interval = intervals[part.window()];
    interval.count += part.seen();
    interval.first_ns = std::min(interval.first_ns, part.first_ns());
    interval.last_ns = std::max(interval.last_ns, part.last_ns());
  }
  std::vector<double> query_rates;
  for (const auto& [w, interval] : intervals) {
    if (interval.count < 2 || interval.last_ns == interval.first_ns) continue;
    query_rates.push_back(static_cast<double>(interval.count - 1) * 1e9 /
                          static_cast<double>(interval.last_ns - interval.first_ns));
  }
  double rtt_p50 = percentile(all, 50);
  queries.merge(std::move(reporter.probe));

  bool correct = queries.wrong_answers == 0 && divergence.empty();
  std::uint64_t attempted = queries.queries + reports + markers;
  std::uint64_t failed = queries.query_failures + lost_reports + unseen;
  for (const std::string& e : queries.errors) std::fprintf(stderr, "smartbench: %s\n", e.c_str());
  if (!divergence.empty()) std::fprintf(stderr, "smartbench: convergence: %s\n", divergence.c_str());
  std::printf("accounting workload=%s queries=%llu/%llu reports=%llu/%llu markers=%llu/%llu "
              "(attempted/failed)\n",
              spec->name, static_cast<unsigned long long>(queries.queries),
              static_cast<unsigned long long>(queries.query_failures),
              static_cast<unsigned long long>(reports),
              static_cast<unsigned long long>(lost_reports),
              static_cast<unsigned long long>(markers), static_cast<unsigned long long>(unseen));

  std::vector<Metric> metrics;
  if (!trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics = {
        {"query_rtt_p50_us", rtt_p50, "us"},
        {"query_throughput_qps", median(query_rates), "1/s"},
        {"ingest_reports_per_s", median(ingest_rates), "1/s"},
        {"freshness_p50_ms", percentile(freshness_ms, 50), "ms"},
        {"freshness_p90_ms", percentile(freshness_ms, 90), "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
    };
  } else {
    std::size_t churn = spec->streaming
                            ? std::min<std::size_t>(
                                  fleet.hosts.size(),
                                  static_cast<std::size_t>(static_cast<double>(admitted_in_window) /
                                                           seconds * kPushIntervalNs / 1e9))
                            : fleet.hosts.size() * kPushIntervalNs / kReportIntervalNs;
    LayerInputs in{p, fleet, picker, churn, seed};
    time_query_path(tracer, in);
    time_match_path(tracer, in);
    time_report_path(tracer, in);
    std::vector<double> push_bytes = time_push_path(tracer, in);
    time_span_record(tracer);

    auto med = [&](const char* name, double scale) {
      return median(tracer.per_op_ns(name)) / scale;
    };
    auto ratio = [](std::uint64_t part, std::uint64_t whole) {
      return whole ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
    };
    std::uint64_t hits = cache_after.hits - cache_before.hits;
    std::uint64_t misses = cache_after.misses - cache_before.misses;
    std::uint64_t req_hits = req_cache_after.hits - req_cache_before.hits;
    std::uint64_t req_misses = req_cache_after.misses - req_cache_before.misses;
    metrics = {
        {"net.udp_roundtrip_us", med("net.udp_roundtrip", 1e3), "us"},
        {"net.rcvbuf_drops", static_cast<double>(p.monitor->shard_kernel_drops(0)), "count"},
        {"core.handle_hit_us", med("core.handle_hit", 1e3), "us"},
        {"core.handle_miss_us", med("core.handle_miss", 1e3), "us"},
        {"core.match_us", median(tracer.durations_ns("core.match")) / 1e3, "us"},
        {"core.match_ns_per_record", med("core.match", 1), "ns"},
        {"core.attributes_ns", med("core.attributes", 1), "ns"},
        {"core.request_decode_us", med("core.request_decode", 1e3), "us"},
        {"core.reply_encode_us", med("core.reply_encode", 1e3), "us"},
        {"core.reply_decode_us", med("core.reply_decode", 1e3), "us"},
        {"core.reply_cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
        {"lang.compile_us", med("lang.compile", 1e3), "us"},
        {"lang.evaluate_ns", med("lang.evaluate", 1), "ns"},
        {"lang.requirement_cache_hit_ratio", ratio(req_hits, req_hits + req_misses), "ratio"},
        {"ipc.put_sys_us", med("ipc.put_sys", 1e3), "us"},
        {"ipc.snapshot_rebuild_us", med("ipc.snapshot_rebuild", 1e3), "us"},
        {"ipc.snapshot_cached_ns", med("ipc.snapshot_cached", 1), "ns"},
        {"ipc.replace_sys_ms", med("ipc.replace_sys", 1e6), "ms"},
        {"probe.report_encode_us", med("probe.report_encode", 1e3), "us"},
        {"probe.report_decode_us", med("probe.report_decode", 1e3), "us"},
        {"monitor.report_ingest_us", med("monitor.poll_batch", 1e3), "us"},
        {"monitor.reports_admitted", static_cast<double>(p.monitor->reports_received()), "count"},
        {"monitor.reports_rejected", static_cast<double>(p.monitor->reports_rejected()), "count"},
        {"monitor.records_expired", static_cast<double>(p.monitor->records_expired()), "count"},
        {"transport.push_ms", med("transport.transmit_once", 1e6), "ms"},
        {"transport.push_bytes", median(push_bytes), "bytes"},
        {"transport.delta_push_ratio", ratio(delta_pushes, delta_pushes + full_pushes), "ratio"},
        {"obs.span_record_ns", med("obs.span_record", 1), "ns"},
    };
    std::map<std::string, double> self = tracer.self_ns_by_layer();
    double total = 0;
    for (const auto& [layer, ns] : self) total += ns;
    for (const auto& [layer, ns] : self) {
      std::printf("self_time layer=%s ms=%.3f share=%.4f\n", layer.c_str(), ns / 1e6,
                  total > 0 ? ns / total : 0.0);
    }
    std::string path = trace_dir + "/trace_" + spec->name + ".json";
    if (!tracer.write_chrome_trace(path)) {
      std::fprintf(stderr, "smartbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace written to %s\n", path.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("metric %s = %s %s\n", m.name.c_str(), format_number(m.value).c_str(),
                m.unit.c_str());
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
