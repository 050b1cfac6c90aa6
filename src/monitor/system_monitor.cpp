#include "monitor/system_monitor.h"

#include "util/counters.h"
#include "util/logging.h"

namespace smartsock::monitor {
namespace {

// Receive-slot size for batched ingest; a wire report is a few hundred
// bytes, so 2 KB leaves ample headroom (oversized datagrams are truncated
// and rejected as malformed).
constexpr std::size_t kMaxReportBytes = 2048;

}  // namespace

ipc::SysRecord to_sys_record(const probe::StatusReport& report, std::uint64_t now_ns) {
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, report.host);
  ipc::copy_fixed(record.address, ipc::kAddressLen, report.address);
  ipc::copy_fixed(record.group, ipc::kGroupLen, report.group);
  record.load1 = report.load1;
  record.load5 = report.load5;
  record.load15 = report.load15;
  record.cpu_user = report.cpu_user;
  record.cpu_nice = report.cpu_nice;
  record.cpu_system = report.cpu_system;
  record.cpu_idle = report.cpu_idle;
  record.bogomips = report.bogomips;
  record.mem_total_mb = report.mem_total_mb;
  record.mem_used_mb = report.mem_used_mb;
  record.mem_free_mb = report.mem_free_mb;
  record.disk_rreq_ps = report.disk_rreq_ps;
  record.disk_rblocks_ps = report.disk_rblocks_ps;
  record.disk_wreq_ps = report.disk_wreq_ps;
  record.disk_wblocks_ps = report.disk_wblocks_ps;
  record.net_rbytes_ps = report.net_rbytes_ps;
  record.net_rpackets_ps = report.net_rpackets_ps;
  record.net_tbytes_ps = report.net_tbytes_ps;
  record.net_tpackets_ps = report.net_tpackets_ps;
  record.updated_ns = now_ns;
  return record;
}

SystemMonitor::SystemMonitor(SystemMonitorConfig config, ipc::StatusStore& store)
    : config_(std::move(config)), store_(&store) {
  net::UdpBindOptions bind_options;
  bind_options.rcvbuf_bytes = config_.rcvbuf_bytes;
  bind_options.track_kernel_drops = true;
  if (auto sock = net::UdpSocket::bind(config_.bind, bind_options)) {
    socket_ = std::move(*sock);
    socket_.set_traffic_counter(
        obs::MetricsRegistry::instance().traffic("system_monitor"));
    endpoint_ = socket_.local_endpoint();
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  reports_counter_ = registry.counter("sysmon_reports_total");
  rejected_counter_ = registry.counter("sysmon_reports_rejected_total");
  expired_counter_ = registry.counter("sysdb_records_expired_total");
  quarantine_trips_counter_ = registry.counter("sysmon_quarantine_trips_total");
  quarantine_dropped_counter_ =
      registry.counter("sysmon_quarantined_reports_dropped_total");
  batches_counter_ = registry.counter("sysmon_report_batches_total");
  quarantined_hosts_gauge_ = registry.gauge("sysmon_quarantined_hosts");
  last_batch_received_gauge_ = registry.gauge("sysmon_last_batch_received");
  last_batch_ingested_gauge_ = registry.gauge("sysmon_last_batch_ingested");
  rcvbuf_dropped_counter_ = registry.counter("udp_rcvbuf_dropped_total");
  // Per-server staleness: a gauge per sysdb record with the age of its last
  // report, so an operator sees a silent probe *before* the expiry sweep
  // drops the server. Unregistered in the destructor — the collector reads
  // the store this monitor borrows.
  ipc::StatusStore* store_ptr = store_;
  collector_id_ = registry.add_collector([store_ptr](obs::Snapshot& snap) {
    std::uint64_t now_ns = ipc::steady_now_ns();
    std::vector<ipc::SysRecord> records = store_ptr->sys_records();
    snap.gauges.emplace_back("sysdb_records", static_cast<double>(records.size()));
    for (const ipc::SysRecord& record : records) {
      double age_s = record.updated_ns <= now_ns
                         ? static_cast<double>(now_ns - record.updated_ns) / 1e9
                         : 0.0;
      snap.gauges.emplace_back(
          std::string("sysdb_record_age_seconds{host=\"") + record.host + "\"}", age_s);
    }
  });
  if (config_.accept_tcp) {
    // Bind the TCP side on the same port number as the UDP side when the
    // bind requested a specific port, else take another ephemeral one.
    net::Endpoint tcp_bind = endpoint_.valid() && config_.bind.port() != 0
                                 ? config_.bind
                                 : net::Endpoint(config_.bind.ip(), 0);
    if (auto listener = net::TcpListener::listen(tcp_bind)) {
      tcp_listener_ = std::move(*listener);
      tcp_endpoint_ = tcp_listener_.local_endpoint();
    }
  }
}

SystemMonitor::~SystemMonitor() {
  obs::MetricsRegistry::instance().remove_collector(collector_id_);
  stop();
}

bool SystemMonitor::is_quarantined(const std::string& address) const {
  std::lock_guard<std::mutex> lock(flap_mu_);
  auto it = flap_states_.find(address);
  return it != flap_states_.end() &&
         it->second.quarantined_until_ns > ipc::steady_now_ns();
}

bool SystemMonitor::admit_report(const std::string& address) {
  if (config_.flap_threshold <= 0) return true;
  std::uint64_t now = ipc::steady_now_ns();
  auto window_ns =
      static_cast<std::uint64_t>(config_.flap_window.count());

  std::lock_guard<std::mutex> lock(flap_mu_);

  // A host idle past the window starts over, exactly as if the sweep had
  // already pruned its entry; the sweep prunes the other idle hosts.
  HostFlapState& state = flap_states_[address];
  if (state.idle(now, window_ns)) state = HostFlapState{};
  state.last_seen_ns = now;

  if (state.quarantined_until_ns > now) {
    quarantined_dropped_.fetch_add(1, std::memory_order_relaxed);
    quarantine_dropped_counter_->inc();
    return false;
  }

  if (!state.expired) {
    // Steady reporter: once it has stayed up a full window past its last
    // quarantine, its escalation history is forgiven.
    if (state.quarantine_count > 0 && state.flaps_ns.empty() &&
        state.quarantined_until_ns + window_ns < now) {
      state.quarantine_count = 0;
      state.quarantined_until_ns = 0;
    }
    return true;
  }

  // An expired host reporting again = one flap cycle.
  state.expired = false;
  state.flaps_ns.push_back(now);
  while (!state.flaps_ns.empty() && state.flaps_ns.front() + window_ns < now) {
    state.flaps_ns.pop_front();
  }
  if (state.flaps_ns.size() < static_cast<std::size_t>(config_.flap_threshold)) {
    return true;
  }

  // Tripped: drop this report and everything from the host until the
  // (escalating) quarantine elapses.
  double scale = 1.0;
  for (int i = 0; i < state.quarantine_count; ++i) {
    scale *= config_.quarantine_multiplier;
  }
  auto hold = std::chrono::duration_cast<util::Duration>(
      config_.quarantine_backoff * scale);
  if (hold > config_.max_quarantine) hold = config_.max_quarantine;
  state.quarantined_until_ns = now + static_cast<std::uint64_t>(hold.count());
  state.quarantine_count += 1;
  state.flaps_ns.clear();
  quarantine_trips_.fetch_add(1, std::memory_order_relaxed);
  quarantine_trips_counter_->inc();
  quarantined_dropped_.fetch_add(1, std::memory_order_relaxed);
  quarantine_dropped_counter_->inc();

  std::size_t active = 0;
  for (const auto& [host, hs] : flap_states_) {
    if (hs.quarantined_until_ns > now) ++active;
  }
  quarantined_hosts_gauge_->set(static_cast<double>(active));
  SMARTSOCK_LOG(kWarn, "system_monitor")
      << "quarantined flapping host " << address << " for "
      << util::to_millis(hold) << " ms (" << config_.flap_threshold
      << " expire/rejoin cycles inside the window)";
  return false;
}

bool SystemMonitor::ingest_payload(std::string_view payload, const net::Endpoint& peer) {
  auto report = probe::StatusReport::from_wire(payload);
  if (!report) {
    reports_rejected_.fetch_add(1, std::memory_order_relaxed);
    rejected_counter_->inc();
    SMARTSOCK_LOG(kWarn, "system_monitor")
        << "malformed report from " << peer.to_string();
    return false;
  }
  if (!admit_report(report->address)) return false;
  store_->put_sys(to_sys_record(*report, ipc::steady_now_ns()));
  reports_received_.fetch_add(1, std::memory_order_relaxed);
  reports_counter_->inc();
  return true;
}

bool SystemMonitor::poll_once(util::Duration timeout) {
  if (!socket_.valid()) return false;
  auto datagram = socket_.receive(timeout);
  if (!datagram) return false;
  return ingest_payload(datagram->payload, datagram->peer);
}

std::size_t SystemMonitor::poll_batch(util::Duration timeout) {
  if (!socket_.valid()) return 0;
  socket_.set_receive_timeout(timeout);
  return drain_batch();
}

std::size_t SystemMonitor::drain_batch() {
  std::size_t cap = config_.max_batch > 0 ? config_.max_batch : 1;
  // One recvmmsg: the first datagram waits under SO_RCVTIMEO, the rest of
  // the batch is whatever the kernel already queued (MSG_WAITFORONE).
  std::size_t received = socket_.receive_batch(batch_, cap, kMaxReportBytes);
  if (received == 0) return 0;
  std::size_t ingested = 0;
  for (std::size_t i = 0; i < received; ++i) {
    if (ingest_payload(batch_[i].payload, batch_[i].peer)) ++ingested;
  }
  batches_counter_->inc();
  last_batch_received_gauge_->set(static_cast<double>(received));
  last_batch_ingested_gauge_->set(static_cast<double>(ingested));
  // Publish the kernel's receive-queue overflow count (SO_RXQ_OVFL) as a
  // delta — the health engine rates the counter to flag sustained overflow.
  std::uint64_t drops = socket_.kernel_drops();
  if (drops > drops_published_) {
    rcvbuf_dropped_counter_->inc(drops - drops_published_);
    drops_published_ = drops;
  }
  return ingested;
}

std::uint64_t SystemMonitor::shard_kernel_drops(std::size_t shard) const {
  return shard == 0 ? socket_.kernel_drops() : 0;
}

bool SystemMonitor::poll_tcp_once(util::Duration timeout) {
  if (!tcp_listener_.valid()) return false;
  auto connection = tcp_listener_.accept(timeout);
  if (!connection) return false;
  connection->set_receive_timeout(std::chrono::seconds(1));

  std::string line;
  std::string ch;
  while (line.size() < 4096) {
    auto io = connection->receive_exact(ch, 1);
    if (!io.ok()) break;
    if (ch[0] == '\n') break;
    line += ch[0];
  }
  auto report = probe::StatusReport::from_wire(line);
  if (!report) {
    reports_rejected_.fetch_add(1, std::memory_order_relaxed);
    rejected_counter_->inc();
    return false;
  }
  if (!admit_report(report->address)) return false;
  store_->put_sys(to_sys_record(*report, ipc::steady_now_ns()));
  reports_received_.fetch_add(1, std::memory_order_relaxed);
  reports_counter_->inc();
  return true;
}

std::size_t SystemMonitor::sweep_stale() {
  auto max_age = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     config_.probe_interval)
                     .count() *
                 config_.stale_factor;
  std::uint64_t now = ipc::steady_now_ns();
  std::uint64_t cutoff = now > static_cast<std::uint64_t>(max_age)
                             ? now - static_cast<std::uint64_t>(max_age)
                             : 0;
  if (config_.flap_threshold > 0) {
    std::vector<ipc::SysRecord> records;
    if (cutoff > 0) records = store_->sys_records();
    auto window_ns = static_cast<std::uint64_t>(config_.flap_window.count());
    std::lock_guard<std::mutex> lock(flap_mu_);
    // Prune hosts idle past the flap window so the map tracks only live
    // reporters.
    for (auto it = flap_states_.begin(); it != flap_states_.end();) {
      it = it->second.idle(now, window_ns) ? flap_states_.erase(it) : std::next(it);
    }
    // Mark the hosts this sweep is about to drop, so their next report is
    // recognized as a rejoin (one flap cycle) by admit_report().
    for (const ipc::SysRecord& record : records) {
      if (record.updated_ns < cutoff) {
        flap_states_[record.address].expired = true;
      }
    }
  }
  std::size_t removed = store_->expire_sys_older_than(cutoff);
  if (removed > 0) {
    records_expired_.fetch_add(removed, std::memory_order_relaxed);
    expired_counter_->inc(removed);
    SMARTSOCK_LOG(kInfo, "system_monitor")
        << "expired " << removed << " stale sysdb record(s) (cutoff "
        << config_.stale_factor << " intervals)";
  }
  return removed;
}

bool SystemMonitor::start() {
  if (!socket_.valid() || thread_.joinable()) return false;
  stop_requested_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { run_loop(); });
  return true;
}

void SystemMonitor::stop() {
  stop_requested_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void SystemMonitor::run_loop() {
  util::Duration sweep_every = config_.probe_interval;
  util::Duration last_sweep = util::SteadyClock::instance().now();
  while (!stop_requested_.load(std::memory_order_acquire)) {
    poll_batch(std::chrono::milliseconds(40));
    if (tcp_listener_.valid()) {
      poll_tcp_once(std::chrono::milliseconds(5));
    }
    util::Duration now = util::SteadyClock::instance().now();
    if (now - last_sweep >= sweep_every) {
      sweep_stale();
      last_sweep = now;
    }
  }
}

}  // namespace smartsock::monitor
