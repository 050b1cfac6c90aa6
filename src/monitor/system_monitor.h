// System status monitor (§3.2.2).
//
// Receives probe reports over UDP, upserts them into the shared sysdb keyed
// by server address, and sweeps stale records: a server whose probe misses 3
// consecutive reporting intervals (§4.1) is considered gone and removed, so
// no further tasks land on it until its probe resumes.
#pragma once

#include <atomic>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "ipc/status_store.h"
#include "net/tcp_listener.h"
#include "net/udp_socket.h"
#include "obs/metrics.h"
#include "probe/status_report.h"
#include "util/clock.h"

namespace smartsock::monitor {

struct SystemMonitorConfig {
  net::Endpoint bind = net::Endpoint::loopback(0);  // port 0 = ephemeral
  util::Duration probe_interval = std::chrono::seconds(2);
  int stale_factor = 3;  // missed intervals before a server expires
  /// Also accept TCP-delivered reports (Ch. 6 "UDP vs TCP"): one
  /// newline-terminated report per connection.
  bool accept_tcp = true;

  /// Max probe reports ingested per loop wakeup: one recvmmsg takes up to
  /// this many queued reports, so a fleet-wide report burst costs one
  /// wakeup instead of one per datagram. Bounded so the TCP side and the
  /// staleness sweep still run under sustained load.
  std::size_t max_batch = 256;

  /// SO_RCVBUF for the ingest socket; 0 keeps the kernel default. Bursts
  /// beyond the buffer are kernel drops, surfaced (via SO_RXQ_OVFL) as
  /// udp_rcvbuf_dropped_total.
  int rcvbuf_bytes = 0;

  /// Flap quarantine (ISSUE 3): a host that expires and rejoins
  /// `flap_threshold` times within `flap_window` is quarantined — its
  /// reports are dropped — for `quarantine_backoff`, doubling per
  /// consecutive quarantine up to `max_quarantine`. A flapping probe
  /// otherwise whipsaws the sysdb (and every wizard reply cache keyed on
  /// its version) once per interval. 0 disables the feature.
  int flap_threshold = 3;
  util::Duration flap_window = std::chrono::seconds(60);
  util::Duration quarantine_backoff = std::chrono::seconds(5);
  double quarantine_multiplier = 2.0;
  util::Duration max_quarantine = std::chrono::seconds(60);
};

/// Converts a parsed probe report into the binary sysdb record.
ipc::SysRecord to_sys_record(const probe::StatusReport& report, std::uint64_t now_ns);

class SystemMonitor {
 public:
  /// `store` is the monitor machine's sysdb (shared with the transmitter).
  SystemMonitor(SystemMonitorConfig config, ipc::StatusStore& store);
  ~SystemMonitor();

  SystemMonitor(const SystemMonitor&) = delete;
  SystemMonitor& operator=(const SystemMonitor&) = delete;

  /// The UDP endpoint probes should report to (resolved after bind).
  net::Endpoint endpoint() const { return endpoint_; }

  /// The TCP endpoint for reliable reporting (invalid if accept_tcp off).
  net::Endpoint tcp_endpoint() const { return tcp_endpoint_; }

  /// Accepts and ingests at most one TCP-delivered report.
  bool poll_tcp_once(util::Duration timeout);

  bool start();
  void stop();

  /// Processes at most one pending datagram (test/polling entry point).
  /// Returns true if a report was ingested.
  bool poll_once(util::Duration timeout);

  /// Blocks up to `timeout` for the first datagram, then drains everything
  /// already queued on the socket (bounded by config.max_batch) with a
  /// reused receive buffer. Returns the number of reports ingested.
  std::size_t poll_batch(util::Duration timeout);

  /// Runs the staleness sweep immediately; returns records removed.
  std::size_t sweep_stale();

  std::uint64_t reports_received() const {
    return reports_received_.load(std::memory_order_relaxed);
  }
  std::uint64_t reports_rejected() const {
    return reports_rejected_.load(std::memory_order_relaxed);
  }
  /// Records removed by staleness sweeps over this monitor's lifetime
  /// (§3.2.2's 3-missed-interval expiry, previously silent).
  std::uint64_t records_expired() const {
    return records_expired_.load(std::memory_order_relaxed);
  }
  /// Quarantines imposed / reports dropped while quarantined.
  std::uint64_t quarantine_trips() const {
    return quarantine_trips_.load(std::memory_order_relaxed);
  }
  std::uint64_t quarantined_reports_dropped() const {
    return quarantined_dropped_.load(std::memory_order_relaxed);
  }
  /// Whether reports from `address` are currently being dropped.
  bool is_quarantined(const std::string& address) const;
  bool valid() const { return socket_.valid(); }

  /// Kernel receive-queue drops observed on the ingest socket so far. The
  /// monitor has one ingest socket, index 0; any other index reads 0.
  std::uint64_t shard_kernel_drops(std::size_t shard) const;

 private:
  void run_loop();
  /// One recvmmsg batch (SO_RCVTIMEO bounds the wait for the first
  /// datagram). Returns reports ingested.
  std::size_t drain_batch();
  /// Flap accounting on ingest; false = drop the report (quarantined).
  bool admit_report(const std::string& address);
  /// Parse + admit + store one received report payload.
  bool ingest_payload(std::string_view payload, const net::Endpoint& peer);

  SystemMonitorConfig config_;
  ipc::StatusStore* store_;
  net::UdpSocket socket_;
  net::Endpoint endpoint_;
  net::TcpListener tcp_listener_;
  net::Endpoint tcp_endpoint_;
  std::vector<net::Datagram> batch_;  // reused receive buffers

  // Per-host flap bookkeeping, keyed by server address. `expired` is set by
  // the sweep when the host drops out; the next admitted report turns it
  // into one recorded flap. Entries idle past the flap window are pruned by
  // the staleness sweep.
  struct HostFlapState {
    bool expired = false;
    std::deque<std::uint64_t> flaps_ns;  // rejoin times inside the window
    std::uint64_t quarantined_until_ns = 0;
    int quarantine_count = 0;  // consecutive quarantines (backoff escalation)
    std::uint64_t last_seen_ns = 0;

    /// Silent for a whole window with nothing pending: safe to forget.
    bool idle(std::uint64_t now, std::uint64_t window_ns) const {
      return last_seen_ns + window_ns < now && quarantined_until_ns < now && !expired;
    }
  };
  mutable std::mutex flap_mu_;
  std::unordered_map<std::string, HostFlapState> flap_states_;

  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> reports_received_{0};
  std::atomic<std::uint64_t> reports_rejected_{0};
  std::atomic<std::uint64_t> records_expired_{0};
  std::atomic<std::uint64_t> quarantine_trips_{0};
  std::atomic<std::uint64_t> quarantined_dropped_{0};

  // Registry-owned counters mirroring the atomics above, plus a snapshot
  // collector that publishes per-server last-report age gauges from sysdb.
  obs::Counter* reports_counter_ = nullptr;
  obs::Counter* rejected_counter_ = nullptr;
  obs::Counter* expired_counter_ = nullptr;
  obs::Counter* quarantine_trips_counter_ = nullptr;
  obs::Counter* quarantine_dropped_counter_ = nullptr;
  obs::Counter* batches_counter_ = nullptr;
  obs::Gauge* quarantined_hosts_gauge_ = nullptr;
  // Last-batch gauges, split (ISSUE 10): datagrams the kernel delivered vs
  // reports that actually landed in the store — malformed or quarantined
  // traffic no longer overcounts ingest.
  obs::Gauge* last_batch_received_gauge_ = nullptr;
  obs::Gauge* last_batch_ingested_gauge_ = nullptr;
  obs::Counter* rcvbuf_dropped_counter_ = nullptr;
  std::uint64_t drops_published_ = 0;
  std::uint64_t collector_id_ = 0;
};

}  // namespace smartsock::monitor
