// UDP ingest: batched recvmmsg receive (and its forced single-syscall
// fallback), per-datagram fault determinism across both paths, SO_RXQ_OVFL
// kernel-drop accounting, the system monitor's batched ingest loop, and the
// receive-queue overflow health rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ipc/in_memory_store.h"
#include "monitor/system_monitor.h"
#include "net/fault.h"
#include "net/udp_socket.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "probe/status_report.h"

namespace {

using namespace smartsock;
using namespace std::chrono_literals;

probe::StatusReport make_report(const std::string& host, const std::string& address) {
  probe::StatusReport report;
  report.host = host;
  report.address = address;
  report.group = "g0";
  report.load1 = 0.5;
  report.cpu_idle = 0.9;
  report.mem_total_mb = 1024;
  report.mem_free_mb = 512;
  return report;
}

/// Sends every payload to `peer` one datagram at a time; returns how many
/// the kernel accepted.
std::size_t send_all(net::UdpSocket& sock, const std::vector<std::string>& payloads,
                     const net::Endpoint& peer) {
  std::size_t sent = 0;
  for (const std::string& payload : payloads) {
    if (sock.send_to(payload, peer).ok()) ++sent;
  }
  return sent;
}

/// Drains `sock` until `want` datagrams arrived or ~2 s passed; payloads
/// are accumulated into `out`.
std::size_t drain_until(net::UdpSocket& sock, std::size_t want,
                        std::vector<std::string>& out) {
  sock.set_receive_timeout(100ms);
  std::vector<net::Datagram> batch;
  auto deadline = std::chrono::steady_clock::now() + 2s;
  while (out.size() < want && std::chrono::steady_clock::now() < deadline) {
    std::size_t n = sock.receive_batch(batch, 64);
    for (std::size_t i = 0; i < n; ++i) out.push_back(batch[i].payload);
  }
  return out.size();
}

// --- batched socket I/O ----------------------------------------------------

TEST(UdpBatchIo, BatchRoundTripMmsgAndFallback) {
  for (bool fallback : {false, true}) {
    SCOPED_TRACE(fallback ? "fallback" : "mmsg");
    auto rx = net::UdpSocket::bind(net::Endpoint::loopback(0));
    auto tx = net::UdpSocket::bind(net::Endpoint::loopback(0));
    ASSERT_TRUE(rx && tx);
    rx->set_force_syscall_fallback(fallback);

    std::vector<std::string> payloads(17);
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      payloads[i] = "datagram-" + std::to_string(i);
    }
    EXPECT_EQ(payloads.size(), send_all(*tx, payloads, rx->local_endpoint()));

    std::vector<std::string> got;
    ASSERT_EQ(payloads.size(), drain_until(*rx, payloads.size(), got));
    std::sort(got.begin(), got.end());
    std::set<std::string> expect(payloads.begin(), payloads.end());
    EXPECT_EQ(std::vector<std::string>(expect.begin(), expect.end()), got);
  }
}

TEST(UdpBatchIo, ReceiveBatchHonorsTimeout) {
  auto sock = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(sock);
  sock->set_receive_timeout(20ms);
  std::vector<net::Datagram> batch;
  net::IoResult result;
  EXPECT_EQ(0u, sock->receive_batch(batch, 8, 2048, &result));
  EXPECT_EQ(net::IoStatus::kTimeout, result.status);
}

/// Receive-side drops apply per-datagram inside a batch, in arrival order,
/// so the mmsg path and the fallback path drop the *same* datagrams for the
/// same seed.
TEST(UdpBatchIo, ReceiveFaultsDeterministicAcrossPaths) {
  auto run = [](bool fallback) {
    net::FaultConfig config;
    config.seed = 7;
    config.udp_drop_recv = 0.4;
    net::FaultInjector injector(config);

    auto rx = net::UdpSocket::bind(net::Endpoint::loopback(0));
    auto tx = net::UdpSocket::bind(net::Endpoint::loopback(0));
    EXPECT_TRUE(rx && tx);
    rx->set_force_syscall_fallback(fallback);

    std::vector<std::string> payloads(24);
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      payloads[i] = "r" + std::to_string(i);
    }
    EXPECT_EQ(payloads.size(), send_all(*tx, payloads, rx->local_endpoint()));
    // Let the kernel queue everything before the faulted drain starts, so
    // both runs see the full batch in one receive_batch call.
    std::this_thread::sleep_for(50ms);
    rx->set_fault_injector(&injector);

    std::vector<std::string> got;
    drain_until(*rx, payloads.size(), got);
    std::sort(got.begin(), got.end());
    return std::make_pair(injector.stats().udp_dropped_recv, got);
  };

  auto mmsg = run(false);
  auto fallback = run(true);
  EXPECT_GT(mmsg.first, 0u);
  EXPECT_EQ(mmsg.first, fallback.first);
  EXPECT_EQ(mmsg.second, fallback.second);
}

#ifdef __linux__
TEST(UdpBatchIo, KernelDropsSurfacedViaRxqOvfl) {
  net::UdpBindOptions options;
  options.rcvbuf_bytes = 4096;  // tiny queue so the blast overflows it
  options.track_kernel_drops = true;
  auto rx = net::UdpSocket::bind(net::Endpoint::loopback(0), options);
  auto tx = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(rx && tx);

  std::vector<std::string> burst(64, std::string(512, 'x'));
  // Nothing reads while we blast, so most of this burst hits a full queue.
  for (int round = 0; round < 32; ++round) send_all(*tx, burst, rx->local_endpoint());

  std::vector<net::Datagram> batch;
  rx->set_receive_timeout(50ms);
  while (rx->receive_batch(batch, 64) > 0) {
  }
  // The kernel stamps its cumulative drop count onto datagrams enqueued
  // *after* the drops — the pre-overflow queue contents carry zero. Send
  // one post-overflow datagram and read it to observe the counter.
  ASSERT_TRUE(tx->send_to("post-overflow", rx->local_endpoint()).ok());
  rx->set_receive_timeout(500ms);
  ASSERT_EQ(1u, rx->receive_batch(batch, 4));
  EXPECT_GT(rx->kernel_drops(), 0u);
}
#endif

TEST(UdpBatchIo, SetReceiveBufferApplies) {
  auto sock = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(sock);
  ASSERT_TRUE(sock->set_receive_buffer(1 << 16));
  // The kernel doubles the request for bookkeeping; only assert a floor.
  EXPECT_GE(sock->receive_buffer_bytes(), 1 << 16);
}

// --- system monitor ingest loop -------------------------------------------

TEST(MonitorBatch, SplitsLastBatchGaugesReceivedVsIngested) {
  ipc::InMemoryStatusStore store;
  monitor::SystemMonitorConfig config;
  config.accept_tcp = false;
  monitor::SystemMonitor monitor(config, store);
  ASSERT_TRUE(monitor.valid());

  auto sock = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(sock);
  std::vector<std::string> batch = {make_report("ok-host", "10.4.0.1:5000").to_wire(),
                                    "definitely not a status report",
                                    make_report("ok-host2", "10.4.0.2:5000").to_wire()};
  ASSERT_EQ(batch.size(), send_all(*sock, batch, monitor.endpoint()));
  std::this_thread::sleep_for(50ms);

  // poll_batch reports *ingested* reports: 3 datagrams drained, 2 parsed.
  EXPECT_EQ(2u, monitor.poll_batch(1s));
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  EXPECT_EQ(3.0, registry.gauge("sysmon_last_batch_received")->value());
  EXPECT_EQ(2.0, registry.gauge("sysmon_last_batch_ingested")->value());
  EXPECT_EQ(2u, store.sys_records().size());  // ...but only 2 reports landed
}

// --- health rule -----------------------------------------------------------

TEST(HealthIngest, RcvbufOverflowFlagsDegraded) {
  obs::MetricsRegistry registry;  // isolated: no cross-test counter bleed
  obs::HealthEngine engine(registry);
  // Metric absent: the rule is not applicable, so ingest reports no finding
  // about receive-queue overflow.
  obs::HealthReport baseline = engine.evaluate();
  for (const auto& subsystem : baseline.subsystems)
    if (subsystem.name == "ingest")
      for (const auto& reason : subsystem.reasons)
        EXPECT_EQ(std::string::npos, reason.find("SO_RCVBUF")) << reason;

  registry.counter("udp_rcvbuf_dropped_total");  // metric appears, zero
  engine.evaluate();                             // baseline for the delta
  registry.counter("udp_rcvbuf_dropped_total")->inc(17);
  obs::HealthReport report = engine.evaluate();

  bool found = false;
  for (const auto& subsystem : report.subsystems) {
    if (subsystem.name != "ingest") continue;
    EXPECT_GE(static_cast<int>(subsystem.level),
              static_cast<int>(obs::HealthLevel::kDegraded));
    for (const auto& reason : subsystem.reasons)
      if (reason.find("SO_RCVBUF") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << report.to_text();

  // Overflow stopped: the next interval's delta is zero and ingest recovers.
  obs::HealthReport recovered = engine.evaluate();
  for (const auto& subsystem : recovered.subsystems)
    if (subsystem.name == "ingest")
      EXPECT_EQ(obs::HealthLevel::kOk, subsystem.level);
}

}  // namespace
