// smartsock_monitor — the monitor-machine daemon (§3.2.2-3.5.1).
//
// Hosts the system monitor (UDP report sink), the security monitor (dummy
// log file) and the transmitter. Network-monitor targets are configured as
// "group=ip:port" UDP echo endpoints measured with the one-way stream
// method. Uses the SysV shared-memory store with the thesis's keys when
// available (--sysv), else in-memory.
//
//   smartsock_monitor --listen 0.0.0.0:1111 --receiver 10.0.0.9:1121 \
//                     --security-log /etc/smartsock/security.log \
//                     --target lab2=10.0.2.1:7 --interval 2
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <memory>

#include "ipc/in_memory_store.h"
#include "ipc/sysv_store.h"
#include "monitor/network_monitor.h"
#include "monitor/security_monitor.h"
#include "monitor/system_monitor.h"
#include "obs/blackbox.h"
#include "obs/stats_server.h"
#include "transport/transmitter.h"
#include "util/args.h"
#include "util/strings.h"

using namespace smartsock;

namespace {
volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv,
                  {"listen", "receiver", "security-log", "target", "interval", "mode",
                   "local-group", "sysv", "no-delta", "stats-port", "stats-dump",
                   "stats-dump-interval", "rcvbuf", "help"});
  if (!args.ok() || args.has("help")) {
    std::fprintf(stderr,
                 "usage: smartsock_monitor --listen ip:port [--receiver ip:port] "
                 "[--mode centralized|distributed] [--security-log file] "
                 "[--target group=ip:port]... [--local-group name] "
                 "[--interval seconds] [--sysv] [--no-delta] [--stats-port port] "
                 "[--stats-dump file] [--stats-dump-interval seconds] "
                 "[--rcvbuf bytes]\n");
    return args.has("help") ? 0 : 2;
  }

  obs::Blackbox::install("smartsock_monitor");

  // --- store ---------------------------------------------------------------
  std::unique_ptr<ipc::StatusStore> store;
  if (args.has("sysv")) {
    store = ipc::SysVStatusStore::create(ipc::SysVKeys::monitor_machine());
    if (!store) {
      std::fprintf(stderr, "SysV IPC unavailable; falling back to in-memory store\n");
    }
  }
  if (!store) store = std::make_unique<ipc::InMemoryStatusStore>();

  double interval_s = args.get_double_or("interval", 2.0);

  // --- system monitor --------------------------------------------------------
  monitor::SystemMonitorConfig sys_config;
  auto listen = net::Endpoint::parse(args.get_or("listen", "127.0.0.1:1111"));
  if (!listen) {
    std::fprintf(stderr, "bad --listen endpoint\n");
    return 2;
  }
  sys_config.bind = *listen;
  sys_config.probe_interval = util::from_seconds(interval_s);
  sys_config.rcvbuf_bytes = static_cast<int>(
      std::clamp<std::int64_t>(args.get_int_or("rcvbuf", 0), 0, 1 << 30));
  monitor::SystemMonitor system_monitor(sys_config, *store);
  if (!system_monitor.valid() || !system_monitor.start()) {
    std::fprintf(stderr, "cannot bind system monitor to %s\n", listen->to_string().c_str());
    return 1;
  }
  std::printf("system monitor on %s\n", system_monitor.endpoint().to_string().c_str());

  // --- security monitor -------------------------------------------------------
  monitor::SecurityMonitorConfig sec_config;
  sec_config.interval = util::from_seconds(interval_s * 2);
  monitor::SecurityMonitor security_monitor(
      sec_config,
      std::make_unique<monitor::FileSecuritySource>(
          args.get_or("security-log", "/etc/smartsock/security.log")),
      *store);
  security_monitor.start();

  // --- network monitor -------------------------------------------------------
  monitor::NetworkMonitorConfig net_config;
  net_config.local_group = args.get_or("local-group", "local");
  net_config.interval = util::from_seconds(interval_s);
  monitor::NetworkMonitor network_monitor(net_config, *store);
  // Args currently keeps the last value per flag; accept a comma-separated
  // list too: --target "g1=1.2.3.4:7,g2=5.6.7.8:7". The list must outlive
  // the loop — split() returns views into it.
  std::string target_list = args.get_or("target", "");
  for (std::string_view spec : util::split(target_list, ',')) {
    std::size_t eq = spec.find('=');
    if (eq == std::string_view::npos) continue;
    std::string group(spec.substr(0, eq));
    auto endpoint = net::Endpoint::parse(spec.substr(eq + 1));
    if (!endpoint) {
      std::fprintf(stderr, "bad --target '%.*s'\n", (int)spec.size(), spec.data());
      continue;
    }
    network_monitor.add_target({group, monitor::measure_udp_echo(*endpoint)});
    std::printf("network target: %s via %s\n", group.c_str(),
                endpoint->to_string().c_str());
  }
  network_monitor.start();

  // --- transmitter --------------------------------------------------------------
  transport::TransmitterConfig tx_config;
  std::string mode = args.get_or("mode", "centralized");
  tx_config.mode = mode == "distributed" ? transport::TransferMode::kDistributed
                                         : transport::TransferMode::kCentralized;
  tx_config.interval = util::from_seconds(interval_s);
  // --no-delta forces plain full-snapshot pushes (the pre-delta wire),
  // useful against old receivers or for measuring the delta win.
  tx_config.delta_enabled = !args.has("no-delta");
  if (tx_config.mode == transport::TransferMode::kCentralized) {
    // Replica sets (ISSUE 8): --receiver takes a comma-separated list and
    // the transmitter fans every push out to all of them, one breaker each.
    std::string receiver_list = args.get_or("receiver", "");
    for (std::string_view spec : util::split(receiver_list, ',')) {
      auto receiver = net::Endpoint::parse(util::trim(spec));
      if (!receiver) {
        std::fprintf(stderr, "bad --receiver endpoint '%.*s'\n", (int)spec.size(),
                     spec.data());
        return 2;
      }
      tx_config.receivers.push_back(*receiver);
    }
    if (tx_config.receivers.empty()) {
      std::fprintf(stderr,
                   "centralized mode requires --receiver ip:port[,ip:port...]\n");
      return 2;
    }
    tx_config.receiver = tx_config.receivers[0];
  } else {
    tx_config.bind = net::Endpoint::parse(args.get_or("receiver", "127.0.0.1:1110"))
                         .value_or(net::Endpoint::loopback(1110));
  }
  transport::Transmitter transmitter(tx_config, *store);
  if (!transmitter.start()) {
    std::fprintf(stderr, "transmitter failed to start\n");
    return 1;
  }
  std::printf("transmitter in %s mode\n", mode.c_str());
  if (tx_config.mode == transport::TransferMode::kDistributed) {
    std::printf("serving pulls on %s\n", transmitter.endpoint().to_string().c_str());
  }

  // --- stats endpoint -----------------------------------------------------
  // Declared before `stats` so the server (whose config points at them)
  // destructs first.
  std::unique_ptr<obs::TimeSeriesRecorder> history;
  std::unique_ptr<obs::HealthEngine> health;
  std::unique_ptr<obs::StatsServer> stats;
  if (args.has("stats-port") || args.has("stats-dump")) {
    obs::StatsServerConfig stats_config;
    auto stats_port = static_cast<std::uint16_t>(
        std::clamp<std::int64_t>(args.get_int_or("stats-port", 0), 0, 65535));
    stats_config.bind = net::Endpoint(listen->ip(), stats_port);
    stats_config.dump_path = args.get_or("stats-dump", "");
    stats_config.dump_interval =
        util::from_seconds(args.get_double_or("stats-dump-interval", 10.0));
    history = std::make_unique<obs::TimeSeriesRecorder>();
    history->start();
    health = std::make_unique<obs::HealthEngine>();
    stats_config.history = history.get();
    stats_config.health = health.get();
    stats = std::make_unique<obs::StatsServer>(stats_config);
    if (!stats->valid() || !stats->start()) {
      std::fprintf(stderr, "cannot start stats endpoint on %s\n",
                   stats_config.bind.to_string().c_str());
      return 1;
    }
    std::printf("stats endpoint on %s\n", stats->endpoint().to_string().c_str());
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (!g_stop) {
    util::SteadyClock::instance().sleep_for(std::chrono::milliseconds(200));
  }
  if (stats) stats->stop();
  if (history) history->stop();
  transmitter.stop();
  network_monitor.stop();
  security_monitor.stop();
  system_monitor.stop();
  std::printf("monitor stopped: %llu reports ingested\n",
              static_cast<unsigned long long>(system_monitor.reports_received()));
  return 0;
}
