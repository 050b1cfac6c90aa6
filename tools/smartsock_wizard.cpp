// smartsock_wizard — the wizard-machine daemon (§3.5.2-3.6.1).
//
// Hosts the receiver (mirroring the monitor machine's databases) and the
// wizard (answering user requests over UDP). In distributed mode the
// receiver pulls from each --transmitter on demand.
//
//   smartsock_wizard --listen 0.0.0.0:1120 --receiver 0.0.0.0:1121
//   smartsock_wizard --listen 0.0.0.0:1120 --mode distributed \
//                    --transmitter 10.0.0.2:1110,10.0.5.2:1110
//
// Observability: --stats-port serves the metrics registry snapshot over TCP
// (query with smartsock_stats); --stats-dump/--stats-dump-interval append
// periodic JSONL snapshots to a file for post-mortem analysis.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <memory>

#include "core/wizard.h"
#include "ipc/in_memory_store.h"
#include "ipc/sysv_store.h"
#include "obs/blackbox.h"
#include "obs/stats_server.h"
#include "util/args.h"
#include "util/strings.h"

using namespace smartsock;

namespace {
volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv,
                  {"listen", "receiver", "mode", "transmitter", "local-group", "sysv",
                   "no-delta", "threads", "match-threads", "cache-size",
                   "staleness-bound-ms", "stats-port", "stats-dump",
                   "stats-dump-interval", "rcvbuf", "help"});
  if (!args.ok() || args.has("help")) {
    std::fprintf(stderr,
                 "usage: smartsock_wizard --listen ip:port [--receiver ip:port] "
                 "[--mode centralized|distributed] [--transmitter ip:port,...] "
                 "[--local-group name] [--sysv] [--no-delta] [--threads n] "
                 "[--match-threads n] "
                 "[--cache-size n] [--staleness-bound-ms n] [--stats-port port] "
                 "[--stats-dump file] [--stats-dump-interval seconds] "
                 "[--rcvbuf bytes]\n");
    return args.has("help") ? 0 : 2;
  }

  // Crash blackbox (ISSUE 7): fatal signals dump spans + log tail + metrics
  // to smartsock_wizard.postmortem (override with SMARTSOCK_BLACKBOX).
  obs::Blackbox::install("smartsock_wizard");

  std::unique_ptr<ipc::StatusStore> store;
  if (args.has("sysv")) {
    store = ipc::SysVStatusStore::create(ipc::SysVKeys::wizard_machine());
    if (!store) {
      std::fprintf(stderr, "SysV IPC unavailable; falling back to in-memory store\n");
    }
  }
  if (!store) store = std::make_unique<ipc::InMemoryStatusStore>();

  transport::ReceiverConfig rx_config;
  rx_config.bind = net::Endpoint::parse(args.get_or("receiver", "127.0.0.1:1121"))
                       .value_or(net::Endpoint::loopback(1121));
  // --no-delta refuses delta offers (pre-delta receiver behaviour);
  // transmitters then fall back to full snapshots.
  rx_config.delta_enabled = !args.has("no-delta");
  transport::Receiver receiver(rx_config, *store);
  if (!receiver.valid()) {
    std::fprintf(stderr, "cannot bind receiver\n");
    return 1;
  }

  core::WizardConfig wizard_config;
  auto listen = net::Endpoint::parse(args.get_or("listen", "127.0.0.1:1120"));
  if (!listen) {
    std::fprintf(stderr, "bad --listen endpoint\n");
    return 2;
  }
  wizard_config.bind = *listen;
  wizard_config.local_group = args.get_or("local-group", "local");
  wizard_config.handler_threads =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int_or("threads", 1)));
  wizard_config.rcvbuf_bytes = static_cast<int>(
      std::clamp<std::int64_t>(args.get_int_or("rcvbuf", 0), 0, 1 << 30));
  wizard_config.match_threads =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int_or("match-threads", 1)));
  wizard_config.cache_size =
      static_cast<std::size_t>(std::max<std::int64_t>(0, args.get_int_or("cache-size", 128)));
  // 0 (the default) disables degraded-mode stale flagging entirely.
  wizard_config.staleness_bound = util::from_millis(static_cast<double>(
      std::max<std::int64_t>(0, args.get_int_or("staleness-bound-ms", 0))));
  std::string mode = args.get_or("mode", "centralized");
  wizard_config.mode = mode == "distributed" ? transport::TransferMode::kDistributed
                                             : transport::TransferMode::kCentralized;

  core::Wizard wizard(wizard_config, *store, &receiver);
  if (!wizard.valid()) {
    std::fprintf(stderr, "%s\n", wizard.bind_error().c_str());
    return 1;
  }

  if (wizard_config.mode == transport::TransferMode::kCentralized) {
    receiver.start();
    std::printf("receiver accepting pushes on %s\n",
                receiver.endpoint().to_string().c_str());
  } else {
    std::string transmitter_list = args.get_or("transmitter", "");
    for (std::string_view spec : util::split(transmitter_list, ',')) {
      auto endpoint = net::Endpoint::parse(spec);
      if (endpoint) {
        wizard.add_transmitter(*endpoint);
        std::printf("will pull from transmitter %s\n", endpoint->to_string().c_str());
      }
    }
  }
  wizard.start();
  std::printf("wizard serving on %s (%s mode)\n", wizard.endpoint().to_string().c_str(),
              mode.c_str());

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
    // Flight recorder (ISSUE 4): 1 s metric history plus SLO verdicts behind
    // the same endpoint (`history <metric>` / `health` commands).
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
  wizard.stop();
  receiver.stop();
  std::printf("wizard stopped after %llu requests\n",
              static_cast<unsigned long long>(wizard.requests_served()));
  return 0;
}
