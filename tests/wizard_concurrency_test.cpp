// Multi-threaded wizard under concurrent client load: M client threads fire
// mixed valid/invalid queries over real UDP at a wizard running N handler
// threads; no reply may be lost, requests_served must increase
// monotonically, and every selection must equal the serial matcher's answer
// on the same store snapshot.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/server_matcher.h"
#include "core/smart_client.h"
#include "core/wizard.h"
#include "ipc/in_memory_store.h"
#include "obs/metrics.h"

namespace smartsock::core {
namespace {

using namespace std::chrono_literals;

ipc::SysRecord sys_record(std::size_t i) {
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, "host" + std::to_string(i));
  ipc::copy_fixed(record.address, ipc::kAddressLen,
                  "10.3.0." + std::to_string(i) + ":5000");
  ipc::copy_fixed(record.group, ipc::kGroupLen, "g1");
  record.cpu_idle = 0.1 + static_cast<double>(i % 10) / 10.0;
  record.mem_free_mb = static_cast<double>(100 + i * 7);
  record.mem_total_mb = 1024;
  return record;
}

TEST(WizardConcurrency, MixedQueriesFromManyClients) {
  ipc::InMemoryStatusStore store;
  for (std::size_t i = 0; i < 40; ++i) store.put_sys(sys_record(i));

  WizardConfig config;
  config.handler_threads = 4;
  config.match_threads = 2;
  config.cache_size = 32;
  Wizard wizard(config, store);
  ASSERT_TRUE(wizard.valid()) << wizard.bind_error();
  // Process-wide histogram: compare its count delta against this wizard.
  obs::Histogram* latency =
      obs::MetricsRegistry::instance().histogram("wizard_query_latency_us");
  std::uint64_t latency_before = latency->count();
  ASSERT_TRUE(wizard.start());

  // The valid requirement rotation; each selects a different server subset.
  const std::vector<std::string> valid = {
      "host_cpu_free > 0.5\n",
      "host_cpu_free > 0.8\n",
      "host_memory_free >= 200\nrank_by = host_memory_free\n",
  };
  const std::string malformed = "host_cpu_free > > 1\n";

  // Expected selections from a serial matcher over the same store snapshot
  // (the store does not change during the test).
  MatchInput snapshot;
  snapshot.sys = store.sys_records();
  snapshot.net = store.net_records();
  snapshot.sec = store.sec_records();
  snapshot.local_group = config.local_group;
  ServerMatcher serial;
  std::vector<std::vector<ServerEntry>> expected;
  for (const std::string& text : valid) {
    auto requirement = lang::Requirement::compile(text);
    ASSERT_TRUE(requirement);
    expected.push_back(serial.match(*requirement, snapshot, 8).selected);
  }

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 40;
  std::atomic<int> ok_replies{0};
  std::atomic<int> error_replies{0};
  std::atomic<int> lost_replies{0};
  std::atomic<int> wrong_selections{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SmartClientConfig client_config;
      client_config.wizard = wizard.endpoint();
      client_config.reply_timeout = 1000ms;
      client_config.retries = 3;
      client_config.seed = 1000 + static_cast<std::uint64_t>(c);
      SmartClient client(client_config);
      ASSERT_TRUE(client.valid());

      for (int q = 0; q < kQueriesPerClient; ++q) {
        bool send_invalid = (c + q) % 4 == 0;
        if (send_invalid) {
          WizardReply reply = client.query(malformed, 8);
          // A compile-error reply starts with "requirement:"; anything else
          // (e.g. "no reply from wizard") means the reply was lost.
          if (!reply.ok && reply.error.rfind("requirement:", 0) == 0) {
            ++error_replies;
          } else {
            ++lost_replies;
          }
        } else {
          std::size_t which = static_cast<std::size_t>(c + q) % valid.size();
          WizardReply reply = client.query(valid[which], 8);
          if (!reply.ok) {
            ++lost_replies;
            continue;
          }
          ++ok_replies;
          if (reply.servers != expected[which]) ++wrong_selections;
        }
      }
    });
  }

  // requests_served must be monotone while the clients hammer the wizard.
  std::atomic<bool> sampling{true};
  std::thread monotone_checker([&] {
    std::uint64_t last = 0;
    while (sampling.load()) {
      std::uint64_t now = wizard.requests_served();
      EXPECT_GE(now, last);
      last = now;
      std::this_thread::sleep_for(2ms);
    }
  });

  for (std::thread& client : clients) client.join();
  sampling.store(false);
  monotone_checker.join();
  wizard.stop();

  int total = kClients * kQueriesPerClient;
  EXPECT_EQ(lost_replies.load(), 0);
  EXPECT_EQ(ok_replies.load() + error_replies.load(), total);
  EXPECT_EQ(wrong_selections.load(), 0);
  EXPECT_GT(error_replies.load(), 0);  // the malformed mix actually ran

  // Every answered query was counted exactly once per datagram served;
  // retried datagrams may push the count above `total`, never below the
  // number of distinct replies received.
  EXPECT_GE(wizard.requests_served(),
            static_cast<std::uint64_t>(ok_replies.load() + error_replies.load()));

  // The fast path actually engaged under load: with 3 valid + 1 invalid
  // expression texts and 320 queries, almost everything hits.
  EXPECT_GT(wizard.reply_cache_stats().hits + wizard.requirement_cache().stats().hits, 0u);
  EXPECT_EQ(latency->count() - latency_before, wizard.requests_served());
}

TEST(WizardConcurrency, StartStopIsIdempotentWithThreads) {
  ipc::InMemoryStatusStore store;
  WizardConfig config;
  config.handler_threads = 3;
  Wizard wizard(config, store);
  ASSERT_TRUE(wizard.valid());

  EXPECT_TRUE(wizard.start());
  EXPECT_FALSE(wizard.start());  // already running
  wizard.stop();
  EXPECT_TRUE(wizard.start());  // restartable after stop
  wizard.stop();
}

}  // namespace
}  // namespace smartsock::core
