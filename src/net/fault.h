// Deterministic fault injection for the socket stack (ISSUE 3 tentpole,
// part 1).
//
// Chaos harness for everything above the sockets: a FaultInjector, seeded
// and therefore reproducible, sits inside UdpSocket/TcpSocket and — at
// configured probabilities — drops, delays, duplicates, truncates or
// corrupts datagrams, truncates TCP writes mid-frame, force-resets
// connections and fails connect() attempts. The retry/backoff, circuit
// breaker, staleness degradation and quarantine logic in the layers above
// are all exercised against these faults in tests/failure_test.cpp.
//
// Batched receive (UdpSocket::receive_batch) draws every decision
// per-datagram in arrival order, so the recvmmsg fast path and the
// single-syscall fallback consume the seeded RNG identically — a chaos run
// reproduces regardless of which path ran.
//
// Installation, in precedence order:
//   1. per-socket:  socket.set_fault_injector(&injector)  (tests)
//   2. process-global: FaultInjector::install_global(&injector), or the
//      SMARTSOCK_FAULTS environment variable parsed on first use, e.g.
//        SMARTSOCK_FAULTS="seed=7,udp_drop_send=0.2,tcp_reset_send=0.05"
// No injector installed (the default) costs one relaxed atomic load per op.
//
// Injected delays sleep on a util::Clock, so tests substitute a
// sim::VirtualClock and advance time without real sleeping.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "util/clock.h"
#include "util/config.h"
#include "util/rng.h"

namespace smartsock::net {

/// Per-fault probabilities in [0, 1]. Zero (the default) disables a fault.
struct FaultConfig {
  std::uint64_t seed = 1;

  // UDP datagram faults.
  double udp_drop_send = 0.0;   // swallow outgoing datagram (reported sent)
  double udp_drop_recv = 0.0;   // swallow incoming datagram (reported timeout)
  double udp_duplicate = 0.0;   // send the datagram twice
  double udp_truncate = 0.0;    // cut the payload at a random prefix
  double udp_corrupt = 0.0;     // flip random bytes in the payload
  double udp_delay_prob = 0.0;  // sleep udp_delay before sending
  util::Duration udp_delay = std::chrono::milliseconds(5);

  /// Hard UDP send failure: sendto() fails with ECONNREFUSED as if an ICMP
  /// port-unreachable came back from a dead replica (ISSUE 8).
  double udp_refuse_send = 0.0;

  // TCP stream faults.
  double tcp_connect_fail = 0.0;  // connect() refuses immediately
  double tcp_reset_send = 0.0;    // close + ECONNRESET before writing
  double tcp_reset_recv = 0.0;    // close + ECONNRESET before reading
  double tcp_truncate_send = 0.0; // write a random prefix, then close

  /// Reads faults from key=value pairs named exactly like the fields above
  /// (unknown keys ignored, so one config file can carry other sections).
  static FaultConfig from_config(const util::Config& config);

  /// Parses "k=v,k=v,..." (commas or whitespace between pairs).
  static std::optional<FaultConfig> from_string(const std::string& text);

  /// True if any probability is non-zero.
  bool any() const;
};

/// Counts of injected faults, readable while injection runs.
struct FaultStats {
  std::uint64_t udp_dropped_send = 0;
  std::uint64_t udp_dropped_recv = 0;
  std::uint64_t udp_duplicated = 0;
  std::uint64_t udp_truncated = 0;
  std::uint64_t udp_corrupted = 0;
  std::uint64_t udp_delayed = 0;
  std::uint64_t udp_refused_send = 0;
  std::uint64_t tcp_connect_failed = 0;
  std::uint64_t tcp_reset_send = 0;
  std::uint64_t tcp_reset_recv = 0;
  std::uint64_t tcp_truncated_send = 0;

  std::uint64_t total() const;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config,
                         util::Clock* clock = &util::SteadyClock::instance());

  // --- decisions, called from the socket hot paths (thread-safe) ----------
  bool drop_udp_send();
  bool drop_udp_recv();
  bool duplicate_udp();
  /// Applies truncation/corruption in place; true if the payload changed.
  bool mutate_udp(std::string& payload);
  /// Sleeps the configured delay on the injector's clock when it fires.
  void maybe_delay_udp();
  /// Whether a send to `peer` ("ip:port") must fail hard with ECONNREFUSED —
  /// either the peer is on the kill list (replica-kill chaos, ISSUE 8) or
  /// the udp_refuse_send probability fires.
  bool refuse_udp_send(const std::string& peer);

  /// Replica-kill hook: while `on`, every UDP send to `peer` fails with
  /// ECONNREFUSED — the deterministic stand-in for an ICMP port-unreachable
  /// from a SIGKILLed wizard. Thread-safe; toggled live mid-storm.
  void set_udp_refuse_endpoint(const std::string& peer, bool on);

  bool fail_connect();
  bool reset_send();
  bool reset_recv();
  /// Returns the byte count to actually write (< size when truncating).
  std::size_t truncate_send(std::size_t size);

  FaultStats stats() const;
  const FaultConfig& config() const { return config_; }

  // --- process-global installation ---------------------------------------
  /// The active global injector: an installed one, else the injector lazily
  /// built from SMARTSOCK_FAULTS (nullptr when the variable is unset/empty).
  static FaultInjector* global();

  /// Replaces the global injector; returns the previous one. Passing
  /// nullptr disables global injection (the env fallback stays consumed).
  static FaultInjector* install_global(FaultInjector* injector);

 private:
  bool roll(double p, std::atomic<std::uint64_t>& counter, const char* metric);

  FaultConfig config_;
  util::Clock* clock_;
  std::mutex rng_mu_;
  util::Rng rng_;

  std::atomic<std::uint64_t> udp_dropped_send_{0};
  std::atomic<std::uint64_t> udp_dropped_recv_{0};
  std::atomic<std::uint64_t> udp_duplicated_{0};
  std::atomic<std::uint64_t> udp_truncated_{0};
  std::atomic<std::uint64_t> udp_corrupted_{0};
  std::atomic<std::uint64_t> udp_delayed_{0};
  std::atomic<std::uint64_t> udp_refused_send_{0};
  std::atomic<std::uint64_t> tcp_connect_failed_{0};

  std::mutex refuse_mu_;
  std::vector<std::string> refused_endpoints_;
  std::atomic<std::uint64_t> tcp_reset_send_{0};
  std::atomic<std::uint64_t> tcp_reset_recv_{0};
  std::atomic<std::uint64_t> tcp_truncated_send_{0};
};

/// RAII global installation for tests: installs on construction, restores
/// the previous global on destruction.
class ScopedGlobalFaults {
 public:
  explicit ScopedGlobalFaults(FaultInjector& injector)
      : previous_(FaultInjector::install_global(&injector)) {}
  ~ScopedGlobalFaults() { FaultInjector::install_global(previous_); }

  ScopedGlobalFaults(const ScopedGlobalFaults&) = delete;
  ScopedGlobalFaults& operator=(const ScopedGlobalFaults&) = delete;

 private:
  FaultInjector* previous_;
};

}  // namespace smartsock::net
