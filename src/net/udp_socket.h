// UDP datagram socket.
//
// UDP carries the low-overhead paths of the system: probe status reports
// (§3.2.1), wizard request/reply (§3.6.1) and the one-way bandwidth probes
// (§3.3.2) — the thesis picks UDP precisely to keep probing overhead small.
//
// receive_batch moves a whole burst per syscall via recvmmsg on Linux, with
// a portable single-syscall fallback; the system monitor drains probe
// reports through it. Fault injection applies per-datagram inside a batch
// so the chaos suites bite identically on the fast path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/socket.h"

namespace smartsock::net {

struct Datagram {
  std::string payload;
  Endpoint peer;
};

/// Options applied between socket() and bind() for ingest sockets.
struct UdpBindOptions {
  /// SO_RCVBUF sizing; 0 keeps the kernel default. Bursts beyond the buffer
  /// are dropped by the kernel — visible via track_kernel_drops.
  int rcvbuf_bytes = 0;

  /// Enable SO_RXQ_OVFL: the kernel attaches its cumulative drop counter to
  /// every received datagram, surfaced through kernel_drops(). Only the
  /// batched mmsg receive path reads the counter.
  bool track_kernel_drops = false;
};

class UdpSocket : public Socket {
 public:
  UdpSocket() = default;

  /// Creates an unbound UDP socket.
  static std::optional<UdpSocket> create();

  /// Creates and binds; port 0 requests an ephemeral port (read back with
  /// local_endpoint()).
  static std::optional<UdpSocket> bind(const Endpoint& endpoint);

  /// Creates and binds with ingest options (receive-buffer sizing, kernel
  /// drop accounting).
  static std::optional<UdpSocket> bind(const Endpoint& endpoint,
                                       const UdpBindOptions& options);

  /// Sends one datagram; returns bytes sent, accounting to the counter.
  IoResult send_to(std::string_view payload, const Endpoint& peer);

  /// Receives one datagram of up to max_size bytes. Honors SO_RCVTIMEO.
  IoResult receive_from(std::string& payload, Endpoint& peer, std::size_t max_size = 64 * 1024);

  /// Non-blocking receive (MSG_DONTWAIT): returns kTimeout immediately when
  /// the socket buffer is empty, regardless of SO_RCVTIMEO. Lets an ingest
  /// loop drain a burst of datagrams in one wakeup, resizing `payload` in
  /// place so a reused string stops allocating after the first call.
  IoResult try_receive_from(std::string& payload, Endpoint& peer,
                            std::size_t max_size = 64 * 1024);

  /// Convenience: receive with timeout applied for just this call. When
  /// `result_out` is non-null it carries the full IoResult — status and
  /// errno — so failover-aware callers (ISSUE 8) can tell a hard peer error
  /// (ECONNREFUSED from a dead replica) from an ordinary timeout.
  std::optional<Datagram> receive(util::Duration timeout, std::size_t max_size = 64 * 1024,
                                  IoResult* result_out = nullptr);

  /// Receives up to `max_batch` datagrams in one recvmmsg: blocks for the
  /// first datagram honoring SO_RCVTIMEO (MSG_WAITFORONE), then takes
  /// whatever else is already queued without waiting. `batch` is resized to
  /// the number received and its entries are reused across calls, so a
  /// steady-state ingest loop stops allocating. Each entry's payload is
  /// capped at `max_size` bytes (longer datagrams are truncated by the
  /// kernel). Returns the count received; 0 with kTimeout in `result_out`
  /// when SO_RCVTIMEO expires. Injected faults (drop) apply per-datagram.
  std::size_t receive_batch(std::vector<Datagram>& batch, std::size_t max_batch,
                            std::size_t max_size = 2048, IoResult* result_out = nullptr);

  /// Total datagrams the kernel reports dropped on this socket's receive
  /// queue (SO_RXQ_OVFL), as of the newest datagram read by the batched
  /// path. Requires UdpBindOptions::track_kernel_drops.
  std::uint64_t kernel_drops() const { return kernel_drops_; }

  /// Forces the portable single-syscall fallback even on Linux (tests prove
  /// behavior parity between recvmmsg and the loop fallback).
  void set_force_syscall_fallback(bool on) { force_fallback_ = on; }

 private:
  IoResult receive_impl(int flags, std::string& payload, Endpoint& peer,
                        std::size_t max_size);
  void note_rxq_counter(std::uint32_t cumulative);

  bool force_fallback_ = false;
  bool rxq_tracking_ = false;
  std::uint32_t last_rxq_ = 0;
  std::uint64_t kernel_drops_ = 0;
};

}  // namespace smartsock::net
