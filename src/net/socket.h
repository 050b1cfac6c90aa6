// RAII file-descriptor base for sockets.
//
// The thesis builds directly on the BSD socket API; these wrappers keep that
// shape (bind/connect/send/recv with timeouts) while guaranteeing descriptors
// are never leaked — every component here is long-running and restartable.
#pragma once

#include <cstdint>
#include <string>
#include <system_error>

#include "net/endpoint.h"
#include "util/clock.h"
#include "util/counters.h"

namespace smartsock::net {

class FaultInjector;

/// Owning wrapper for a socket descriptor. Move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Closes the descriptor (idempotent).
  void close();

  /// Releases ownership without closing.
  int release();

  /// Local address after bind()/connect(). Invalid endpoint on error.
  Endpoint local_endpoint() const;

  /// Sets SO_RCVTIMEO. Zero clears the timeout (blocking).
  bool set_receive_timeout(util::Duration timeout);

  /// Sets SO_SNDTIMEO.
  bool set_send_timeout(util::Duration timeout);

  /// Sets SO_REUSEADDR (used by restartable daemons).
  bool set_reuse_address(bool on);

  /// Sets SO_RCVBUF. The kernel doubles the requested value for bookkeeping;
  /// read the effective size back with receive_buffer_bytes().
  bool set_receive_buffer(int bytes);

  /// Effective SO_RCVBUF in bytes, or 0 on error.
  int receive_buffer_bytes() const;

  /// Toggles O_NONBLOCK; reactor-owned sockets run non-blocking.
  bool set_nonblocking(bool on);

  /// Attaches a traffic counter; every send/recv through subclasses is
  /// accounted to it. May be nullptr (no accounting).
  void set_traffic_counter(util::TrafficCounter* counter) { counter_ = counter; }
  util::TrafficCounter* traffic_counter() const { return counter_; }

  /// Attaches a fault injector to *this socket only* (tests). When unset,
  /// the process-global injector (FaultInjector::global()) applies.
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }

  /// The injector governing this socket's I/O, or nullptr when chaos is off.
  FaultInjector* active_fault_injector() const;

 protected:
  int fd_ = -1;
  util::TrafficCounter* counter_ = nullptr;
  FaultInjector* fault_ = nullptr;
};

/// Classifies recoverable receive outcomes so callers can loop cleanly.
enum class IoStatus {
  kOk,        // data transferred
  kTimeout,   // SO_RCVTIMEO expired (EAGAIN/EWOULDBLOCK)
  kClosed,    // orderly shutdown by peer (TCP only)
  kError,     // hard error; errno preserved in IoResult::error
};

struct IoResult {
  IoStatus status = IoStatus::kError;
  std::size_t bytes = 0;
  int error = 0;

  bool ok() const { return status == IoStatus::kOk; }
};

/// Whether `error` (an errno from a UDP send/receive) proves the peer is
/// unreachable right now — ECONNREFUSED from an ICMP port-unreachable, or a
/// host/network-unreachable route error. A retry against the same endpoint
/// cannot succeed until the peer comes back, so failover-aware callers
/// (ISSUE 8) demote the replica immediately instead of burning a backoff
/// step. Timeouts and transient errors (EAGAIN, ENOBUFS...) return false.
bool is_hard_peer_error(int error);

}  // namespace smartsock::net
