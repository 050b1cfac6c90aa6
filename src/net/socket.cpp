#include "net/socket.h"

#include <fcntl.h>
#include <sys/socket.h>

#include <cerrno>
#include <sys/time.h>
#include <unistd.h>

#include <utility>

#include "net/fault.h"

namespace smartsock::net {

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      counter_(std::exchange(other.counter_, nullptr)),
      fault_(std::exchange(other.fault_, nullptr)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    counter_ = std::exchange(other.counter_, nullptr);
    fault_ = std::exchange(other.fault_, nullptr);
  }
  return *this;
}

FaultInjector* Socket::active_fault_injector() const {
  return fault_ != nullptr ? fault_ : FaultInjector::global();
}

bool is_hard_peer_error(int error) {
  switch (error) {
    case ECONNREFUSED:
    case ECONNRESET:
    case EHOSTUNREACH:
    case EHOSTDOWN:
    case ENETUNREACH:
    case ENETDOWN:
      return true;
    default:
      return false;
  }
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

int Socket::release() {
  int fd = fd_;
  fd_ = -1;
  return fd;
}

Endpoint Socket::local_endpoint() const {
  if (fd_ < 0) return Endpoint();
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return Endpoint();
  return Endpoint::from_sockaddr(addr);
}

namespace {
timeval to_timeval(util::Duration d) {
  auto usec = std::chrono::duration_cast<std::chrono::microseconds>(d).count();
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(usec / 1000000);
  tv.tv_usec = static_cast<suseconds_t>(usec % 1000000);
  return tv;
}
}  // namespace

bool Socket::set_receive_timeout(util::Duration timeout) {
  if (fd_ < 0) return false;
  timeval tv = to_timeval(timeout);
  return ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0;
}

bool Socket::set_send_timeout(util::Duration timeout) {
  if (fd_ < 0) return false;
  timeval tv = to_timeval(timeout);
  return ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) == 0;
}

bool Socket::set_nonblocking(bool on) {
  if (fd_ < 0) return false;
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return false;
  int updated = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd_, F_SETFL, updated) == 0;
}

bool Socket::set_reuse_address(bool on) {
  if (fd_ < 0) return false;
  int value = on ? 1 : 0;
  return ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &value, sizeof(value)) == 0;
}

bool Socket::set_receive_buffer(int bytes) {
  if (fd_ < 0 || bytes <= 0) return false;
  return ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes)) == 0;
}

int Socket::receive_buffer_bytes() const {
  if (fd_ < 0) return 0;
  int bytes = 0;
  socklen_t len = sizeof(bytes);
  if (::getsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, &len) != 0) return 0;
  return bytes;
}

}  // namespace smartsock::net
