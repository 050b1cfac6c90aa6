#include "net/udp_socket.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/uio.h>

#include "net/fault.h"

namespace smartsock::net {
std::optional<UdpSocket> UdpSocket::create() {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return std::nullopt;
  UdpSocket sock;
  static_cast<Socket&>(sock) = Socket(fd);
  return sock;
}

std::optional<UdpSocket> UdpSocket::bind(const Endpoint& endpoint) {
  return bind(endpoint, UdpBindOptions{});
}

std::optional<UdpSocket> UdpSocket::bind(const Endpoint& endpoint,
                                         const UdpBindOptions& options) {
  auto sock = create();
  if (!sock) return std::nullopt;
  sockaddr_in addr{};
  if (!endpoint.to_sockaddr(addr)) return std::nullopt;
  if (options.rcvbuf_bytes > 0) sock->set_receive_buffer(options.rcvbuf_bytes);
  if (options.track_kernel_drops) {
#ifdef SO_RXQ_OVFL
    int on = 1;
    if (::setsockopt(sock->fd(), SOL_SOCKET, SO_RXQ_OVFL, &on, sizeof(on)) == 0) {
      sock->rxq_tracking_ = true;
    }
#endif
  }
  if (::bind(sock->fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return std::nullopt;
  }
  return sock;
}

IoResult UdpSocket::send_to(std::string_view payload, const Endpoint& peer) {
  sockaddr_in addr{};
  if (!peer.to_sockaddr(addr)) return IoResult{IoStatus::kError, 0, EINVAL};

  bool duplicate = false;
  std::string mutated;  // storage when the injector rewrites the payload
  if (FaultInjector* fault = active_fault_injector()) {
    if (fault->refuse_udp_send(peer.to_string())) {
      // The replica-kill hook: fail exactly like an ICMP port-unreachable
      // bounced off a dead peer.
      return IoResult{IoStatus::kError, 0, ECONNREFUSED};
    }
    if (fault->drop_udp_send()) {
      // Swallowed by the "network": the caller sees a normal send.
      return IoResult{IoStatus::kOk, payload.size(), 0};
    }
    fault->maybe_delay_udp();
    mutated.assign(payload);
    if (fault->mutate_udp(mutated)) payload = mutated;
    duplicate = fault->duplicate_udp();
  }

  ssize_t n = ::sendto(fd_, payload.data(), payload.size(), 0,
                       reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (n < 0) return IoResult{IoStatus::kError, 0, errno};
  if (duplicate) {
    ::sendto(fd_, payload.data(), payload.size(), 0,
             reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  }
  if (counter_) counter_->add_sent(static_cast<std::uint64_t>(n));
  return IoResult{IoStatus::kOk, static_cast<std::size_t>(n), 0};
}

IoResult UdpSocket::receive_impl(int flags, std::string& payload, Endpoint& peer,
                                 std::size_t max_size) {
  payload.resize(max_size);
  sockaddr_in addr{};
  socklen_t addr_len = sizeof(addr);
  ssize_t n = ::recvfrom(fd_, payload.data(), payload.size(), flags,
                         reinterpret_cast<sockaddr*>(&addr), &addr_len);
  if (n < 0) {
    payload.clear();
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult{IoStatus::kTimeout, 0, errno};
    return IoResult{IoStatus::kError, 0, errno};
  }
  payload.resize(static_cast<std::size_t>(n));
  peer = Endpoint::from_sockaddr(addr);
  if (FaultInjector* fault = active_fault_injector()) {
    if (fault->drop_udp_recv()) {
      // Lost on the wire as far as the caller can tell.
      payload.clear();
      return IoResult{IoStatus::kTimeout, 0, EAGAIN};
    }
  }
  if (counter_) counter_->add_received(static_cast<std::uint64_t>(n));
  return IoResult{IoStatus::kOk, static_cast<std::size_t>(n), 0};
}

IoResult UdpSocket::receive_from(std::string& payload, Endpoint& peer, std::size_t max_size) {
  return receive_impl(0, payload, peer, max_size);
}

IoResult UdpSocket::try_receive_from(std::string& payload, Endpoint& peer,
                                     std::size_t max_size) {
  return receive_impl(MSG_DONTWAIT, payload, peer, max_size);
}

std::optional<Datagram> UdpSocket::receive(util::Duration timeout, std::size_t max_size,
                                           IoResult* result_out) {
  set_receive_timeout(timeout);
  Datagram dg;
  IoResult result = receive_from(dg.payload, dg.peer, max_size);
  if (result_out) *result_out = result;
  if (!result.ok()) return std::nullopt;
  return dg;
}

void UdpSocket::note_rxq_counter(std::uint32_t cumulative) {
  // SO_RXQ_OVFL delivers the kernel's cumulative per-socket drop count with
  // each datagram; unsigned subtraction makes the delta wrap-safe.
  std::uint32_t delta = cumulative - last_rxq_;
  last_rxq_ = cumulative;
  kernel_drops_ += delta;
}

std::size_t UdpSocket::receive_batch(std::vector<Datagram>& batch, std::size_t max_batch,
                                     std::size_t max_size, IoResult* result_out) {
  if (result_out) *result_out = IoResult{IoStatus::kTimeout, 0, EAGAIN};
  if (max_batch == 0 || fd_ < 0) {
    batch.clear();
    if (result_out && fd_ < 0) *result_out = IoResult{IoStatus::kError, 0, EBADF};
    return 0;
  }
  if (batch.size() != max_batch) batch.resize(max_batch);

  std::size_t received = 0;
  std::size_t received_bytes = 0;

#if defined(__linux__) && defined(MSG_WAITFORONE)
  if (!force_fallback_) {
    // Scratch arrays sized per call; the Datagram payloads themselves are
    // the receive buffers, so steady-state reuse allocates nothing.
    std::vector<mmsghdr> msgs(max_batch);
    std::vector<iovec> iovs(max_batch);
    std::vector<sockaddr_in> addrs(max_batch);
    // Room for the SO_RXQ_OVFL drop counter cmsg on every message.
    constexpr std::size_t kCmsgSpace = CMSG_SPACE(sizeof(std::uint32_t));
    std::vector<char> cmsg_buf(rxq_tracking_ ? max_batch * kCmsgSpace : 0);
    for (std::size_t i = 0; i < max_batch; ++i) {
      batch[i].payload.resize(max_size);
      iovs[i].iov_base = batch[i].payload.data();
      iovs[i].iov_len = max_size;
      std::memset(&msgs[i], 0, sizeof(msgs[i]));
      msgs[i].msg_hdr.msg_name = &addrs[i];
      msgs[i].msg_hdr.msg_namelen = sizeof(addrs[i]);
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      if (rxq_tracking_) {
        msgs[i].msg_hdr.msg_control = cmsg_buf.data() + i * kCmsgSpace;
        msgs[i].msg_hdr.msg_controllen = kCmsgSpace;
      }
    }
    // MSG_WAITFORONE blocks for the first datagram under SO_RCVTIMEO, then
    // flips to non-blocking for the rest of the batch — the exact semantics
    // of "wait for traffic, drain the burst" in one syscall.
    int n = ::recvmmsg(fd_, msgs.data(), static_cast<unsigned>(max_batch), MSG_WAITFORONE,
                       nullptr);
    if (n < 0) {
      batch.clear();
      if (errno != EAGAIN && errno != EWOULDBLOCK && result_out) {
        *result_out = IoResult{IoStatus::kError, 0, errno};
      }
      return 0;
    }
    FaultInjector* fault = active_fault_injector();
    for (int i = 0; i < n; ++i) {
      if (rxq_tracking_) {
        for (cmsghdr* cm = CMSG_FIRSTHDR(&msgs[i].msg_hdr); cm != nullptr;
             cm = CMSG_NXTHDR(&msgs[i].msg_hdr, cm)) {
#ifdef SO_RXQ_OVFL
          if (cm->cmsg_level == SOL_SOCKET && cm->cmsg_type == SO_RXQ_OVFL) {
            std::uint32_t dropped = 0;
            std::memcpy(&dropped, CMSG_DATA(cm), sizeof(dropped));
            note_rxq_counter(dropped);
          }
#endif
        }
      }
      // Per-datagram fault decision, in arrival order: a dropped datagram
      // vanishes from the batch exactly as it would from a single receive.
      if (fault != nullptr && fault->drop_udp_recv()) continue;
      if (received != static_cast<std::size_t>(i)) {
        batch[received].payload.swap(batch[i].payload);
      }
      batch[received].payload.resize(msgs[i].msg_len);
      batch[received].peer = Endpoint::from_sockaddr(addrs[i]);
      received_bytes += msgs[i].msg_len;
      ++received;
    }
    batch.resize(received);
    if (counter_ && received_bytes > 0) counter_->add_received(received_bytes);
    if (result_out && received > 0) {
      *result_out = IoResult{IoStatus::kOk, received_bytes, 0};
    }
    return received;
  }
#endif

  // Portable fallback: one syscall per datagram — blocking (SO_RCVTIMEO)
  // for the first, MSG_DONTWAIT to drain the rest. Fault decisions apply
  // per-datagram in arrival order, mirroring the mmsg path.
  FaultInjector* fault = active_fault_injector();
  IoResult last{};
  bool got_first = false;
  while (received < max_batch) {
    int flags = got_first ? MSG_DONTWAIT : 0;
    Datagram& slot = batch[received];
    slot.payload.resize(max_size);
    sockaddr_in addr{};
    socklen_t addr_len = sizeof(addr);
    ssize_t n = ::recvfrom(fd_, slot.payload.data(), slot.payload.size(), flags,
                           reinterpret_cast<sockaddr*>(&addr), &addr_len);
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        last = IoResult{IoStatus::kError, 0, errno};
      }
      break;
    }
    got_first = true;  // kernel delivered a datagram, even if chaos eats it
    if (fault != nullptr && fault->drop_udp_recv()) continue;
    slot.payload.resize(static_cast<std::size_t>(n));
    slot.peer = Endpoint::from_sockaddr(addr);
    received_bytes += static_cast<std::size_t>(n);
    ++received;
  }
  batch.resize(received);
  if (result_out) {
    if (received > 0) {
      *result_out = IoResult{IoStatus::kOk, received_bytes, 0};
    } else if (last.status == IoStatus::kError) {
      *result_out = last;
    }
  }
  return received;
}

}  // namespace smartsock::net
