#include "net/reactor.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "net/poller.h"
#include "obs/blackbox.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace smartsock::net {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

}  // namespace

// --- CallbackScope ------------------------------------------------------------

/// Measures one callback's wall time into its site recorder and exposes the
/// in-callback window to the watchdog via the seqlock heartbeat. The raw
/// steady clock (never the injectable config clock) times both: a stalled
/// loop under VirtualClock must still be detected in real time.
class Reactor::CallbackScope {
 public:
  CallbackScope(Reactor* reactor, CallbackSite* site) : reactor_(reactor) {
    if (reactor_->cb_depth_++ > 0) return;  // nested: outer scope measures
    site_ = site;
    start_ns_ = steady_now_ns();
    reactor_->cb_label_.store(site_->label.c_str(), std::memory_order_relaxed);
    reactor_->cb_start_ns_.store(start_ns_, std::memory_order_relaxed);
    reactor_->cb_seq_.fetch_add(1, std::memory_order_release);  // odd: in callback
  }

  ~CallbackScope() {
    if (--reactor_->cb_depth_ > 0) return;
    reactor_->cb_seq_.fetch_add(1, std::memory_order_release);  // even: idle
    site_->recorder->record_us(static_cast<double>(steady_now_ns() - start_ns_) / 1000.0);
  }

  CallbackScope(const CallbackScope&) = delete;
  CallbackScope& operator=(const CallbackScope&) = delete;

 private:
  Reactor* reactor_;
  CallbackSite* site_ = nullptr;
  std::int64_t start_ns_ = 0;
};

// --- Connection ---------------------------------------------------------------

Connection::Connection(Reactor* reactor, TcpSocket socket, ConnectionHandler handler,
                       std::uint64_t id)
    : reactor_(reactor),
      socket_(std::move(socket)),
      handler_(std::move(handler)),
      id_(id),
      input_limit_(reactor->config().input_limit) {}

void Connection::consume(std::size_t n) {
  input_.erase(0, std::min(n, input_.size()));
  if (read_paused_ && !backpressured_ && !dead_ && !saw_eof_ &&
      input_.size() < input_limit_) {
    read_paused_ = false;
    reactor_->update_interest(socket_.fd(), {true, write_blocked_});
  }
}

void Connection::send(std::string_view data) {
  if (dead_) return;
  output_.append(data);
  if (!write_blocked_ && !flush_some()) return;  // connection died mid-write
  if (dead_) return;
  if (pending_output() > reactor_->config().output_high_watermark && !backpressured_) {
    // Write backpressure: a peer that stops reading must not grow our
    // buffer without bound, so stop reading from it until the socket
    // drains — the stall is visible as reactor_backpressure_stalls_total.
    backpressured_ = true;
    reactor_->stalls_->inc();
    if (!read_paused_) {
      read_paused_ = true;
      reactor_->update_interest(socket_.fd(), {false, write_blocked_});
    }
  }
}

void Connection::close_after_flush() {
  if (dead_) return;
  close_after_flush_ = true;
  if (pending_output() == 0) {
    finish(true);
  } else if (!read_paused_) {
    // No more requests will be parsed; stop reading while the tail drains.
    read_paused_ = true;
    reactor_->update_interest(socket_.fd(), {false, write_blocked_});
  }
}

void Connection::close_now() { finish(true); }

bool Connection::flush_some() {
  while (pending_output() > 0) {
    std::string_view chunk(output_.data() + output_offset_, pending_output());
    IoResult io = socket_.send_some(chunk);
    if (io.status == IoStatus::kTimeout) {  // EAGAIN: wait for writability
      if (!write_blocked_) {
        write_blocked_ = true;
        reactor_->update_interest(socket_.fd(), {!read_paused_, true});
      }
      return true;
    }
    if (!io.ok()) {
      finish(false);
      return false;
    }
    output_offset_ += io.bytes;
  }
  output_.clear();
  output_offset_ = 0;
  bool was_blocked = write_blocked_;
  write_blocked_ = false;
  bool resume_read = false;
  if (backpressured_) {
    backpressured_ = false;
    if (!close_after_flush_ && read_paused_ && !saw_eof_ && input_.size() < input_limit_) {
      read_paused_ = false;
      resume_read = true;
    }
  }
  if (was_blocked || resume_read) {
    reactor_->update_interest(socket_.fd(), {!read_paused_, false});
  }
  if (handler_.on_drain) handler_.on_drain(*this);
  if (!dead_ && close_after_flush_) finish(true);
  return !dead_;
}

void Connection::handle_readable() {
  bool got_data = false;
  std::string chunk;
  while (!dead_ && input_.size() < input_limit_) {
    IoResult io = socket_.receive_some(chunk, reactor_->config().read_chunk);
    if (io.ok()) {
      input_.append(chunk);
      got_data = true;
      if (io.bytes < reactor_->config().read_chunk) break;  // drained for now
      continue;
    }
    if (io.status == IoStatus::kTimeout) break;  // EAGAIN
    if (io.status == IoStatus::kClosed) {
      saw_eof_ = true;
      break;
    }
    // Hard error (ECONNRESET, injected fault): deliver what we have first.
    if (got_data && handler_.on_data) handler_.on_data(*this);
    if (!dead_) finish(false);
    return;
  }
  if (dead_) return;
  if (input_.size() >= input_limit_ && !read_paused_) {
    read_paused_ = true;
    reactor_->update_interest(socket_.fd(), {false, write_blocked_});
  }
  if (got_data && handler_.on_data) handler_.on_data(*this);
  if (!dead_ && saw_eof_) finish(true);
}

void Connection::handle_writable() {
  if (dead_ || !write_blocked_) return;
  write_blocked_ = false;
  flush_some();
}

void Connection::finish(bool clean) {
  if (dead_) return;
  dead_ = true;
  reactor_->retire_connection(this, clean);
}

// --- Reactor ------------------------------------------------------------------

Reactor::Reactor(ReactorConfig config) : config_(config) {
  auto& registry = obs::MetricsRegistry::instance();
  iterations_ = registry.counter("reactor_loop_iterations_total");
  timer_fires_ = registry.counter("reactor_timer_fires_total");
  stalls_ = registry.counter("reactor_backpressure_stalls_total");
  accepts_ = registry.counter("reactor_accepts_total");
  closes_ = registry.counter("reactor_closes_total");
  open_gauge_ = registry.gauge("reactor_connections_open");
  loop_lag_ = registry.histogram("reactor_loop_lag_us");
  watchdog_stalls_ = registry.counter("reactor_watchdog_stalls_total");
  stalled_gauge_ = registry.gauge("reactor_watchdog_stalled");
  posted_depth_gauge_ = registry.gauge("reactor_posted_queue_depth");
  timers_gauge_ = registry.gauge("reactor_timers_active");
  posted_site_ = intern_site("posted");

  int fds[2] = {-1, -1};
  if (::pipe(fds) == 0) {
    wake_read_fd_ = fds[0];
    wake_write_fd_ = fds[1];
    ::fcntl(wake_read_fd_, F_SETFL, ::fcntl(wake_read_fd_, F_GETFL, 0) | O_NONBLOCK);
    ::fcntl(wake_write_fd_, F_SETFL, ::fcntl(wake_write_fd_, F_GETFL, 0) | O_NONBLOCK);
  } else {
    SMARTSOCK_LOG(kError, "reactor") << "cannot create wakeup pipe";
  }

  if (config_.use_epoll) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      SMARTSOCK_LOG(kWarn, "reactor") << "epoll_create1 failed, using poll fallback";
      config_.use_epoll = false;
    }
  }
  if (wake_read_fd_ >= 0) update_interest(wake_read_fd_, {true, false});

  last_tick_ = tick_of(config_.clock->now());
}

Reactor::~Reactor() {
  stop();
  close_all_connections();
  reap_dead();
  listeners_.clear();
  listener_fds_.clear();
  accept_handlers_.clear();
  accept_sites_.clear();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  // Back out this reactor's contribution to the process-wide gauges.
  timers_gauge_->add(static_cast<double>(-published_timers_));
  std::lock_guard<std::mutex> lock(post_mu_);
  if (!posted_.empty()) {
    posted_depth_gauge_->add(-static_cast<double>(posted_.size()));
    posted_.clear();
  }
}

Reactor::CallbackSite* Reactor::intern_site(const std::string& label) {
  auto& slot = sites_[label];
  if (!slot) {
    slot = std::make_unique<CallbackSite>();
    slot->label = label;
    slot->recorder = obs::MetricsRegistry::instance().histogram(
        "reactor_callback_us{site=\"" + label + "\"}");
  }
  return slot.get();
}

void Reactor::publish_gauges() {
  auto current = static_cast<std::int64_t>(timer_slots_.size());
  if (current != published_timers_) {
    timers_gauge_->add(static_cast<double>(current - published_timers_));
    published_timers_ = current;
  }
}

std::uint64_t Reactor::tick_of(util::Duration t) const {
  auto tick = config_.timer_tick.count();
  if (tick <= 0) tick = 1;
  return static_cast<std::uint64_t>(t.count() / tick);
}

bool Reactor::in_loop_thread() const {
  return loop_thread_id_.load(std::memory_order_acquire) == std::this_thread::get_id();
}

void Reactor::wakeup() {
  if (wake_write_fd_ < 0) return;
  char byte = 'w';
  [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void Reactor::drain_wakeup() {
  char buf[64];
  while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
  }
}

void Reactor::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  posted_depth_gauge_->add(1);
  wakeup();
}

void Reactor::run_on_loop(const std::function<void()>& fn) {
  if (in_loop_thread() || !running()) {
    fn();
    return;
  }
  // The loop may stop between the running() check above and the post below
  // (its final drain can already be past our entry), so waiting forever on
  // the loop is not an option. The waiter polls running(): once the loop is
  // gone and nobody claimed the task yet, the caller runs it inline. The
  // `claimed` flag makes execution exactly-once either way — a stale queue
  // entry drained later (stop() or a restarted loop) sees it and backs off.
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    bool claimed = false;
    bool done = false;
  };
  auto waiter = std::make_shared<Waiter>();
  post([waiter, &fn] {
    {
      std::lock_guard<std::mutex> lock(waiter->mu);
      if (waiter->claimed) return;  // caller already ran it inline
      waiter->claimed = true;
    }
    fn();
    std::lock_guard<std::mutex> lock(waiter->mu);
    waiter->done = true;
    waiter->cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(waiter->mu);
  while (!waiter->done) {
    if (waiter->cv.wait_for(lock, std::chrono::milliseconds(20),
                            [&] { return waiter->done; })) {
      break;
    }
    if (!running() && !waiter->claimed) {
      waiter->claimed = true;
      lock.unlock();
      fn();
      return;
    }
  }
}

void Reactor::run_posted() {
  std::deque<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    batch.swap(posted_);
  }
  if (!batch.empty()) posted_depth_gauge_->add(-static_cast<double>(batch.size()));
  for (auto& fn : batch) {
    CallbackScope scope(this, posted_site_);
    fn();
  }
}

void Reactor::offload(std::function<void()> work, std::function<void()> done) {
  if (config_.pool != nullptr) {
    config_.pool->submit(
        [this, work = std::move(work), done = std::move(done)]() mutable {
          work();
          post(std::move(done));
        });
  } else {
    work();
    post(std::move(done));
  }
}

// --- timers -------------------------------------------------------------------

void Reactor::schedule_insert(TimerEntry entry) {
  std::size_t slot = static_cast<std::size_t>(tick_of(entry.deadline) % kWheelSlots);
  timer_slots_[entry.id] = slot;
  wheel_[slot].push_back(std::move(entry));
}

TimerId Reactor::add_timer(util::Duration delay, std::function<void()> fn,
                           std::string label) {
  if (running() && !in_loop_thread()) {
    TimerId id = 0;
    run_on_loop([&] { id = add_timer(delay, std::move(fn), std::move(label)); });
    return id;
  }
  TimerEntry entry;
  entry.id = next_timer_id_++;
  entry.deadline = config_.clock->now() + delay;
  entry.fn = std::move(fn);
  entry.site = intern_site(label.empty() ? "timer" : label);
  TimerId id = entry.id;
  schedule_insert(std::move(entry));
  if (running() && !in_loop_thread()) wakeup();
  return id;
}

TimerId Reactor::add_periodic(util::Duration interval, std::function<void()> fn,
                              std::string label) {
  if (running() && !in_loop_thread()) {
    TimerId id = 0;
    run_on_loop([&] { id = add_periodic(interval, std::move(fn), std::move(label)); });
    return id;
  }
  if (interval <= util::Duration::zero()) interval = config_.timer_tick;
  TimerEntry entry;
  entry.id = next_timer_id_++;
  entry.deadline = config_.clock->now() + interval;
  entry.interval = interval;
  entry.fn = std::move(fn);
  entry.site = intern_site(label.empty() ? "timer" : label);
  TimerId id = entry.id;
  schedule_insert(std::move(entry));
  return id;
}

bool Reactor::cancel_timer(TimerId id) {
  if (running() && !in_loop_thread()) {
    bool ok = false;
    run_on_loop([&] { ok = cancel_timer(id); });
    return ok;
  }
  auto it = timer_slots_.find(id);
  if (it == timer_slots_.end()) return false;
  std::vector<TimerEntry>& slot = wheel_[it->second];
  for (std::size_t i = 0; i < slot.size(); ++i) {
    if (slot[i].id == id) {
      slot.erase(slot.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  timer_slots_.erase(it);
  return true;
}

bool Reactor::rearm_timer(TimerId id, util::Duration delay) {
  if (running() && !in_loop_thread()) {
    bool ok = false;
    run_on_loop([&] { ok = rearm_timer(id, delay); });
    return ok;
  }
  auto it = timer_slots_.find(id);
  if (it == timer_slots_.end()) return false;
  std::vector<TimerEntry>& slot = wheel_[it->second];
  for (std::size_t i = 0; i < slot.size(); ++i) {
    if (slot[i].id == id) {
      TimerEntry entry = std::move(slot[i]);
      slot.erase(slot.begin() + static_cast<std::ptrdiff_t>(i));
      entry.deadline = config_.clock->now() + delay;
      schedule_insert(std::move(entry));
      return true;
    }
  }
  timer_slots_.erase(it);
  return false;
}

void Reactor::advance_timers() {
  util::Duration now = config_.clock->now();
  std::uint64_t now_tick = tick_of(now);
  if (now_tick < last_tick_) now_tick = last_tick_;

  std::vector<TimerEntry> due;
  auto collect = [&](std::vector<TimerEntry>& slot) {
    for (std::size_t i = 0; i < slot.size();) {
      if (slot[i].deadline <= now) {
        due.push_back(std::move(slot[i]));
        slot[i] = std::move(slot.back());
        slot.pop_back();
      } else {
        ++i;
      }
    }
  };

  if (now_tick - last_tick_ + 1 >= kWheelSlots) {
    for (auto& slot : wheel_) collect(slot);  // a whole lap: sweep everything
  } else {
    for (std::uint64_t t = last_tick_; t <= now_tick; ++t) {
      collect(wheel_[t % kWheelSlots]);
    }
  }
  last_tick_ = now_tick;
  if (due.empty()) return;

  // The wheel hashes deadlines to slots, so restore time order before firing.
  std::sort(due.begin(), due.end(), [](const TimerEntry& a, const TimerEntry& b) {
    return a.deadline != b.deadline ? a.deadline < b.deadline : a.id < b.id;
  });
  for (TimerEntry& entry : due) {
    // A callback earlier in this batch may have cancelled this timer; its
    // wheel entry is already extracted, so the registry is the truth.
    auto it = timer_slots_.find(entry.id);
    if (it == timer_slots_.end()) continue;
    timer_slots_.erase(it);
    timer_fires_->inc();
    // Loop lag: how late past its scheduled deadline this timer actually
    // fired, on the config clock (deterministic under VirtualClock).
    loop_lag_->record_us(
        static_cast<double>((now - entry.deadline).count()) / 1000.0);
    if (entry.interval > util::Duration::zero()) {
      // Re-register before firing so the callback can cancel_timer(id).
      TimerEntry next = entry;
      next.deadline = entry.deadline + entry.interval;
      if (next.deadline <= now) next.deadline = now + entry.interval;
      schedule_insert(std::move(next));
    }
    CallbackScope scope(this, entry.site != nullptr ? entry.site : posted_site_);
    entry.fn();
  }
}

util::Duration Reactor::next_timer_delay(util::Duration cap) {
  if (timer_slots_.empty()) return cap;
  util::Duration now = config_.clock->now();
  util::Duration best = cap;
  for (const auto& slot : wheel_) {
    for (const TimerEntry& entry : slot) {
      util::Duration wait = entry.deadline > now ? entry.deadline - now : util::Duration::zero();
      if (wait < best) best = wait;
    }
  }
  return best;
}

// --- fd registry --------------------------------------------------------------

void Reactor::update_interest(int fd, FdInterest interest) {
  if (fd < 0) return;
  bool known = interest_.count(fd) > 0;
  interest_[fd] = interest;
  if (epoll_fd_ < 0) return;
  epoll_event event{};
  event.events = (interest.read ? EPOLLIN : 0u) | (interest.write ? EPOLLOUT : 0u);
  event.data.fd = fd;
  int op = known ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (::epoll_ctl(epoll_fd_, op, fd, &event) != 0) {
    // Self-heal a desynced registry: a close behind our back auto-removes the
    // fd from epoll (MOD -> ENOENT), and the recycled number may already be
    // registered when we think it is new (ADD -> EEXIST).
    int flipped = (op == EPOLL_CTL_MOD) ? EPOLL_CTL_ADD : EPOLL_CTL_MOD;
    bool desynced = (op == EPOLL_CTL_MOD && errno == ENOENT) ||
                    (op == EPOLL_CTL_ADD && errno == EEXIST);
    if (!desynced || ::epoll_ctl(epoll_fd_, flipped, fd, &event) != 0) {
      SMARTSOCK_LOG(kWarn, "reactor") << "epoll_ctl failed for fd " << fd
                                      << " errno=" << errno;
    }
  }
}

void Reactor::forget_fd(int fd) {
  if (fd < 0) return;
  if (interest_.erase(fd) > 0 && epoll_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
}

ListenerId Reactor::add_listener(TcpListener* listener,
                                 std::function<void(TcpSocket)> on_accept,
                                 std::string label) {
  if (running() && !in_loop_thread()) {
    ListenerId id = 0;
    run_on_loop([&] { id = add_listener(listener, std::move(on_accept), std::move(label)); });
    return id;
  }
  if (listener == nullptr || !listener->valid()) return 0;
  ListenerId id = next_listener_id_++;
  int fd = listener->fd();
  listener->set_nonblocking(true);
  listeners_[id] = listener;
  listener_fds_[fd] = id;
  accept_handlers_[id] = std::move(on_accept);
  accept_sites_[id] = intern_site(label.empty() ? "accept" : label);
  update_interest(fd, {true, false});
  return id;
}

void Reactor::remove_listener(ListenerId id) {
  if (running() && !in_loop_thread()) {
    run_on_loop([&] { remove_listener(id); });
    return;
  }
  auto it = listeners_.find(id);
  if (it == listeners_.end()) return;
  int fd = it->second->fd();
  forget_fd(fd);
  listener_fds_.erase(fd);
  accept_handlers_.erase(id);
  accept_sites_.erase(id);
  listeners_.erase(it);
}

Connection* Reactor::add_connection(TcpSocket socket, ConnectionHandler handler) {
  if (running() && !in_loop_thread()) {
    Connection* connection = nullptr;
    run_on_loop([&] { connection = add_connection(std::move(socket), std::move(handler)); });
    return connection;
  }
  if (!socket.valid()) return nullptr;
  socket.set_nonblocking(true);
  int fd = socket.fd();
  std::uint64_t id = next_connection_id_++;
  CallbackSite* site = intern_site(handler.label.empty() ? "connection" : handler.label);
  auto connection = std::unique_ptr<Connection>(
      new Connection(this, std::move(socket), std::move(handler), id));
  Connection* raw = connection.get();
  raw->registered_fd_ = fd;
  raw->site_ = site;
  connections_[id] = std::move(connection);
  connection_fds_[fd] = raw;
  update_interest(fd, {true, false});
  open_gauge_->add(1);
  return raw;
}

void Reactor::retire_connection(Connection* connection, bool clean) {
  int fd = connection->registered_fd_;
  // Only unhook the fd if the registry still maps it to us — the kernel may
  // have recycled the number for a newer connection after an out-of-band close.
  auto fd_it = connection_fds_.find(fd);
  if (fd_it != connection_fds_.end() && fd_it->second == connection) {
    forget_fd(fd);
    connection_fds_.erase(fd_it);
  }
  connection->socket_.close();
  closes_->inc();
  open_gauge_->add(-1);
  auto it = connections_.find(connection->id_);
  if (it != connections_.end()) {
    // Deferred destruction: the object stays alive until the end of this
    // loop iteration so callers up the stack can still touch it.
    dead_connections_.push_back(std::move(it->second));
    connections_.erase(it);
  }
  if (connection->handler_.on_close) connection->handler_.on_close(*connection, clean);
}

void Reactor::close_all_connections() {
  if (running() && !in_loop_thread()) {
    run_on_loop([&] { close_all_connections(); });
    return;
  }
  std::vector<Connection*> open;
  open.reserve(connections_.size());
  for (auto& [id, connection] : connections_) open.push_back(connection.get());
  for (Connection* connection : open) connection->close_now();
}

void Reactor::reap_dead() { dead_connections_.clear(); }

// --- the loop -----------------------------------------------------------------

void Reactor::dispatch_fd(int fd, bool readable, bool writable, bool hangup) {
  if (fd == wake_read_fd_) {
    drain_wakeup();
    return;
  }
  auto listener_it = listener_fds_.find(fd);
  if (listener_it != listener_fds_.end()) {
    ListenerId id = listener_it->second;
    while (true) {
      // An on_accept callback may remove_listener (or destroy the listener),
      // so re-look everything up each lap; the handler is copied out because
      // invoking a std::function the callback erases from the map is UB.
      auto live_it = listeners_.find(id);
      if (live_it == listeners_.end()) break;
      auto accepted = live_it->second->try_accept();
      if (!accepted) break;
      accepts_->inc();
      accepted->set_nonblocking(true);
      auto handler_it = accept_handlers_.find(id);
      if (handler_it != accept_handlers_.end() && handler_it->second) {
        auto handler = handler_it->second;
        auto site_it = accept_sites_.find(id);
        CallbackScope scope(this,
                            site_it != accept_sites_.end() ? site_it->second : posted_site_);
        handler(std::move(*accepted));
      }
    }
    return;
  }
  auto connection_it = connection_fds_.find(fd);
  if (connection_it == connection_fds_.end()) return;  // closed earlier this round
  Connection* connection = connection_it->second;
  // A hangup with no read interest still needs a read attempt to observe
  // EOF vs reset; handle_readable is safe in both cases.
  if (readable || hangup) {
    CallbackScope scope(this, connection->site_);
    connection->handle_readable();
  }
  if (writable && connection_fds_.count(fd) > 0 &&
      connection_fds_[fd] == connection) {
    CallbackScope scope(this, connection->site_);
    connection->handle_writable();
  }
}

int Reactor::epoll_round(util::Duration wait) {
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  auto wait_ms = std::chrono::duration_cast<std::chrono::milliseconds>(wait);
  int timeout_ms = static_cast<int>(wait_ms.count());
  if (wait > util::Duration::zero() && wait_ms == std::chrono::milliseconds(0)) {
    timeout_ms = 1;  // round sub-millisecond waits up, not into a busy loop
  }
  int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
  if (n < 0) return 0;  // EINTR: just take the lap
  for (int i = 0; i < n; ++i) {
    bool hangup = (events[i].events & (EPOLLHUP | EPOLLERR)) != 0;
    dispatch_fd(events[i].data.fd, (events[i].events & EPOLLIN) != 0,
                (events[i].events & EPOLLOUT) != 0, hangup);
  }
  return n < 0 ? 0 : n;
}

int Reactor::poll_round(util::Duration wait) {
  std::vector<PollEntry> entries;
  entries.reserve(interest_.size());
  for (const auto& [fd, interest] : interest_) {
    PollEntry entry;
    entry.fd = fd;
    entry.want_read = interest.read;
    entry.want_write = interest.write;
    entries.push_back(entry);
  }
  int n = poll_sockets(entries, wait);
  if (n <= 0) return 0;
  for (const PollEntry& entry : entries) {
    if (!entry.readable && !entry.writable && !entry.hangup) continue;
    dispatch_fd(entry.fd, entry.readable, entry.writable, entry.hangup);
  }
  return n;
}

int Reactor::run_once(util::Duration max_wait) {
  auto previous = loop_thread_id_.exchange(std::this_thread::get_id(),
                                           std::memory_order_acq_rel);
  util::Duration wait = next_timer_delay(max_wait);
  if (wait < util::Duration::zero()) wait = util::Duration::zero();

  int events = config_.use_epoll && epoll_fd_ >= 0 ? epoll_round(wait) : poll_round(wait);
  run_posted();
  advance_timers();
  reap_dead();
  iterations_->inc();
  publish_gauges();

  loop_thread_id_.store(previous, std::memory_order_release);
  return events;
}

void Reactor::loop_thread_main() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    run_once(std::chrono::milliseconds(100));
  }
  // Drain any final posted work (e.g. component detach during shutdown).
  auto previous = loop_thread_id_.exchange(std::this_thread::get_id(),
                                           std::memory_order_acq_rel);
  run_posted();
  reap_dead();
  loop_thread_id_.store(previous, std::memory_order_release);
}

bool Reactor::start() {
  if (thread_.joinable() || wake_read_fd_ < 0) return false;
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop_thread_main(); });
  start_watchdog();
  return true;
}

void Reactor::stop() {
  if (!thread_.joinable()) return;
  stop_watchdog();
  stop_requested_.store(true, std::memory_order_release);
  wakeup();
  thread_.join();
  running_.store(false, std::memory_order_release);
  // A racer that saw running()==true may have posted after the loop's final
  // drain; run those here (no loop thread left, so inline is safe) instead
  // of leaving them queued forever.
  run_posted();
}

// --- stall watchdog (ISSUE 7) -------------------------------------------------

void Reactor::start_watchdog() {
  if (config_.watchdog_stall_threshold <= util::Duration::zero()) return;
  if (watchdog_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = false;
  }
  watchdog_thread_ = std::thread([this] { watchdog_main(); });
}

void Reactor::stop_watchdog() {
  if (!watchdog_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  watchdog_thread_.join();
}

void Reactor::watchdog_main() {
  const std::int64_t threshold_ns = config_.watchdog_stall_threshold.count();
  const std::int64_t fatal_ns = config_.watchdog_fatal_threshold.count();
  util::Duration check = config_.watchdog_check_interval;
  if (check <= util::Duration::zero()) check = std::chrono::milliseconds(100);
  std::uint64_t reported_seq = 0;
  bool flagged = false;

  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, check, [this] { return watchdog_stop_; });
    if (watchdog_stop_) break;

    std::uint64_t seq = cb_seq_.load(std::memory_order_acquire);
    if ((seq & 1) == 0) {  // loop idle between callbacks
      if (flagged) {
        stalled_gauge_->add(-1);
        flagged = false;
      }
      continue;
    }
    std::int64_t start_ns = cb_start_ns_.load(std::memory_order_relaxed);
    const char* label = cb_label_.load(std::memory_order_relaxed);
    if (cb_seq_.load(std::memory_order_acquire) != seq) continue;  // finished mid-read
    std::int64_t blocked_ns = steady_now_ns() - start_ns;
    if (blocked_ns < threshold_ns) {
      if (flagged) {  // previous stall ended; a new, fast callback is running
        stalled_gauge_->add(-1);
        flagged = false;
      }
      continue;
    }
    if (seq != reported_seq) {  // one report per stalled callback
      reported_seq = seq;
      watchdog_stalls_->inc();
      if (!flagged) {
        stalled_gauge_->add(1);
        flagged = true;
      }
      obs::TraceEvent(util::LogLevel::kWarn, "reactor", "loop_stall", "")
          .kv("handler", label != nullptr ? label : "unknown")
          .kv("blocked_ms", static_cast<long long>(blocked_ns / 1000000));
    }
    if (fatal_ns > 0 && blocked_ns >= fatal_ns) {
      std::string note = "watchdog_fatal handler=";
      note += label != nullptr ? label : "unknown";
      note += " blocked_ms=" + std::to_string(blocked_ns / 1000000);
      obs::Blackbox::annotate(note);
      lock.unlock();
      // The blackbox's SIGABRT handler (when installed) writes the
      // postmortem, annotation included, before the process dies.
      std::abort();
    }
  }
  if (flagged) stalled_gauge_->add(-1);
}

}  // namespace smartsock::net
