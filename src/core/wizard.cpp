#include "core/wizard.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/span.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace smartsock::core {

namespace {

/// Reply-cache key: the full request identity minus the sequence number
/// (which is echoed, not computed). '\x01' cannot appear in requirement
/// text, so the key is unambiguous.
std::string reply_key(const UserRequest& request) {
  std::string key = request.detail;
  key += '\x01';
  key += std::to_string(request.server_num);
  key += '\x01';
  key += std::to_string(static_cast<int>(request.option));
  return key;
}

}  // namespace

Wizard::Wizard(WizardConfig config, ipc::StatusStore& store, transport::Receiver* receiver)
    : config_(std::move(config)),
      store_(&store),
      receiver_(receiver),
      matcher_(config_.match_threads),
      requirement_cache_(config_.cache_size),
      reply_cache_(config_.cache_size) {
  net::UdpBindOptions bind_options;
  bind_options.rcvbuf_bytes = config_.rcvbuf_bytes;
  if (auto sock = net::UdpSocket::bind(config_.bind, bind_options)) {
    socket_ = std::move(*sock);
    socket_.set_traffic_counter(obs::MetricsRegistry::instance().traffic("wizard"));
    endpoint_ = socket_.local_endpoint();
  } else {
    bind_error_ = "cannot bind wizard UDP socket to " + config_.bind.to_string() +
                  ": " + std::strerror(errno);
    SMARTSOCK_LOG(kError, "wizard") << bind_error_;
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  metrics_.requests = registry.counter("wizard_requests_total");
  metrics_.malformed = registry.counter("wizard_malformed_requests_total");
  metrics_.reply_hits = registry.counter("wizard_reply_cache_hits_total");
  metrics_.reply_misses = registry.counter("wizard_reply_cache_misses_total");
  metrics_.requirement_hits = registry.counter("wizard_requirement_cache_hits_total");
  metrics_.requirement_misses = registry.counter("wizard_requirement_cache_misses_total");
  metrics_.query_errors = registry.counter("wizard_query_errors_total");
  metrics_.stale_replies = registry.counter("wizard_stale_replies_total");
  metrics_.degraded = registry.gauge("wizard_degraded");
  metrics_.latency_us = registry.histogram("wizard_query_latency_us");
}

Wizard::~Wizard() { stop(); }

void Wizard::add_transmitter(const net::Endpoint& endpoint) {
  transmitters_.push_back(endpoint);
}

bool Wizard::degraded() const {
  if (config_.staleness_bound <= util::Duration::zero()) return false;
  std::uint64_t newest = store_->newest_sys_update_ns();
  if (newest == 0) return false;  // empty sysdb: nothing to be stale about
  std::uint64_t now = ipc::steady_now_ns();
  auto bound_ns = static_cast<std::uint64_t>(config_.staleness_bound.count());
  return now > newest && now - newest > bound_ns;
}

WizardReply Wizard::handle(const UserRequest& request, std::uint64_t parent_span) {
  auto started = std::chrono::steady_clock::now();
  // Stale-data degradation: stamped on every serve path at reply time — a
  // cached reply never pins the flag computed when it was stored, and the
  // flag clears as soon as the feed recovers. Evaluated after the
  // distributed-mode pull below, which may itself refresh the feed.
  bool stale_serve = false;
  auto finish = [&](WizardReply& out) -> WizardReply& {
    out.stale = stale_serve;
    // Replica set (ISSUE 8): stamp the version clients pin across failovers.
    // The receiver's committed source version is comparable across replicas;
    // without one (no receiver, or no committed delta transfer yet) fall
    // back to the local store counter, which is still monotone per wizard.
    std::uint64_t replicated =
        receiver_ != nullptr ? receiver_->replicated_version() : 0;
    out.version = replicated != 0 ? replicated : store_->version();
    if (stale_serve) metrics_.stale_replies->inc();
    double micros = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - started)
                        .count();
    metrics_.latency_us->record_us(micros);
    return out;
  };
  // Flight-recorder span for the serve path; the match phase nests a child
  // span below so the cache fast paths and the matcher separate on the
  // timeline.
  obs::Span handle_span("wizard", "handle", request.trace_id, parent_span, *config_.spans);
  handle_span.tag("seq", request.sequence).tag("requested", request.server_num);

  WizardReply reply;
  reply.sequence = request.sequence;

  // Distributed mode: refresh the databases on demand (§3.5.1 — reports are
  // sent back only when the wizard asks). Serialized so concurrent handler
  // threads do not interleave pulls from the same transmitter.
  if (config_.mode == transport::TransferMode::kDistributed && receiver_ != nullptr) {
    std::lock_guard<std::mutex> lock(refresh_mu_);
    for (const net::Endpoint& transmitter : transmitters_) {
      receiver_->pull_from(transmitter);
    }
  }

  stale_serve = degraded();
  metrics_.degraded->set(stale_serve ? 1 : 0);

  // Fast path 1: a cached reply computed from the store contents this
  // version still describes. The version is read *before* the records so a
  // concurrent store update can only make the entry look stale, never fresh.
  std::uint64_t version = store_->version();
  std::string key = reply_key(request);
  {
    std::lock_guard<std::mutex> lock(reply_mu_);
    if (CachedReply* cached = reply_cache_.get(key)) {
      if (cached->version == version) {
        ++reply_hits_;
        metrics_.reply_hits->inc();
        reply = cached->reply;
        reply.sequence = request.sequence;
        obs::TraceEvent(util::LogLevel::kDebug, "wizard", "reply_cache_hit",
                        request.trace_id)
            .kv("seq", request.sequence)
            .kv("servers", reply.servers.size());
        handle_span.tag("cache", "hit").tag("servers", reply.servers.size());
        return finish(reply);
      }
    }
    ++reply_misses_;
    metrics_.reply_misses->inc();
  }

  // Fast path 2: skip the lexer/parser for known expressions (positive and
  // negative alike).
  lang::RequirementCache::Result compiled = requirement_cache_.get_or_compile(request.detail);
  (compiled.hit ? metrics_.requirement_hits : metrics_.requirement_misses)->inc();
  if (!compiled) {
    reply.ok = false;
    reply.error = "requirement: " + compiled.error;
    metrics_.query_errors->inc();
    obs::TraceEvent(util::LogLevel::kDebug, "wizard", "compile_error", request.trace_id)
        .kv("seq", request.sequence)
        .kv("error", compiled.error);
    handle_span.tag("error", "compile");
    return finish(reply);
  }

  // Copy-free hot path (ISSUE 5): one immutable snapshot pointer serves the
  // whole match — no per-query record-vector copies. Between writes every
  // query shares the same cached Snapshot object. The snapshot's version may
  // be newer than the one read above for the cache check; the reply is
  // cached under the snapshot's own version, which is what it was computed
  // from.
  ipc::SnapshotPtr snap = store_->snapshot();
  MatchView input;
  input.sys = snap->sys;
  input.net = snap->net;
  input.sec = snap->sec;
  input.local_group = config_.local_group;

  obs::TraceEvent(util::LogLevel::kDebug, "wizard", "match_start", request.trace_id)
      .kv("seq", request.sequence)
      .kv("candidates", input.sys.size())
      .kv("requested", request.server_num);
  auto match_started = std::chrono::steady_clock::now();
  MatchResult result;
  {
    obs::Span match_span("wizard", "match", request.trace_id, handle_span.id(),
                         *config_.spans);
    match_span.tag("candidates", input.sys.size()).tag("requested", request.server_num);
    result = matcher_.match(*compiled.requirement, input, request.server_num);
    match_span.tag("selected", result.selected.size());
  }
  obs::TraceEvent(util::LogLevel::kDebug, "wizard", "match_end", request.trace_id)
      .kv("seq", request.sequence)
      .kv("selected", result.selected.size())
      .kv("match_us", std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - match_started)
                          .count());
  if (request.option == RequestOption::kStrict &&
      result.selected.size() < request.server_num) {
    reply.ok = false;
    reply.error = "only " + std::to_string(result.selected.size()) + " of " +
                  std::to_string(request.server_num) + " servers qualified";
    metrics_.query_errors->inc();
  } else {
    reply.servers = std::move(result.selected);
  }

  handle_span.tag("ok", reply.ok).tag("servers", reply.servers.size());
  {
    std::lock_guard<std::mutex> lock(reply_mu_);
    reply_cache_.put(key, CachedReply{snap->version, reply});
  }
  return finish(reply);
}

lang::RequirementCache::Stats Wizard::reply_cache_stats() const {
  std::lock_guard<std::mutex> lock(reply_mu_);
  return {reply_hits_, reply_misses_, reply_cache_.evictions(), reply_cache_.size()};
}

bool Wizard::poll_once(util::Duration timeout) {
  if (!socket_.valid()) return false;
  auto datagram = socket_.receive(timeout);
  if (!datagram) return false;

  auto request = UserRequest::from_wire(datagram->payload);
  if (!request) {
    metrics_.malformed->inc();
    SMARTSOCK_LOG(kWarn, "wizard") << "malformed request from "
                                   << datagram->peer.to_string();
    return false;
  }
  metrics_.requests->inc();
  obs::TraceEvent(util::LogLevel::kDebug, "wizard", "request_dequeue", request->trace_id)
      .kv("seq", request->sequence)
      .kv("peer", datagram->peer.to_string())
      .kv("requested", request->server_num);
  obs::Span request_span("wizard", "request", request->trace_id, 0, *config_.spans);
  request_span.tag("seq", request->sequence).tag("peer", datagram->peer.to_string());
  WizardReply reply = handle(*request, request_span.id());
  std::string wire = reply.to_wire();
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  obs::TraceEvent(util::LogLevel::kDebug, "wizard", "reply_send", request->trace_id)
      .kv("seq", request->sequence)
      .kv("ok", reply.ok)
      .kv("servers", reply.servers.size())
      .kv("bytes", wire.size());
  request_span.tag("ok", reply.ok).tag("bytes", wire.size());
  socket_.send_to(wire, datagram->peer);
  return true;
}

bool Wizard::start() {
  if (!socket_.valid() || !threads_.empty()) return false;
  stop_requested_.store(false, std::memory_order_release);
  std::size_t handlers = config_.handler_threads > 0 ? config_.handler_threads : 1;
  threads_.reserve(handlers);
  for (std::size_t i = 0; i < handlers; ++i) {
    threads_.emplace_back([this] { run_loop(); });
  }
  return true;
}

void Wizard::stop() {
  stop_requested_.store(true, std::memory_order_release);
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
}

void Wizard::run_loop() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    poll_once(std::chrono::milliseconds(50));
  }
}

}  // namespace smartsock::core
