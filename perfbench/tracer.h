// The benchmark's own spans: recorded from the benchmark's files around its
// calls into the program's public functions, kept in memory, and written out
// once at the end as a Chrome trace (chrome://tracing or ui.perfetto.dev).
//
// A span has a name "<layer>.<hop>", a trace id shared by every hop of one
// query or one report, its parent, and `ops`: the number of calls it covers,
// so a span around a loop of N calls yields a per-call time.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

struct SpanRec {
  std::string name;
  std::uint64_t trace = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t ops = 1;
  double ns_per_op() const {
    return static_cast<double>(end_ns - start_ns) / static_cast<double>(ops ? ops : 1);
  }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  std::uint64_t next_id() {
    std::lock_guard<std::mutex> lock(mu_);
    return next_id_++;
  }
  void add(SpanRec span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }
  /// Per-call nanoseconds of every span named `name`.
  std::vector<double> per_op_ns(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const SpanRec& span : spans_) {
      if (span.name == name) out.push_back(span.ns_per_op());
    }
    return out;
  }

  /// Whole durations, in ns, of every span named `name`.
  std::vector<double> durations_ns(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const SpanRec& span : spans_) {
      if (span.name == name) out.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
    return out;
  }

  /// Self time per layer: each span's duration minus the part of it its
  /// children cover, summed by the name's layer prefix. The sampled
  /// end-to-end spans ("e2e.*") wrap whole operations the benchmark cannot
  /// see into, and are left out.
  std::map<std::string, double> self_ns_by_layer() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::unordered_map<std::uint64_t, std::vector<const SpanRec*>> children;
    for (const SpanRec& span : spans_) {
      if (span.parent != 0) children[span.parent].push_back(&span);
    }
    std::map<std::string, double> out;
    for (const SpanRec& span : spans_) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
      auto it = children.find(span.id);
      if (it != children.end()) {
        for (const SpanRec* child : it->second) {
          covered.emplace_back(std::max(child->start_ns, span.start_ns),
                               std::min(child->end_ns, span.end_ns));
        }
      }
      std::sort(covered.begin(), covered.end());
      std::uint64_t child_ns = 0;
      std::uint64_t reach = span.start_ns;
      for (auto [begin, end] : covered) {
        begin = std::max(begin, reach);
        if (end > begin) {
          child_ns += end - begin;
          reach = end;
        }
      }
      std::string layer = span.name.substr(0, span.name.find('.'));
      if (layer == "e2e") continue;
      out[layer] += static_cast<double>(span.end_ns - span.start_ns - child_ns);
    }
    return out;
  }

  bool write_chrome_trace(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) return false;
    std::uint64_t origin = UINT64_MAX;
    for (const SpanRec& span : spans_) origin = std::min(origin, span.start_ns);
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const SpanRec& span : spans_) {
      out << (first ? "\n" : ",\n");
      first = false;
      std::string layer = span.name.substr(0, span.name.find('.'));
      out << "{\"name\":\"" << span.name << "\",\"cat\":\"" << layer
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.trace
          << ",\"ts\":" << static_cast<double>(span.start_ns - origin) / 1e3
          << ",\"dur\":" << static_cast<double>(span.end_ns - span.start_ns) / 1e3
          << ",\"args\":{\"trace\":" << span.trace << ",\"id\":" << span.id
          << ",\"parent\":" << span.parent << ",\"ops\":" << span.ops << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<SpanRec> spans_;
};

/// RAII span; does nothing when the tracer is off.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t trace, std::uint64_t parent = 0,
       std::uint64_t ops = 1)
      : tracer_(tracer) {
    if (!tracer_.enabled()) return;
    rec_.name = name;
    rec_.trace = trace;
    rec_.parent = parent;
    rec_.ops = ops;
    rec_.id = tracer_.next_id();
    rec_.start_ns = now_ns();
  }
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return rec_.id; }
  void set_ops(std::uint64_t ops) { rec_.ops = ops; }
  void end() {
    if (!tracer_.enabled() || done_) return;
    done_ = true;
    rec_.end_ns = now_ns();
    tracer_.add(std::move(rec_));
  }

 private:
  Tracer& tracer_;
  SpanRec rec_;
  bool done_ = false;
};

}  // namespace perfbench
