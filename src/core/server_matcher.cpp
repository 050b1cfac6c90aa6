#include "core/server_matcher.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

namespace smartsock::core {

namespace {

using lang::slot_of;

/// The one sysdb-field -> server-variable table. host_security_level comes
/// from secdb and monitor_network_* from netdb; the matcher binds those.
void fill_sys_row(const ipc::SysRecord& r, lang::AttributeRow& row) {
  row.set(slot_of("host_system_load1"), r.load1);
  row.set(slot_of("host_system_load5"), r.load5);
  row.set(slot_of("host_system_load15"), r.load15);
  row.set(slot_of("host_cpu_user"), r.cpu_user);
  row.set(slot_of("host_cpu_nice"), r.cpu_nice);
  row.set(slot_of("host_cpu_system"), r.cpu_system);
  row.set(slot_of("host_cpu_idle"), r.cpu_idle);
  row.set(slot_of("host_cpu_free"), r.cpu_idle);
  row.set(slot_of("host_cpu_bogomips"), r.bogomips);
  row.set(slot_of("host_memory_total"), r.mem_total_mb);
  row.set(slot_of("host_memory_used"), r.mem_used_mb);
  row.set(slot_of("host_memory_free"), r.mem_free_mb);
  row.set(slot_of("host_disk_allreq"), r.disk_rreq_ps + r.disk_wreq_ps);
  row.set(slot_of("host_disk_rreq"), r.disk_rreq_ps);
  row.set(slot_of("host_disk_rblocks"), r.disk_rblocks_ps);
  row.set(slot_of("host_disk_wreq"), r.disk_wreq_ps);
  row.set(slot_of("host_disk_wblocks"), r.disk_wblocks_ps);
  row.set(slot_of("host_network_rbytesps"), r.net_rbytes_ps);
  row.set(slot_of("host_network_rpacketsps"), r.net_rpackets_ps);
  row.set(slot_of("host_network_tbytesps"), r.net_tbytes_ps);
  row.set(slot_of("host_network_tpacketsps"), r.net_tpackets_ps);
}

bool name_matches(std::string_view pattern, std::string_view host, std::string_view address) {
  if (pattern == host || pattern == address) return true;
  // Address without port ("1.2.3.4" vs "1.2.3.4:5000").
  std::size_t colon = address.rfind(':');
  if (colon != std::string_view::npos && pattern == address.substr(0, colon)) return true;
  // Fully qualified vs short host name ("sagit.ddns.comp.nus.edu.sg" vs
  // "sagit").
  std::size_t dot = pattern.find('.');
  if (dot != std::string_view::npos && pattern.substr(0, dot) == host) return true;
  return false;
}

bool in_list(const std::vector<std::string>& patterns, std::string_view host,
             std::string_view address) {
  return std::any_of(patterns.begin(), patterns.end(), [&](const std::string& p) {
    return name_matches(p, host, address);
  });
}

/// Open-addressing map from a name to a value, built once per query in one
/// allocation and keyed by views into the query's records. The first
/// emplace of a name wins, matching a sequential scan's first match.
template <typename Value>
class NameIndex {
 public:
  explicit NameIndex(std::size_t names) : slots_(std::bit_ceil(2 * names + 1)) {}

  void emplace(std::string_view name, const Value& value) {
    for (std::size_t i = hash(name);; ++i) {
      Slot& slot = slots_[i & (slots_.size() - 1)];
      if (!slot.used) {
        slot = Slot{name, value, true};
        return;
      }
      if (slot.name == name) return;
    }
  }

  const Value* find(std::string_view name) const {
    for (std::size_t i = hash(name);; ++i) {
      const Slot& slot = slots_[i & (slots_.size() - 1)];
      if (!slot.used) return nullptr;
      if (slot.name == name) return &slot.value;
    }
  }

 private:
  struct Slot {
    std::string_view name;
    Value value{};
    bool used = false;
  };

  static std::size_t hash(std::string_view name) {  // FNV-1a
    std::uint64_t h = 14695981039346656037ull;
    for (char c : name) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    return static_cast<std::size_t>(h);
  }

  std::vector<Slot> slots_;
};

/// Everything the merge stage needs about one sys record, produced by the
/// (possibly parallel) evaluation stage. Index-addressed so chunk scheduling
/// cannot reorder anything. A denied record stays at the defaults.
struct RecordOutcome {
  bool qualified = false;
  bool preferred = false;
  bool has_rank = false;
  double rank = 0.0;
  std::vector<std::string> diagnostics;
};

}  // namespace

lang::AttributeSet sys_record_attributes(const ipc::SysRecord& record) {
  lang::AttributeRow row;
  fill_sys_row(record, row);
  return row.to_set();
}

ServerMatcher::ServerMatcher(std::size_t threads)
    : pool_(threads > 1 ? std::make_shared<util::ThreadPool>(threads - 1) : nullptr) {}

MatchResult ServerMatcher::match(const lang::Requirement& requirement, const MatchView& input,
                                 std::size_t count) const {
  MatchResult result;
  count = std::min(count, kMaxServersPerReply);

  const auto& preferred = requirement.preferred_hosts();
  const auto& denied = requirement.denied_hosts();

  // Index secdb by host and netdb by destination group once per query
  // instead of scanning both per record (the seed's O(records²) behavior).
  // Keys view the input's fixed char arrays. emplace keeps the first
  // occurrence, matching the serial scan's first-match-wins semantics.
  NameIndex<double> sec_by_host(input.sec.size());
  for (const ipc::SecRecord& sec : input.sec) {
    sec_by_host.emplace(sec.host_view(), static_cast<double>(sec.level));
  }
  NameIndex<std::pair<double, double>> net_by_group(input.net.size());  // bw, delay
  for (const ipc::NetRecord& net : input.net) {
    if (net.from_view() == input.local_group) {
      net_by_group.emplace(net.to_view(), {net.bw_mbps, net.delay_ms});
    }
  }

  // Stage 1 — per-record evaluation, data-parallel over contiguous index
  // ranges when this matcher owns a pool. A record that neither qualifies
  // nor errors allocates nothing: its row lives on the stack and names stay
  // views into the record.
  std::vector<RecordOutcome> outcomes(input.sys.size());
  auto evaluate_range = [&](std::size_t begin, std::size_t end) {
    lang::Evaluator evaluator;
    for (std::size_t i = begin; i < end; ++i) {
      const ipc::SysRecord& record = input.sys[i];
      RecordOutcome& out = outcomes[i];
      std::string_view host = record.host_view();
      std::string_view address = record.address_view();
      if (in_list(denied, host, address)) continue;  // blacklist is absolute

      lang::AttributeRow row;
      fill_sys_row(record, row);

      // Security level from secdb (servers without a record default to 0 —
      // unknown clearance).
      const double* level = sec_by_host.find(host);
      row.set(slot_of("host_security_level"), level ? *level : 0.0);

      // Network metrics for the path local_group -> server group. Left
      // unbound when unmeasured: a requirement that mentions
      // monitor_network_bw then fails for that server, which is the safe
      // direction.
      if (const auto* net = net_by_group.find(record.group_view())) {
        row.set(slot_of("monitor_network_bw"), net->first);
        row.set(slot_of("monitor_network_delay"), net->second);
      }

      lang::Verdict verdict = requirement.judge(row, evaluator, &out.diagnostics);
      for (std::string& diagnostic : out.diagnostics) {
        diagnostic.insert(0, std::string(host) + ": ");
      }
      if (!verdict.qualified) continue;
      out.qualified = true;
      out.has_rank = verdict.rank.has_value();
      out.rank = verdict.rank.value_or(0.0);
      out.preferred = in_list(preferred, host, address);
    }
  };
  if (pool_) {
    pool_->parallel_for(input.sys.size(), evaluate_range);
  } else {
    evaluate_range(0, input.sys.size());
  }

  // Stage 2 — serial merge in record order: byte-identical to the thesis's
  // sequential database scan regardless of how stage 1 was scheduled.
  struct Hit {
    std::size_t index;
    double rank;
  };
  std::vector<Hit> preferred_hits;
  std::vector<Hit> other_hits;
  bool ranked = false;

  result.evaluated = outcomes.size();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    RecordOutcome& out = outcomes[i];
    for (std::string& diagnostic : out.diagnostics) {
      result.diagnostics.push_back(std::move(diagnostic));
    }
    if (!out.qualified) continue;

    ++result.qualified;
    if (out.has_rank) ranked = true;
    (out.preferred ? preferred_hits : other_hits).push_back(Hit{i, out.rank});
  }

  // The `rank_by` extension (thesis Ch. 6: "3 servers with largest memory"):
  // order candidates by their per-server rank value, highest first, stably —
  // unranked requirements keep the thesis's report order. Preferred hosts
  // still come first regardless of rank.
  if (ranked) {
    auto by_rank = [](const Hit& a, const Hit& b) { return a.rank > b.rank; };
    std::stable_sort(preferred_hits.begin(), preferred_hits.end(), by_rank);
    std::stable_sort(other_hits.begin(), other_hits.end(), by_rank);
  }

  // Only the servers that make the reply get owned names.
  for (const auto* hits : {&preferred_hits, &other_hits}) {
    for (const Hit& hit : *hits) {
      if (result.selected.size() >= count) break;
      const ipc::SysRecord& record = input.sys[hit.index];
      result.selected.push_back(ServerEntry{record.host_str(), record.address_str()});
    }
  }
  return result;
}

}  // namespace smartsock::core
