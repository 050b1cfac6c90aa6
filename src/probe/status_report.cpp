#include "probe/status_report.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/strings.h"

namespace smartsock::probe {

namespace {
constexpr std::string_view kMagic = "SSR1";

// Short wire keys keep the report near the thesis's ~200-byte size.
struct FieldMap {
  const char* key;
  double StatusReport::* member;
};

const std::vector<FieldMap>& numeric_fields() {
  static const std::vector<FieldMap> fields = {
      {"l1", &StatusReport::load1},
      {"l5", &StatusReport::load5},
      {"l15", &StatusReport::load15},
      {"cu", &StatusReport::cpu_user},
      {"cn", &StatusReport::cpu_nice},
      {"cs", &StatusReport::cpu_system},
      {"ci", &StatusReport::cpu_idle},
      {"bogo", &StatusReport::bogomips},
      {"mt", &StatusReport::mem_total_mb},
      {"mu", &StatusReport::mem_used_mb},
      {"mf", &StatusReport::mem_free_mb},
      {"drr", &StatusReport::disk_rreq_ps},
      {"drb", &StatusReport::disk_rblocks_ps},
      {"dwr", &StatusReport::disk_wreq_ps},
      {"dwb", &StatusReport::disk_wblocks_ps},
      {"nrb", &StatusReport::net_rbytes_ps},
      {"nrp", &StatusReport::net_rpackets_ps},
      {"ntb", &StatusReport::net_tbytes_ps},
      {"ntp", &StatusReport::net_tpackets_ps},
  };
  return fields;
}
}  // namespace

std::string StatusReport::to_wire() const { return to_wire_selected({}); }

std::string StatusReport::to_wire_selected(const std::vector<std::string>& keys) const {
  std::string out(kMagic);
  out += " host=" + host;
  out += " addr=" + address;
  out += " group=" + group;
  for (const FieldMap& field : numeric_fields()) {
    if (!keys.empty() &&
        std::find(keys.begin(), keys.end(), field.key) == keys.end()) {
      continue;
    }
    out += " ";
    out += field.key;
    out += "=";
    out += util::format_double(this->*(field.member));
  }
  return out;
}

std::vector<std::string> StatusReport::wire_keys() {
  std::vector<std::string> out;
  out.reserve(numeric_fields().size());
  for (const FieldMap& field : numeric_fields()) out.emplace_back(field.key);
  return out;
}

std::optional<StatusReport> StatusReport::from_wire(std::string_view wire) {
  auto tokens = util::split_whitespace(wire);
  if (tokens.empty() || tokens[0] != kMagic) return std::nullopt;

  StatusReport report;
  bool saw_host = false;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    std::size_t eq = tokens[i].find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    std::string_view key = tokens[i].substr(0, eq);
    std::string_view value = tokens[i].substr(eq + 1);

    if (key == "host") {
      report.host = std::string(value);
      saw_host = true;
      continue;
    }
    if (key == "addr") {
      report.address = std::string(value);
      continue;
    }
    if (key == "group") {
      report.group = std::string(value);
      continue;
    }
    bool matched = false;
    for (const FieldMap& field : numeric_fields()) {
      if (key == field.key) {
        auto parsed = util::parse_double(value);
        if (!parsed) return std::nullopt;
        report.*(field.member) = *parsed;
        matched = true;
        break;
      }
    }
    // Unknown keys are skipped: newer probes may report extra parameters to
    // older monitors (the thesis's "expandable framework" requirement).
    (void)matched;
  }
  if (!saw_host) return std::nullopt;
  return report;
}

}  // namespace smartsock::probe
