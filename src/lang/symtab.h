// Symbol classification for the requirement language.
//
// The thesis distinguishes (§3.6.1) three variable classes plus builtins:
//  * server-side variables — 22 predefined names whose values come from the
//    monitors' status reports (Appendix B.1 plus the monitor_* network
//    metrics used in §5.3.2),
//  * user-side variables  — 10 predefined names (preferred/denied host
//    slots, Appendix B.2) whose values the user assigns,
//  * temp variables       — anything else the user assigns inside the
//    requirement text,
// and the hoc-style constants/built-in math functions of Appendix B.3/B.4.
//
// Every predefined server-side name owns a fixed slot. resolve_symbols()
// binds each identifier of a parsed program once, so the evaluator reads a
// server's values from a flat AttributeRow by index instead of looking names
// up per server.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lang/ast.h"

namespace smartsock::lang {

enum class SymbolClass : std::uint8_t {
  kServerVar,   // bound from status reports per candidate server
  kUserParam,   // preferred/denied host slots
  kConstant,    // PI, E, ...
  kBuiltin,     // math function
  kTemp,        // user-defined in the requirement text
  kUndefined,   // never assigned, not predefined
};

/// Attribute values for one candidate server, keyed by server-side variable
/// name. Names outside the predefined slots are extension attributes (Ch. 7).
using AttributeSet = std::map<std::string, double>;

/// The predefined server-side variables in slot order: the 22 of Appendix
/// B.1, then the 2 network-monitor variables (per server *group*, §3.3.3 /
/// §5.3.2).
inline constexpr std::size_t kServerVariables = 22;
inline constexpr std::array<std::string_view, 24> kAttributeNames = {
    // /proc/loadavg
    "host_system_load1", "host_system_load5", "host_system_load15",
    // /proc/stat cpu line (rates in [0,1]) + hardware speed
    "host_cpu_user", "host_cpu_nice", "host_cpu_system", "host_cpu_idle",
    "host_cpu_free", "host_cpu_bogomips",
    // /proc/meminfo, in MB
    "host_memory_total", "host_memory_used", "host_memory_free",
    // /proc/stat disk_io
    "host_disk_allreq", "host_disk_rreq", "host_disk_rblocks",
    "host_disk_wreq", "host_disk_wblocks",
    // /proc/net/dev, bytes/packets per second
    "host_network_rbytesps", "host_network_rpacketsps",
    "host_network_tbytesps", "host_network_tpacketsps",
    // security monitor clearance level
    "host_security_level",
    // network monitor: available bandwidth (Mbps) and delay (ms) to the
    // server's group
    "monitor_network_bw", "monitor_network_delay",
};
inline constexpr std::size_t kAttributeSlots = kAttributeNames.size();
static_assert(kAttributeSlots <= 32, "Program::attribute_slots is a 32-bit mask");

/// Slot of a predefined name, for field tables; an unknown name does not
/// compile.
consteval std::size_t slot_of(std::string_view name) {
  for (std::size_t slot = 0; slot < kAttributeSlots; ++slot) {
    if (kAttributeNames[slot] == name) return slot;
  }
  throw "not a predefined server-side variable";
}

/// Slot of a predefined name at run time; nullopt for any other name.
std::optional<std::size_t> attribute_slot(std::string_view name);

/// `kAttributeNames` as strings, for building AttributeSet keys.
const std::vector<std::string>& attribute_names();

/// One server's predefined variables, indexed by slot. A slot whose bit in
/// `present` is clear has no value in this report.
struct AttributeRow {
  std::array<double, kAttributeSlots> values{};
  std::uint32_t present = 0;

  void set(std::size_t slot, double value) {
    values[slot] = value;
    present |= 1u << slot;
  }
  bool has(std::size_t slot) const { return (present >> slot) & 1u; }

  /// The bound slots as name -> value.
  AttributeSet to_set() const;
};

/// The canonical 22 server-side variable names (Appendix B.1).
const std::vector<std::string>& server_variable_names();

/// The 10 user-side variable names (Appendix B.2):
/// user_preferred_host1..5, user_denied_host1..5.
const std::vector<std::string>& user_variable_names();

/// True for user_preferred_hostN slots, false for user_denied_hostN.
bool is_preferred_slot(std::string_view name);

/// hoc-style constants (Appendix B.3): PI, E, GAMMA, DEG, PHI.
std::optional<double> constant_value(std::string_view name);

/// Per-evaluation mutable scope: temp variables created by assignments.
class TempScope {
 public:
  void assign(const std::string& name, double value) { values_[name] = value; }
  std::optional<double> lookup(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  void clear() { values_.clear(); }
  std::size_t size() const { return values_.size(); }

 private:
  std::map<std::string, double> values_;
};

/// Classifies a name given the current evaluation state. Predefined names
/// classify the same way regardless of state; any other name is a temp once
/// assigned, else an extension server variable when `attrs` holds it, else
/// undefined.
SymbolClass classify_symbol(std::string_view name, const AttributeSet& attrs,
                            const TempScope& temps);

/// Binds every identifier in `program` (see Binding) and fills its
/// attribute-slot mask, temp count and `rank_by` temp. The parser calls this
/// on every program it produces.
void resolve_symbols(Program& program);

}  // namespace smartsock::lang
