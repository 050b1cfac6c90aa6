// Server status report — the probe→monitor wire unit (§3.2.1, Table 3.1).
//
// The thesis transmits reports as ASCII key=value strings (~200 bytes):
// numbers-as-text costs a few bytes but removes every endianness and
// alignment concern between heterogeneous probes and the monitor. We keep
// that exact design. One report carries the 22 server-side attributes the
// requirement language exposes, plus identity (host name, service endpoint,
// group) and a format version.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace smartsock::probe {

struct StatusReport {
  // identity
  std::string host;       // e.g. "dalmatian"
  std::string address;    // service endpoint "ip:port"
  std::string group;      // server group for netdb lookups (§3.3.3)

  // /proc/loadavg
  double load1 = 0.0;
  double load5 = 0.0;
  double load15 = 0.0;

  // /proc/stat cpu rates over the sampling interval, each in [0,1]
  double cpu_user = 0.0;
  double cpu_nice = 0.0;
  double cpu_system = 0.0;
  double cpu_idle = 1.0;
  double bogomips = 0.0;  // /proc/cpuinfo

  // /proc/meminfo in MB
  double mem_total_mb = 0.0;
  double mem_used_mb = 0.0;
  double mem_free_mb = 0.0;

  // /proc/stat disk_io rates per second over the sampling interval
  double disk_rreq_ps = 0.0;
  double disk_rblocks_ps = 0.0;
  double disk_wreq_ps = 0.0;
  double disk_wblocks_ps = 0.0;

  // /proc/net/dev rates per second over the sampling interval
  double net_rbytes_ps = 0.0;
  double net_rpackets_ps = 0.0;
  double net_tbytes_ps = 0.0;
  double net_tpackets_ps = 0.0;

  /// Serializes to the ASCII wire format:
  ///   "SSR1 host=<h> addr=<a> group=<g> load1=<v> ... tpkt=<v>"
  std::string to_wire() const;

  /// Selected-parameter variant (Ch. 6 "Selected parameters"): emits only
  /// the listed wire keys (identity always included), cutting report size
  /// when middleware cares about a few attributes. Unreported parameters
  /// parse as zero on the monitor side — the conservative direction for
  /// ">" requirements. An empty filter reports everything.
  std::string to_wire_selected(const std::vector<std::string>& keys) const;

  /// All numeric wire keys, in report order (for building filters).
  static std::vector<std::string> wire_keys();

  /// Parses the wire format; nullopt on malformed input or wrong version.
  static std::optional<StatusReport> from_wire(std::string_view wire);

  /// host_cpu_free as defined by the thesis: idle share of the interval.
  double cpu_free() const { return cpu_idle; }
};

}  // namespace smartsock::probe
