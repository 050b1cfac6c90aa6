// The benchmark's own model of the fleet and of the requirements it asks.
//
// Every value a report carries comes from here, and every reply is checked
// against here with plain C++ predicates, never with the requirement
// language. The values a requirement can test (cpu free, memory free,
// security level, the group's bandwidth) are fixed per host for a run; the
// reporters only vary values no requirement tests (two traffic rates and the
// freshness marker), so each requirement's answer stays exact while writes
// are in flight.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "ipc/status_record.h"
#include "probe/status_report.h"
#include "util/rng.h"

namespace perfbench {

inline constexpr std::size_t kGroups = 8;
/// Freshness markers set host_cpu_bogomips to kMarkerBase + k; unmarked
/// hosts report far below it.
inline constexpr double kMarkerBase = 100000.0;
/// The prober asks for one window of marker values at a time; the wizard
/// returns at most 60 servers, so a window never holds more than that.
inline constexpr std::size_t kMarkerWindow = 60;

struct Host {
  smartsock::probe::StatusReport report;  // the values last sent
  int security_level = 0;
  std::size_t group = 0;
  std::uint64_t sends = 0;
};

struct Fleet {
  std::vector<Host> hosts;
  std::vector<double> group_bw;  // path local -> group i, Mbit/s
  std::vector<smartsock::ipc::NetRecord> net;
  std::vector<smartsock::ipc::SecRecord> sec;
};

inline std::string host_name(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "h%05zu", i);
  return buf;
}

/// Index of a host named by host_name(), or `fleet` when the name is not one.
inline std::size_t host_index(std::string_view name, std::size_t fleet) {
  if (name.size() != 6 || name[0] != 'h') return fleet;
  std::size_t index = 0;
  for (char c : name.substr(1)) {
    if (c < '0' || c > '9') return fleet;
    index = index * 10 + static_cast<std::size_t>(c - '0');
  }
  return index < fleet ? index : fleet;
}

inline Fleet make_fleet(std::size_t size, std::uint64_t seed) {
  smartsock::util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  Fleet fleet;
  for (std::size_t g = 0; g < kGroups; ++g) {
    // Odd multiples of 5 Mbit/s: never equal to a bandwidth threshold.
    double bw = static_cast<double>(2 * rng.uniform_int(0, 7) + 1) * 5.0;
    fleet.group_bw.push_back(bw);
    smartsock::ipc::NetRecord net;
    smartsock::ipc::copy_fixed(net.from_group, smartsock::ipc::kGroupLen, "local");
    smartsock::ipc::copy_fixed(net.to_group, smartsock::ipc::kGroupLen,
                               "g" + std::to_string(g));
    net.bw_mbps = bw;
    net.delay_ms = static_cast<double>(1 + g);
    fleet.net.push_back(net);
  }
  fleet.hosts.resize(size);
  for (std::size_t i = 0; i < size; ++i) {
    Host& host = fleet.hosts[i];
    host.group = static_cast<std::size_t>(rng.uniform_int(0, kGroups - 1));
    host.security_level = static_cast<int>(rng.uniform_int(0, 5));
    smartsock::probe::StatusReport& r = host.report;
    r.host = host_name(i);
    r.address = "10.0." + std::to_string(i / 256) + "." + std::to_string(i % 256) + ":5000";
    r.group = "g" + std::to_string(host.group);
    // Odd multiples of 1/40 and of 64 MB: never equal to a threshold.
    r.cpu_idle = static_cast<double>(2 * rng.uniform_int(0, 19) + 1) / 40.0;
    r.cpu_user = (1.0 - r.cpu_idle) * 0.75;
    r.cpu_system = (1.0 - r.cpu_idle) * 0.25;
    r.cpu_nice = 0.0;
    r.mem_total_mb = 8192.0;
    r.mem_free_mb = static_cast<double>(2 * rng.uniform_int(0, 31) + 1) * 64.0;
    r.mem_used_mb = r.mem_total_mb - r.mem_free_mb;
    r.load1 = static_cast<double>(rng.uniform_int(0, 400)) / 100.0;
    r.load5 = r.load1;
    r.load15 = r.load1;
    r.bogomips = 4000.0 + static_cast<double>(100 * (i % 7));
    r.disk_rreq_ps = static_cast<double>(rng.uniform_int(0, 50));
    r.disk_rblocks_ps = r.disk_rreq_ps * 8.0;
    r.net_tbytes_ps = static_cast<double>(rng.uniform_int(0, 100000));
    r.net_tpackets_ps = std::floor(r.net_tbytes_ps / 1000.0);
    smartsock::ipc::SecRecord sec;
    smartsock::ipc::copy_fixed(sec.host, smartsock::ipc::kHostNameLen, r.host);
    sec.level = host.security_level;
    fleet.sec.push_back(sec);
  }
  return fleet;
}

/// The per-send change: values no requirement tests.
inline void advance(Host& host) {
  ++host.sends;
  host.report.net_rbytes_ps = static_cast<double>(host.sends);
  host.report.net_rpackets_ps = static_cast<double>(host.sends % 97);
}

/// One requirement, held both as text for the wizard and as the thresholds
/// the benchmark's predicate tests. A negative threshold means "not tested".
struct Req {
  double cpu_gt = -1;
  double mem_gt = -1;
  int sec_ge = -1;
  double bw_gt = -1;
  double marker_lo = -1;  // host_cpu_bogomips in [marker_lo, marker_hi)
  double marker_hi = -1;
  std::string text;

  bool qualifies(const Fleet& fleet, const Host& host) const {
    const smartsock::probe::StatusReport& r = host.report;
    if (cpu_gt >= 0 && !(r.cpu_idle > cpu_gt)) return false;
    if (mem_gt >= 0 && !(r.mem_free_mb > mem_gt)) return false;
    if (sec_ge >= 0 && !(host.security_level >= sec_ge)) return false;
    if (bw_gt >= 0 && !(fleet.group_bw[host.group] > bw_gt)) return false;
    if (marker_lo >= 0 && !(r.bogomips >= marker_lo && r.bogomips < marker_hi)) return false;
    return true;
  }
};

inline Req make_req(double cpu_gt, double mem_gt, int sec_ge, double bw_gt) {
  Req req;
  req.cpu_gt = cpu_gt;
  req.mem_gt = mem_gt;
  req.sec_ge = sec_ge;
  req.bw_gt = bw_gt;
  char buf[192];
  int n = std::snprintf(buf, sizeof(buf), "host_cpu_free > %.2f && host_memory_free > %.0f",
                        cpu_gt, mem_gt);
  if (sec_ge >= 0) {
    n += std::snprintf(buf + n, sizeof(buf) - n, " && host_security_level >= %d", sec_ge);
  }
  if (bw_gt >= 0) {
    std::snprintf(buf + n, sizeof(buf) - n, " && monitor_network_bw > %.0f", bw_gt);
  }
  req.text = buf;
  return req;
}

inline Req marker_req(double lo) {
  Req req;
  req.marker_lo = lo;
  req.marker_hi = lo + static_cast<double>(kMarkerWindow);
  char buf[128];
  std::snprintf(buf, sizeof(buf), "host_cpu_bogomips >= %.0f && host_cpu_bogomips < %.0f",
                req.marker_lo, req.marker_hi);
  req.text = buf;
  return req;
}

/// select_cached: 16 texts over cpu and memory thresholds. Together with
/// kCachedCounts they make 64 distinct requests, fewer than the wizard's
/// 128-entry reply cache.
inline std::vector<Req> cached_pool() {
  std::vector<Req> pool;
  for (int i = 0; i < 16; ++i) {
    pool.push_back(make_req(static_cast<double>(2 + 2 * (i % 8)) / 20.0,
                            static_cast<double>(768 * (i / 8)), -1, -1));
  }
  return pool;
}
inline constexpr std::size_t kCachedCounts[] = {1, 5, 20, 60};

/// select_uncached: 16 cpu x 16 memory x 4 security x 4 bandwidth thresholds
/// = 4,096 texts, far more than the 128-entry requirement and reply caches.
inline std::vector<Req> uncached_pool() {
  std::vector<Req> pool;
  for (int c = 1; c <= 16; ++c) {
    for (int m = 0; m < 16; ++m) {
      for (int s = 0; s < 4; ++s) {
        for (int b = 0; b < 4; ++b) {
          pool.push_back(make_req(static_cast<double>(c) / 20.0,
                                  static_cast<double>(128 * m), s,
                                  static_cast<double>(10 * b)));
        }
      }
    }
  }
  return pool;
}

}  // namespace perfbench
