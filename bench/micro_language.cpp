// Microbenchmarks (google-benchmark) — requirement-language costs on the
// wizard's hot path: the wizard compiles once per request and evaluates once
// per server record, so both paths are measured, plus a whole-fleet match
// (its per_record counter is the per-layer core.match_ns_per_record) and the
// probe-report parse the system monitor performs per datagram.
#include <benchmark/benchmark.h>

#include "core/server_matcher.h"
#include "lang/requirement.h"
#include "probe/status_report.h"

namespace {

const char* kThesisRequirement =
    "host_system_load1 < 1\n"
    "host_memory_used <= 250*1024*1024\n"
    "host_cpu_free >= 0.9\n"
    "host_network_tbytesps < 1024*1024\n"
    "user_denied_host1 = 137.132.90.182\n"
    "user_preferred_host1 = sagit.ddns.comp.nus.edu.sg\n";

void BM_CompileRequirement(benchmark::State& state) {
  for (auto _ : state) {
    auto requirement = smartsock::lang::Requirement::compile(kThesisRequirement);
    benchmark::DoNotOptimize(requirement);
  }
}
BENCHMARK(BM_CompileRequirement);

void BM_EvaluateRequirement(benchmark::State& state) {
  auto requirement = smartsock::lang::Requirement::compile(kThesisRequirement);
  smartsock::lang::AttributeSet attrs{
      {"host_system_load1", 0.3},      {"host_memory_used", 100.0 * 1024 * 1024},
      {"host_cpu_free", 0.95},         {"host_network_tbytesps", 1000.0},
  };
  for (auto _ : state) {
    auto outcome = requirement->evaluate(attrs);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_EvaluateRequirement);

void BM_MatchSixtyServers(benchmark::State& state) {
  auto requirement = smartsock::lang::Requirement::compile("host_cpu_free > 0.5");
  smartsock::core::MatchInput input;
  for (int i = 0; i < 60; ++i) {
    smartsock::ipc::SysRecord record;
    smartsock::ipc::copy_fixed(record.host, smartsock::ipc::kHostNameLen,
                               "host" + std::to_string(i));
    smartsock::ipc::copy_fixed(record.address, smartsock::ipc::kAddressLen,
                               "10.0.0." + std::to_string(i) + ":1");
    record.cpu_idle = (i % 2) ? 0.9 : 0.2;
    input.sys.push_back(record);
  }
  smartsock::core::ServerMatcher matcher;
  for (auto _ : state) {
    auto result = matcher.match(*requirement, input, 60);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MatchSixtyServers);

// A fleet shaped like the benchmark's: cpu and free memory spread per host,
// one secdb level per host, 8 netdb groups; about a tenth of the hosts
// qualify, as with a typical select_uncached request.
void BM_MatchFleet(benchmark::State& state) {
  namespace ipc = smartsock::ipc;
  const auto hosts = static_cast<std::size_t>(state.range(0));
  auto requirement = smartsock::lang::Requirement::compile(
      "host_cpu_free > 0.45 && host_memory_free > 1000 && host_security_level >= 2 && "
      "monitor_network_bw > 20");
  smartsock::core::MatchInput input;
  input.local_group = "local";
  for (int g = 0; g < 8; ++g) {
    ipc::NetRecord net;
    ipc::copy_fixed(net.from_group, ipc::kGroupLen, "local");
    ipc::copy_fixed(net.to_group, ipc::kGroupLen, "g" + std::to_string(g));
    net.bw_mbps = 5.0 + 10.0 * g;
    net.delay_ms = 1.0 + g;
    input.net.push_back(net);
  }
  for (std::size_t i = 0; i < hosts; ++i) {
    ipc::SysRecord record;
    std::string host = "host" + std::to_string(i);
    ipc::copy_fixed(record.host, ipc::kHostNameLen, host);
    ipc::copy_fixed(record.address, ipc::kAddressLen,
                    "10.0." + std::to_string(i / 256) + "." + std::to_string(i % 256) + ":5000");
    ipc::copy_fixed(record.group, ipc::kGroupLen, "g" + std::to_string(i % 8));
    record.cpu_idle = static_cast<double>((i * 7) % 40) / 40.0;
    record.mem_total_mb = 8192;
    record.mem_free_mb = static_cast<double>((i * 13) % 64) * 64.0;
    record.mem_used_mb = record.mem_total_mb - record.mem_free_mb;
    input.sys.push_back(record);
    ipc::SecRecord sec;
    ipc::copy_fixed(sec.host, ipc::kHostNameLen, host);
    sec.level = static_cast<std::int32_t>(i % 6);
    input.sec.push_back(sec);
  }
  smartsock::core::ServerMatcher matcher;
  for (auto _ : state) {
    auto result = matcher.match(*requirement, input, 60);
    benchmark::DoNotOptimize(result);
  }
  // Seconds per record ("698n" reads 698 ns).
  state.counters["per_record"] = benchmark::Counter(
      static_cast<double>(hosts),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_MatchFleet)->Arg(2000)->Arg(5000)->Unit(benchmark::kMicrosecond);

void BM_ParseProbeReport(benchmark::State& state) {
  smartsock::probe::StatusReport report;
  report.host = "dalmatian";
  report.address = "127.0.0.1:5001";
  report.group = "seg1";
  report.load1 = 0.25;
  report.bogomips = 4771.02;
  std::string wire = report.to_wire();
  for (auto _ : state) {
    auto parsed = smartsock::probe::StatusReport::from_wire(wire);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_ParseProbeReport);

}  // namespace

BENCHMARK_MAIN();
