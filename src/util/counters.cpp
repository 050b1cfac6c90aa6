#include "util/counters.h"

#include <cmath>
#include <fstream>
#include <sstream>

namespace smartsock::util {

namespace {

// Bucket i ends at kGrowth^(i+1) µs; kGrowth^256 ≈ 1e7 µs (10 s).
const double kLogGrowth = std::log(1e7) / LatencyRecorder::kBuckets;

}  // namespace

std::size_t LatencyRecorder::bucket_for(double micros) {
  if (!(micros > 1.0)) return 0;
  auto bucket = static_cast<std::size_t>(std::log(micros) / kLogGrowth);
  return bucket < kBuckets ? bucket : kBuckets - 1;
}

double LatencyRecorder::bucket_mid_us(std::size_t bucket) {
  // Geometric midpoint of [growth^bucket, growth^(bucket+1)).
  return std::exp(kLogGrowth * (static_cast<double>(bucket) + 0.5));
}

double LatencyRecorder::bucket_upper_us(std::size_t bucket) {
  return std::exp(kLogGrowth * (static_cast<double>(bucket) + 1.0));
}

std::vector<std::pair<double, std::uint64_t>> LatencyRecorder::nonzero_buckets() const {
  std::vector<std::pair<double, std::uint64_t>> out;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    std::uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) out.emplace_back(bucket_upper_us(i), n);
  }
  return out;
}

void LatencyRecorder::record_us(double micros) {
  if (micros < 0) micros = 0;
  buckets_[bucket_for(micros)].fetch_add(1, std::memory_order_relaxed);
  total_count_.fetch_add(1, std::memory_order_relaxed);
  total_tenth_us_.fetch_add(static_cast<std::uint64_t>(micros * 10.0),
                            std::memory_order_relaxed);
  sketch_.add(micros);
}

double LatencyRecorder::mean_us() const {
  std::uint64_t n = total_count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  return static_cast<double>(total_tenth_us_.load(std::memory_order_relaxed)) / 10.0 /
         static_cast<double>(n);
}

double LatencyRecorder::percentile(double pct) const {
  std::uint64_t n = total_count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  if (pct < 0) pct = 0;
  if (pct > 100) pct = 100;
  auto target =
      static_cast<std::uint64_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  if (target == 0) target = 1;
  if (target > n) target = n;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= target) return bucket_mid_us(i);
  }
  return bucket_mid_us(kBuckets - 1);
}

void LatencyRecorder::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  total_count_.store(0, std::memory_order_relaxed);
  total_tenth_us_.store(0, std::memory_order_relaxed);
  sketch_.reset();
}

std::uint64_t current_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream stream(line.substr(6));
      std::uint64_t kb = 0;
      stream >> kb;
      return kb;
    }
  }
  return 0;
}

}  // namespace smartsock::util
