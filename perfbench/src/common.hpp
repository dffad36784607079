// Shared helpers of the benchmark binary: the metric report, order
// statistics, a steady-clock stopwatch, partition hashing and the
// correctness checks every measured operation goes through.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/partitioner.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds of the whole process: user plus system time of every
/// thread, exited ones included.  The end-to-end timings read this clock.
/// On a shared host the wall time of a 4-thread pass swings up to 3x
/// with other tenants' load within minutes, while its CPU time stays
/// within a few percent.
[[nodiscard]] double process_cpu_seconds();

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

/// One named metric as it appears in the final JSON line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered metric list plus the operation counters of the run.
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Counts one checked operation; `error` empty means it was valid.
  void check(const std::string& what, const std::string& error);
  /// The contract's last stdout line: correct / attempted / failed / metrics.
  [[nodiscard]] std::string json() const;
};

/// Adds the median over `samples` of each metric, and prints its
/// quartiles and sample count.  Every sample lists the same metrics in
/// the same order.
void add_medians(Report& report,
                 const std::vector<std::vector<Metric>>& samples);

/// FNV-1a over the partition vector (the same hash bench_e2e reports).
[[nodiscard]] std::uint64_t partition_fnv(const gp::Partition& p);

/// Empty when `r` is a valid k-way partition of g: structure, stored cut
/// and balance match recomputation, and no device pool block leaked.
/// With a `balance_slack`, the balance must also lie within eps plus the
/// granularity of the heaviest vertex plus that slack (the envelope of
/// tests/test_differential.cpp).
[[nodiscard]] std::string check_result(const gp::CsrGraph& g, gp::part_t k,
                                       double eps,
                                       const gp::PartitionResult& r,
                                       std::optional<double> balance_slack);

}  // namespace pb
