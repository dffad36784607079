// The benchmark's workloads: which graphs each one partitions, with which
// options.  The run's --seed is the partition seed of every job; service
// requests draw their own partition seeds from it.
//
//   mesh-k64     ldoor + delaunay stand-ins at 1/64 scale, k = 64: the
//                coarsest graphs stay large, so initial partitioning is a
//                big share of every system's modeled time.
//   sparse-k64   hugebubble + usa-roads stand-ins at 1/64 scale, k = 64:
//                average degree 2.4-3, many coarsening levels, so
//                coarsening and uncoarsening dominate.
//   service-mix  four small graphs at k in {8, 64} driven as a closed loop
//                through the ServiceEngine, where per-request fixed costs
//                (pool and device construction, admission, retries,
//                audits) dominate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/partitioner.hpp"

namespace pb {

/// The four systems of the paper's evaluation, in table order.
inline const std::vector<std::string> kSystems = {"metis", "parmetis",
                                                   "mt-metis", "gp-metis"};
/// The systems the service mix requests (the engine's fifth driver
/// included, parmetis left out).
inline const std::vector<std::string> kServiceSystems = {
    "mt-metis", "gp-metis", "metis", "gp-metis-multi"};

struct Input {
  std::string name;
  gp::CsrGraph graph;
  /// Imbalance allowed beyond eps + one-vertex granularity.  The refiners
  /// have no dedicated rebalance pass, so on low-connectivity and
  /// power-law graphs a coarse-vertex overshoot can survive refinement
  /// (the same slack tests/test_differential.cpp grants road networks).
  double balance_slack = 0.0;
  std::vector<gp::part_t> ks;  ///< part counts this graph is requested at
};

struct Workload {
  std::string name;
  bool service = false;      ///< closed-loop service mix
  std::vector<Input> graphs;
  gp::PartitionOptions base; ///< per-job options; k is set per job

  [[nodiscard]] gp::PartitionOptions options(gp::part_t k) const {
    gp::PartitionOptions o = base;
    o.k = k;
    return o;
  }
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Generates the named workload's inputs; `seed` becomes the partition
/// seed of every job.  `smoke` shrinks the batch graphs for the
/// self-test.  Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, bool smoke);

}  // namespace pb
