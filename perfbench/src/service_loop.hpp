// Closed-loop request generator for the ServiceEngine: one generator
// thread holds `clients` clients, and each client submits its next
// request only after its previous one reached a terminal state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "service/engine.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace pb {

struct RequestSpec {
  std::size_t graph = 0;  ///< index into Workload::graphs
  gp::part_t k = 0;
  std::string system;
  bool fault = false;     ///< phase audits plus a cmap@0 corruption
  std::uint64_t seed = 0; ///< the request's partition seed
};

/// The service mix: a seeded stream of (graph, k, system, partition seed)
/// draws in which every eighth request carries the audit + corruption
/// fault.  Each request has its own partition seed, as requests from many
/// users would, so the per-request cost averages over seeds instead of
/// following the one seed of the run.
[[nodiscard]] std::vector<RequestSpec> service_mix(const Workload& w,
                                                   std::uint64_t seed,
                                                   std::size_t count);

/// Every (graph, k, system) job of a batch workload once, the eighth one
/// faulted: the traced run's service probe.
[[nodiscard]] std::vector<RequestSpec> probe_mix(const Workload& w);

struct LoopResult {
  std::vector<double> latency_s;  ///< submit -> terminal, per request
  std::vector<double> queue_s;
  std::vector<double> run_s;
  double backoff_s = 0;           ///< modeled backoff, summed
  std::uint64_t requests = 0;
  std::uint64_t valid = 0;
  std::uint64_t degraded = 0;
  std::uint64_t audits_run = 0;
  std::uint64_t rollbacks = 0;
  double window_s = 0;
  double cpu_s = 0;               ///< process CPU seconds over the window
  int max_outstanding = 0;
  std::size_t next_spec = 0;      ///< first spec of `mix` not yet submitted

  /// Appends a later segment of the same loop.
  void merge(const LoopResult& o);
};

/// Drives `engine` in a closed loop, starting at mix[first], until
/// `seconds` have passed (no new submissions after that) or the mix is
/// used up; waits for the outstanding requests and checks each outcome.
LoopResult run_closed_loop(const Workload& w, gp::ServiceEngine& engine,
                           const std::vector<RequestSpec>& mix,
                           std::size_t first, int clients, double seconds,
                           Report& report, Tracer& tracer);

}  // namespace pb
