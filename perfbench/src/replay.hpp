// Layer replays of the traced run.  Each replay walks the V-cycle of one
// system by calling its layer functions directly from here, timing every
// call from outside and opening a span per replay -> level -> layer call:
//
//   serial  hem_match_serial, contract_serial, recursive_bisection,
//           kway_refine_serial (plus the phase audits on the same levels)
//   mt      mt_match, mt_contract, mt_initial_partition, mt_refine
//   hybrid  GpuGraph::upload, gpu_match, gpu_contract, gpu_project,
//           gpu_refine
//
// Replays are not the drivers (no rollback ladders, no gain-cache
// projection); they measure what each layer call costs on the workload's
// levels.  Their final partitions are checked like any other result.
#pragma once

#include "common.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace pb {

struct SerialLayers {
  double match_s = 0, contract_s = 0, initpart_s = 0, refine_s = 0;
  double refine_moves = 0;
  double audit_s = 0;  ///< audit_csr/matching/contraction/partition
};

struct MtLayers {
  double match_s = 0, contract_s = 0, initpart_s = 0, refine_s = 0;
  double n_fine = 0, n_coarse = 0;  ///< summed over coarsening levels
  double proposed = 0, committed = 0;
};

struct HybridLayers {
  double upload_s = 0, match_s = 0, contract_s = 0, project_s = 0,
         refine_s = 0;
  double conflicts = 0;
  double proposed = 0, committed = 0;
};

struct LayerReplay {
  SerialLayers serial;
  MtLayers mt;
  HybridLayers hybrid;

  /// serial.*, mt.*, hybrid.* and core.audit_s of this replay.
  [[nodiscard]] std::vector<Metric> metrics() const;
};

/// One replay of every system's layers over every (graph, k) input.
[[nodiscard]] LayerReplay replay_layers(const Workload& w, Report& report,
                                        Tracer& tracer);

struct PoolCosts {
  double spawn_s = 0;     ///< construct + destroy ThreadPool(2) and (4)
  double dispatch_s = 0;  ///< one empty run_on_all round trip
};

/// Medians over `reps` repetitions; dispatch runs on a pool of `threads`.
[[nodiscard]] PoolCosts measure_pool(int threads, int reps);

}  // namespace pb
