// GP-metis — the paper's contribution: a multilevel k-way partitioner for
// a heterogeneous CPU-GPU system (Fig. 1).
//
//   GPU:  coarsening levels (lock-free matching, 4-kernel cmap,
//         prefix-sum contraction) while the graph is large,
//   CPU:  remaining coarsening + initial partitioning + first refinement
//         via the mt-metis engine once parallelism runs out,
//   GPU:  uncoarsening (projection + lock-free buffered refinement)
//         back to the original graph.
//
// Host<->device transfers are explicit and metered; Table II's GP-metis
// column includes them, and so does this implementation's modeled time.
//
// The three phases are one V-cycle of the shared skeleton (core/vcycle,
// DESIGN.md §3.11) over a device level store: the GPU levels stay in
// device memory, the CPU middle phase is the initial partition (an mt
// V-cycle nested at the handoff level), and each refined uncoarsening
// level is one gpu_uncoarsen_level dispatch.  Attempts run under the GPU
// attempt ladder (hybrid/gpu_driver), where gp-metis's own rung retries a
// transient device fault; a second failed audit leaves the GPU for the
// pure-CPU rung, an mt-metis run under the run-level ladder (vcycle_run).
#pragma once

#include "core/partitioner.hpp"

namespace gp {

class GpMetisPartitioner final : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "gp-metis"; }
  [[nodiscard]] PartitionResult run(const CsrGraph& g,
                                    const PartitionOptions& opts) const override;
};

/// Extra introspection for benches/tests: per-run phase placement log.
struct GpPhaseLog {
  int gpu_coarsen_levels = 0;
  int cpu_levels = 0;          ///< coarsening levels done on the CPU
  vid_t handoff_vertices = 0;  ///< graph size at the GPU->CPU switch
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t match_conflicts = 0;
  // Degradation trail (mirrors PartitionResult::health for quick checks).
  int  attempts = 0;           ///< GPU attempts made (1 = clean first try)
  bool cpu_fallback = false;   ///< true when the run degraded to pure mt-metis
};

/// Same as GpMetisPartitioner::run but also exposes the phase log.
PartitionResult gp_metis_run(const CsrGraph& g, const PartitionOptions& opts,
                             GpPhaseLog* log);

}  // namespace gp
