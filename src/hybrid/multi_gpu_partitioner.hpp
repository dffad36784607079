// Multi-GPU GP-metis — the extension the paper names as future work:
// "the partitioning algorithm should be extended to multiple GPUs for
// handling even larger graphs [that do not fit into global memory]".
//
// Design (ours; the paper only states the goal): gp-metis-multi is a
// backend of the shared V-cycle (core/vcycle, DESIGN.md §3.11), kept the
// way parmetis keeps its levels: the host holds each level in global ids
// with a block Distribution over the D devices, and device d holds only
// its rows plus halo arcs, so per-device memory is ~|G|/D.  Above the
// handoff, each device runs gp-metis's match kernels on its shard (halo
// arcs never match), coarse vertices are numbered block by block, and
// contraction exchanges the halo cmap through the host; below it (or once
// device matching stalls) the gathered level goes to the mt engine.
// Uncoarsening projects per device; refinement proposes on the devices
// and the host commits through replay_moves against the true part
// weights.  The driver keeps device setup and its ladder for lost
// devices, OOM and failed audits.
#pragma once

#include "core/partitioner.hpp"

namespace gp {

class MultiGpuPartitioner final : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "gp-metis-multi"; }
  [[nodiscard]] PartitionResult run(const CsrGraph& g,
                                    const PartitionOptions& opts) const override;
};

struct MultiGpuLog {
  int devices = 0;
  int gpu_coarsen_levels = 0;
  std::size_t peak_device_bytes = 0;  ///< max over devices of peak usage
  std::uint64_t halo_exchange_bytes = 0;
  std::uint64_t refine_replay_moves = 0;
  // Degradation trail (mirrors PartitionResult::health for quick checks).
  int  attempts = 0;         ///< multi-GPU attempts made (1 = clean first try)
  int  devices_lost = 0;     ///< devices excluded after injected failures
  bool cpu_fallback = false; ///< true when the run degraded to pure mt-metis
};

PartitionResult multi_gpu_run(const CsrGraph& g, const PartitionOptions& opts,
                              MultiGpuLog* log);

}  // namespace gp
