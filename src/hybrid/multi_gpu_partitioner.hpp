// Multi-GPU GP-metis — the extension the paper names as future work:
// "the partitioning algorithm should be extended to multiple GPUs for
// handling even larger graphs [that do not fit into global memory]".
//
// Design (ours; the paper only states the goal):
//   * each level is kept the way parmetis keeps its levels: one host
//     graph in global ids, one global fine -> coarse map and one block
//     Distribution (core/distribution.hpp) over the D devices; each
//     device holds only its row range plus halo arcs (global ids of
//     remote neighbours), so per-device memory is ~|G|/D;
//   * coarsening runs gp-metis's match, resolve and cmap kernels
//     (gpu_match) on each device's shard, with matching restricted to
//     local neighbours (halo arcs are never matched — the same
//     restriction ParMetis uses between ranks); coarse vertices are
//     numbered block by block, and each level performs one halo-cmap
//     exchange through the host (metered D2H+H2D);
//   * once the combined coarse graph is small it is gathered to the host
//     and the CPU stage (mt-metis) runs exactly as in single-GPU GP-metis;
//   * uncoarsening projects per device; refinement proposes on the
//     devices (same lock-free buffered kernels) and the host commits the
//     gathered proposals through parmetis's replay (replay_moves in
//     core/partition) against the true partition weights, then scatters
//     label updates back — the simplest scheme that keeps the balance
//     constraint exact across devices.
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
