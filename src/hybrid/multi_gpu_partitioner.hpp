// Multi-GPU GP-metis — the extension the paper names as future work:
// "the partitioning algorithm should be extended to multiple GPUs for
// handling even larger graphs [that do not fit into global memory]".
//
// Design (ours; the paper only states the goal): gp-metis's backend
// (hybrid/gp_partitioner.cpp) over `gpu_devices` devices, one shard of
// each GPU level per device over a block Distribution (per-device memory
// ~|G|/D).  A shard numbers its block's rows first and its halo, the
// vertices outside the block its arcs reach, after them, so no kernel
// knows global ids.  gpu_match never matches a halo arc; gpu_contract
// reads halo coarse slots the host sends.  A refinement pass has every
// device propose moves for its rows; the host commits them through
// replay_moves and sends each device those of its rows and halo.  Ledgers
// roll up as the slowest device per stage.  On one device this is
// gp-metis, ledger and partition alike.  A lost device is dropped, and
// the next attempt redistributes over the survivors.
#pragma once

#include "core/partitioner.hpp"
#include "hybrid/gp_partitioner.hpp"

namespace gp {

class MultiGpuPartitioner final : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "gp-metis-multi"; }
  [[nodiscard]] PartitionResult run(const CsrGraph& g,
                                    const PartitionOptions& opts) const override;
};

/// Same as MultiGpuPartitioner::run but also exposes the phase log; the
/// device memory peak is the result's exec.peak_device_bytes.
PartitionResult multi_gpu_run(const CsrGraph& g, const PartitionOptions& opts,
                              GpPhaseLog* log);

}  // namespace gp
