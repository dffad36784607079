// GPU contraction of GP-metis (paper Section III-A, contraction step):
// per-thread maximum-entry counts (temp), an exclusive prefix sum for the
// temporary-array offsets, merge into temporary adjacency arrays (charged
// as quicksort+remove or as the clustered hash table), actual counts (temp2), a
// second prefix sum, and the final compaction copy.  The temporary arrays
// hold exactly the fine arc count, which every consistent (match, cmap)
// gives as the first scan's total, so they are sized before any kernel
// runs.
#pragma once

#include <cstdint>
#include <span>

#include "hybrid/gpu_graph.hpp"

namespace gp {

/// A shard of a level (DESIGN.md §3.11) numbers its halo after its rows:
/// `halo[x - fine.n]` is the coarse slot of the halo vertex at slot x >=
/// fine.n, and the coarse shard numbers its halo after its n_coarse rows
/// too.  Empty for the whole level.
struct GpuShardCmap {
  std::span<const vid_t> halo;
};

struct GpuContractStats {
  std::uint64_t temp_entries = 0;   ///< allocated temporary slots (fine arcs)
  std::uint64_t final_entries = 0;  ///< actual coarse arcs
};

/// Contracts the device graph given a valid device (match, cmap) of its
/// rows; a coarse row's arcs reach rows and halo slots of the coarse shard.
/// `use_hash` charges the merge as the clustered-hash-table merge (paper:
/// faster) rather than the sort-merge; the host runs both as the same
/// dense row merge, so the coarse graph is the same.  The coarse graph
/// inherits `total_vwgt` and gets its `max_degree` from the merge, which
/// reduces it next to the coarse degrees it writes.
///
/// Under GpuScanMode::kLookback the launch ladder collapses to two
/// dispatches — the build chain (leaders + maxcount + scan1 + merge +
/// scan2 + adjp scan) and the compaction copy, which needs the coarse
/// arrays that scan2 sizes — via single-pass look-back scans inside one
/// fused dispatch (DESIGN.md §3.9).  Results are byte-identical to the
/// blocked per-kernel path.  The copy is charged per 128-byte transaction
/// of each thread's contiguous segment (DESIGN.md §3.1).
///
/// Throws std::logic_error, before the merge writes, when the first
/// scan's total differs from the fine arc count (a corrupted cmap or
/// match), and after the build when the coarse degrees do not sum to the
/// entries written.  Device buffers are released on both paths.
[[nodiscard]] GpuGraph gpu_contract(Device& dev, const GpuGraph& fine,
                                    const DeviceBuffer<vid_t>& match,
                                    const DeviceBuffer<vid_t>& cmap,
                                    vid_t n_coarse, int level,
                                    std::int64_t n_threads, bool use_hash,
                                    GpuScanMode mode = GpuScanMode::kLookback,
                                    GpuContractStats* stats = nullptr,
                                    const GpuShardCmap& shard = {});

}  // namespace gp
