// GPU uncoarsening kernels of GP-metis (paper Section III-C):
//
//   projection kernel — coarse partition labels fan out through cmap
//   refinement        — lock-free: a boundary kernel reads each vertex's
//                       connectivity from the device-resident gain cache
//                       (DESIGN.md §3.6), finds its best destination under
//                       the one-direction ordering rule, and appends a
//                       request to the destination partition's buffer via
//                       an atomically incremented counter; an explore
//                       kernel (one thread per partition) sorts requests
//                       by gain, commits the moves that keep the balance
//                       constraint, and pushes O(deg) cache deltas per
//                       committed move instead of re-activating the
//                       neighbourhood for a full rescan.
//
// Only boundary vertices do real work, so the boundary kernel runs from a
// per-pass frontier (gpu_frontier) and a level transition rebuilds only
// the cache entries of its compacted candidates.  gp-metis runs a whole
// uncoarsening level (projection, cache projection, refinement) as one
// dispatch (gpu_uncoarsen_level, DESIGN.md §3.9).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/partition.hpp"
#include "hybrid/gpu_gain_cache.hpp"
#include "hybrid/gpu_graph.hpp"

namespace gp {

/// where_fine[v] = where_coarse[cmap[v]] on the device, as a launch of its
/// own: each shard of a sharded level, and on one device a level that sheds
/// refinement (a refined one projects inside gpu_uncoarsen_level).
void gpu_project(Device& dev, const DeviceBuffer<vid_t>& cmap,
                 const DeviceBuffer<part_t>& where_coarse,
                 DeviceBuffer<part_t>& where_fine, int level,
                 std::int64_t n_threads);

/// The propose kernel's worklist for one pass: every v with
/// `cv.active(v)` (moved-dirty, or ed != 0), compacted into `out` in the
/// kernel's own visiting order — logical thread t of T = min(n_threads,
/// n) visits t, t+T, t+2T, ..., threads in order — so one host worker
/// proposes in the sequence a full sweep would.  One compaction of
/// `chain` named `name`, charged as a coalesced sweep of T·J·(sizeof(wgt_t)
/// + 1) bytes (J = ceil(n/T) steps, each reading ed and dirty) plus the
/// look-back's 4 units per tile.  Returns the list length.
std::int64_t gpu_frontier(KernelChain& chain, const std::string& name,
                          const GpuGainCacheView& cv, vid_t n,
                          std::int64_t n_threads, vid_t* out);

/// Observer of one refinement pass's worklist: the pass index, the cache
/// the pass reads, and the `len` vertices of `list` in proposing order.
using GpuFrontierProbe =
    std::function<void(int pass, const GpuGainCacheView& cv,
                        const vid_t* list, std::int64_t len)>;

struct GpuRefineStats {
  std::uint64_t proposed = 0;
  std::uint64_t committed = 0;
  std::uint64_t dropped_full_buffer = 0;
  int passes = 0;
};

/// In-place lock-free buffered refinement of the device partition.
/// `cache`, when non-null, must be exact-or-dirty against `where` on
/// entry (see gpu_gain_cache.hpp); the explore kernel's deltas keep it
/// that way.  When null a cache is built here for the duration of the
/// call.
///
/// `pw_io`, when non-null, carries the k partition weights across levels:
/// if it already holds k entries they are trusted (projection preserves
/// per-part weights exactly, and the explore kernel keeps them current),
/// otherwise it is filled by the weights kernel here and handed back.
///
/// Every pass compacts its frontier, proposes from it in contiguous list
/// chunks per logical thread, and commits.  Under GpuScanMode::kLookback
/// the whole call — weights recount plus every pass — is metered as ONE
/// persistent-kernel-style fused dispatch (DESIGN.md §3.9) whose stop
/// test stays on the device (a `p<i>/stop` stage per pass), so the call
/// reads back once: a packed {committed, proposed, dropped} record.
/// Under kBlocked every stage is its own launch (the frontier a count /
/// scan / emit triple) and the host reads the commit counts back after
/// each pass.  Results are byte-identical.  The balance bounds come from
/// `g.total_vwgt`.
GpuRefineStats gpu_refine(Device& dev, const GpuGraph& g,
                          DeviceBuffer<part_t>& where, part_t k, double eps,
                          int max_passes, int level, std::int64_t n_threads,
                          GpuGainCache* cache = nullptr,
                          DeviceBuffer<wgt_t>* pw_io = nullptr,
                          GpuScanMode mode = GpuScanMode::kLookback);

/// One uncoarsening level: `where_fine[v] = where_coarse[cmap[v]]`, the
/// coarse level's `cache` projected onto `fine` (a fine vertex of an
/// interior parent goes lazy at O(1); the others are compacted and
/// rebuilt from contiguous list chunks), then gpu_refine's passes with
/// the part weights carried in `pw` (filled here when empty).  On return
/// `cache` holds the fine level's cache.  Under kLookback the level is
/// ONE dispatch, `uncoarsen/level/L<level>` (stages project, classify,
/// rebuild, then weights when needed and the passes); under kBlocked the
/// same stages are separate launches.  Partitions, stats and cache state
/// equal those of gpu_project + GpuGainCache::build + gpu_refine.
/// `probe`, when set, sees every pass's worklist right after its frontier
/// stage (tests compare it with a full gpu_frontier sweep).
GpuRefineStats gpu_uncoarsen_level(
    Device& dev, const GpuGraph& fine, const DeviceBuffer<vid_t>& cmap,
    const DeviceBuffer<part_t>& where_coarse, DeviceBuffer<part_t>& where_fine,
    GpuGainCache& cache, DeviceBuffer<wgt_t>& pw, part_t k, double eps,
    int max_passes, int level, std::int64_t n_threads, GpuScanMode mode,
    const GpuFrontierProbe& probe = {});

}  // namespace gp
