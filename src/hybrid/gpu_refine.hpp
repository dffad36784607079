// GPU uncoarsening kernels of GP-metis (paper Sections III-C):
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
#pragma once

#include <cstdint>

#include "core/partition.hpp"
#include "hybrid/gpu_gain_cache.hpp"
#include "hybrid/gpu_graph.hpp"

namespace gp {

/// where_fine[v] = where_coarse[cmap[v]] on the device.
void gpu_project(Device& dev, const DeviceBuffer<vid_t>& cmap,
                 const DeviceBuffer<part_t>& where_coarse,
                 DeviceBuffer<part_t>& where_fine, int level,
                 std::int64_t n_threads);

struct GpuRefineStats {
  std::uint64_t proposed = 0;
  std::uint64_t committed = 0;
  std::uint64_t dropped_full_buffer = 0;
  int passes = 0;
};

/// In-place lock-free buffered refinement of the device partition.
/// `cache`, when non-null, must be exact-or-dirty against `where` on
/// entry (see gpu_gain_cache.hpp); the explore kernel's deltas keep it
/// that way so the driver can project it to the next level.  When null a
/// cache is built here for the duration of the call.
///
/// `pw_io`, when non-null, carries the k partition weights across levels:
/// if it already holds k entries they are trusted (projection preserves
/// per-part weights exactly, and the explore kernel keeps them current),
/// otherwise it is filled by the weights kernel here and handed back.
///
/// Under GpuScanMode::kLookback the whole call — weights recount plus
/// every propose/explore pass — is metered as ONE persistent-kernel-style
/// fused dispatch (DESIGN.md §3.9); under kBlocked each pass is two
/// launches as before.  Results are byte-identical.
GpuRefineStats gpu_refine(Device& dev, const GpuGraph& g,
                          DeviceBuffer<part_t>& where, part_t k, double eps,
                          int max_passes, int level, std::int64_t n_threads,
                          GpuGainCache* cache = nullptr,
                          DeviceBuffer<wgt_t>* pw_io = nullptr,
                          GpuScanMode mode = GpuScanMode::kLookback);

}  // namespace gp
