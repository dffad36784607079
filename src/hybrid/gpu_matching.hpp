// GPU coarsening kernels of GP-metis (paper Section III-A):
//
//   match kernel     — lock-free HEM/RM over the shared match array
//                      (coalescing-friendly strided vertex ownership)
//   resolve kernel   — repairs round-1 conflicts (Fig. 3)
//   4-kernel cmap    — flag init, CUB-style inclusive scan, subtract-one,
//                      follower gather (Fig. 4), all in place
#pragma once

#include <cstdint>

#include "hybrid/gpu_graph.hpp"

namespace gp {

struct GpuMatchResult {
  DeviceBuffer<vid_t> match;  ///< device-resident; valid involution
  DeviceBuffer<vid_t> cmap;   ///< device-resident coarse labels
  vid_t n_coarse = 0;
  std::uint64_t conflicts = 0;  ///< vertices self-matched by the resolver
};

/// Runs the matching + conflict-resolution + cmap pipeline on the device.
/// `n_threads` is the logical launch width (the paper shrinks it level by
/// level as the graph gets smaller).
///
/// Under GpuScanMode::kLookback the whole level is ONE fused dispatch
/// (fill, match, resolve, single-pass flag scan producing cmap directly,
/// follower gather); under kBlocked it is the historical 8-launch chain.
/// Both produce byte-identical results — the stage bodies are the same
/// code, and the flag scan is an exact integer prefix sum.
///
/// `g` may be one device's shard of a larger graph (the multi-GPU
/// driver, DESIGN.md §3.11): its rows are [0, g.n), and an arc to a slot
/// at or past g.n reaches a halo vertex, which is never matched.
[[nodiscard]] GpuMatchResult gpu_match(
    Device& dev, const GpuGraph& g, int level, std::uint64_t seed,
    std::int64_t n_threads, GpuScanMode mode = GpuScanMode::kLookback);

}  // namespace gp
