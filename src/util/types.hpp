// Fundamental integer types shared by every module.
//
// Widths follow the paper's setting: graphs up to ~24M vertices and ~32M
// undirected edges (64M directed arcs).  32-bit vertex ids are sufficient;
// on the host, edge offsets and accumulated weights use 64 bits so that
// prefix sums and cut totals cannot overflow on the largest configured
// instances.  The device CSR (hybrid/gpu_graph.hpp) is compact: its
// offsets and weights are 32-bit `idx_t`, as in Metis 5, which GP-metis
// builds on.
#pragma once

#include <cstdint>

namespace gp {

using vid_t  = std::int32_t;  ///< vertex id / vertex count
using eid_t  = std::int64_t;  ///< edge (arc) index into CSR adjacency
using wgt_t  = std::int64_t;  ///< vertex or edge weight, and weight sums
using part_t = std::int32_t;  ///< partition id
/// Device CSR offset / weight (Metis 5's default `idx_t`).  A graph whose
/// arc count or weight sums exceed INT32_MAX never reaches the device: the
/// GPU drivers run it on the CPU instead (`device_csr_fits`).
using idx_t  = std::int32_t;

/// Sentinel "no vertex" / "unmatched" marker.
inline constexpr vid_t kInvalidVid = -1;
/// Sentinel "no partition" marker.
inline constexpr part_t kInvalidPart = -1;

/// Device-wide prefix-sum strategy for the simulated GPU pipelines
/// (src/gpu/scan.hpp, DESIGN.md §3.9).
///
///   kBlocked  — the classic CUB-style three-kernel blocked scan, and the
///               historical one-kernel-per-stage level pipelines around it.
///   kLookback — single-pass decoupled-lookback scan, and the fused
///               single-dispatch level pipelines built on it (a whole
///               matching/contraction/refinement stage chain is metered as
///               one kernel launch).
///
/// Both modes produce byte-identical partitions; kBlocked is kept for the
/// differential harness and the scan ablation bench.
enum class GpuScanMode { kBlocked, kLookback };

}  // namespace gp
