// Greedy k-way refinement (Metis-style): boundary vertices move to the
// adjacent part with the best gain, subject to the balance constraint.
// Used by the serial driver's uncoarsening phase and as the quality
// reference for the parallel refiners.
//
// The refiner is fed from a GainCache (DESIGN.md §3.6): passes touch
// only boundary vertices, gains come from the sparse connectivity table,
// and each committed move updates the cache by an O(deg) delta instead of
// the next pass rescanning whole neighbourhoods.  It picks with the move
// rule every k-way refiner shares, choose_move (core/gain_cache.hpp),
// through GainCache::best_destination, with a balance-fit filter as the
// allowed parts: a move is admitted only when the destination stays under
// max_pw and the source above min_pw.
#pragma once

#include <cstdint>
#include <vector>

#include "core/csr_graph.hpp"
#include "core/gain_cache.hpp"
#include "core/partition.hpp"
#include "util/types.hpp"

namespace gp {

struct KwayRefineStats {
  std::uint64_t work_units = 0;
  int passes = 0;
  vid_t moves = 0;
  wgt_t cut_before = 0;
  wgt_t cut_after = 0;
};

/// Reusable per-refiner scratch: the serial driver allocates one of these
/// per run and passes it to every level, so the per-pass part-weight
/// vector is hoisted out of the refiner (same pattern as the thread_local
/// kernel scratch in the GPU refiner).  `cache` is the fallback gain
/// cache built when the caller does not own one.
struct KwayWorkspace {
  GainCache cache;
  std::vector<wgt_t> pw;
};

/// In-place greedy k-way refinement.  Each pass scans boundary vertices;
/// a vertex moves to the neighbouring part maximising (external(best) -
/// internal) if that gain is strictly positive, the destination stays
/// under max_pw, and the source stays above min_pw.  Terminates early
/// when a pass commits no move.
///
/// `cache`, when non-null, must be consistent with p.where on entry; it
/// is kept consistent through every committed move so callers can carry
/// it across uncoarsening levels.  When null, a cache is built locally
/// (and the build is charged to work_units).
KwayRefineStats kway_refine_serial(const CsrGraph& g, Partition& p,
                                   double eps, int max_passes,
                                   GainCache* cache = nullptr,
                                   KwayWorkspace* ws = nullptr);

}  // namespace gp
