// Incremental connectivity / gain cache shared by the host refiners
// (DESIGN.md §3.6).
//
// Classic Metis keeps per-vertex `id/ed` (internal/external degree) plus a
// sparse per-vertex partition-connectivity table so a refinement pass never
// recomputes gains by scanning a vertex's whole neighbourhood (Karypis &
// Kumar); mt-metis extends the same state with per-thread delta buffers
// (LaSalle & Karypis).  This class is that state:
//
//   id_[v]            weight of v's arcs into its own part
//   ed_[v]            weight of v's arcs into every other part
//   part_/wgt_ slab   the distinct adjacent parts of v with their arc
//                     weights, stored in a flat slab with per-vertex
//                     capacity min(degree, k) at off_[v] (no per-vertex
//                     heap allocation, no duplicates)
//
// The cache is built once per uncoarsening level (or *projected* from the
// coarse level's cache, which skips the table work for every fine vertex
// whose coarse parent was interior), and updated by O(deg) deltas when a
// move commits.  Every query a refiner needs is O(#adjacent parts) instead
// of O(degree) — except exact tie-breaking, see choose_move().
//
// Equivalence contract: every k-way refiner (serial k-way, mt-metis,
// ParMetis here; gp-metis and gp-metis-multi over hybrid/gpu_gain_cache)
// gathers connectivity with gather_conn and picks with choose_move: "the
// first part, in order of first occurrence in the adjacency list, among
// those maximising connectivity".  A sparse table cannot maintain
// first-occurrence order under deltas, so choose_move computes the max
// from the table and falls back to one early-exiting adjacency scan only
// when several parts tie — the scan stops at the first neighbour in any
// tied part, which by definition appears early.  This keeps moves
// byte-identical to the scan-based code while evaluating the common
// (tie-free) case from the table alone.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/csr_graph.hpp"
#include "core/partition.hpp"
#include "util/types.hpp"

namespace gp {

/// One committed move, as recorded by a refiner's commit step for batch
/// replay into the cache (mt-metis-style delta buffers).
struct CommittedMove {
  vid_t  v;
  part_t from;
  part_t to;
};

/// v's connectivity from its arcs (`label(u)` is u's part): returns its
/// weight inside its part pv, adds its weight toward each other part q to
/// conn[q] (zero on entry) and lists those q in `parts` in first-arc order.
/// Arc weights are positive, so each q is listed once.
template <typename Offset, typename Weight, typename Label>
wgt_t gather_conn(const Offset* adjp, const vid_t* adjncy, const Weight* adjwgt,
                  Label&& label, vid_t v, part_t pv, std::vector<wgt_t>& conn,
                  std::vector<part_t>& parts) {
  parts.clear();
  wgt_t internal = 0;
  for (Offset j = adjp[v]; j < adjp[v + 1]; ++j) {
    const part_t pu = label(adjncy[j]);
    if (pu == pv) {
      internal += adjwgt[j];
      continue;
    }
    if (conn[static_cast<std::size_t>(pu)] == 0) parts.push_back(pu);
    conn[static_cast<std::size_t>(pu)] += adjwgt[j];
  }
  return internal;
}

/// A move rule's pick: the destination (kInvalidPart for none), its
/// connectivity, and the arcs the tie rescan read (0 without a tie) so
/// callers can charge the true work.
struct BestDest {
  part_t        part = kInvalidPart;
  wgt_t         conn = 0;
  std::uint64_t tie_scan = 0;
};

/// The move rule of every k-way refiner.  Among the candidate `parts`
/// (parts[i] has connectivity conn_at(i); zero or less never counts) that
/// `allowed(q)` admits, picks the strict maximum above `threshold`.  A tie
/// goes to the part of the earliest neighbour in `nbrs` (`label(u)` is
/// u's part) that carries a tied part; the rescan early-exits there.  Pass
/// no `nbrs` when `parts` is in first-arc order: the first tied part is
/// then already that neighbour's.
template <typename ConnAt, typename Allowed, typename Label>
BestDest choose_move(std::span<const part_t> parts, ConnAt&& conn_at,
                     wgt_t threshold, Allowed&& allowed,
                     std::span<const vid_t> nbrs, Label&& label) {
  BestDest best{kInvalidPart, threshold, 0};
  int tied = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const wgt_t c = conn_at(i);
    if (c <= 0 || !allowed(parts[i])) continue;
    if (c > best.conn) {
      best = {parts[i], c, 0};
      tied = 1;
    } else if (tied > 0 && c == best.conn) {
      ++tied;
    }
  }
  if (tied < 2) return best;
  auto is_tied = [&](part_t q) {
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (parts[i] == q) return conn_at(i) == best.conn && allowed(q);
    }
    return false;
  };
  for (const vid_t u : nbrs) {
    ++best.tie_scan;
    if (const part_t pu = label(u); is_tied(pu)) {
      best.part = pu;
      break;
    }
  }
  return best;
}

class GainCache {
 public:
  /// Sizes the slab for `g` and `k` and zeroes the totals without filling
  /// any entry; build_gain_cache and project_gain_cache (core/host_steps)
  /// then fill it block by block with build_range()/project_range().
  void init(const CsrGraph& g, part_t k);

  /// Serial full build: build_gain_cache over one block.
  void build(const CsrGraph& g, const std::vector<part_t>& where, part_t k);

  /// Fills entries for vertices [vb, ve) from a full neighbourhood scan.
  /// Adds the range's external-degree sum to *ed_partial (caller
  /// accumulates into finish_totals) and returns the work units spent.
  std::uint64_t build_range(const CsrGraph& g,
                            const std::vector<part_t>& where, vid_t vb,
                            vid_t ve, wgt_t* ed_partial);

  /// Fills entries for fine vertices [vb, ve) given the coarse level's
  /// cache.  A fine vertex whose coarse parent has ed == 0 is provably
  /// interior (all its neighbours share its part), so only its internal
  /// degree is streamed and the table stays empty; boundary parents get
  /// the full scan.  Projection therefore costs O(boundary) table work
  /// instead of O(n), and produces bit-identical state to build_range.
  std::uint64_t project_range(const GainCache& coarse, const CsrGraph& fine,
                              const std::vector<part_t>& fine_where,
                              const std::vector<vid_t>& cmap, vid_t vb,
                              vid_t ve, wgt_t* ed_partial);

  /// Stores the accumulated external-degree total (cut = total / 2).
  void finish_totals(wgt_t ed_total) { ed_total_ = ed_total; }

  [[nodiscard]] bool  ready() const { return !cnt_.empty(); }
  [[nodiscard]] vid_t num_vertices() const {
    return static_cast<vid_t>(cnt_.size());
  }
  [[nodiscard]] part_t k() const { return k_; }

  [[nodiscard]] wgt_t internal(vid_t v) const {
    return id_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] wgt_t external(vid_t v) const {
    return ed_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] bool boundary(vid_t v) const {
    return ed_[static_cast<std::size_t>(v)] > 0;
  }
  /// Current edge cut implied by the tracked external degrees.
  [[nodiscard]] wgt_t cut() const { return ed_total_ / 2; }

  [[nodiscard]] std::int32_t conn_count(vid_t v) const {
    return cnt_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] part_t conn_part(vid_t v, std::int32_t i) const {
    return part_[static_cast<std::size_t>(off_[static_cast<std::size_t>(v)] +
                                          i)];
  }
  [[nodiscard]] wgt_t conn_wgt(vid_t v, std::int32_t i) const {
    return wgt_[static_cast<std::size_t>(off_[static_cast<std::size_t>(v)] +
                                         i)];
  }
  /// Connectivity of v to part q (0 when absent).  O(#adjacent parts).
  [[nodiscard]] wgt_t conn_to(vid_t v, part_t q) const;

  /// choose_move over v's table: the best `allowed` destination whose
  /// connectivity strictly exceeds `threshold` (pass internal(v) for the
  /// strict-gain rule, or wgt_t minimum to rank every allowed part), ties
  /// rescanned in `where`'s labels.
  template <typename Allowed>
  [[nodiscard]] BestDest best_destination(const CsrGraph& g,
                                          const std::vector<part_t>& where,
                                          vid_t v, wgt_t threshold,
                                          Allowed&& allowed) const {
    const auto base =
        static_cast<std::size_t>(off_[static_cast<std::size_t>(v)]);
    return choose_move(
        std::span(part_).subspan(base, static_cast<std::size_t>(conn_count(v))),
        [&](std::size_t i) { return wgt_[base + i]; }, threshold, allowed,
        g.neighbors(v),
        [&](vid_t u) { return where[static_cast<std::size_t>(u)]; });
  }

  /// The propose rule of mt-metis's and ParMetis's buffered refinement:
  /// boundary vertex v proposes its best destination above (`upward`) or
  /// below its own part pv, at any gain when `overweight(pv)`, else at
  /// strictly positive gain.  Adds the work units to `work` (one for an
  /// interior vertex); to == kInvalidPart when v proposes nothing.
  template <typename Overweight>
  [[nodiscard]] MoveProposal propose(const CsrGraph& g,
                                     const std::vector<part_t>& where,
                                     vid_t v, bool upward,
                                     Overweight&& overweight,
                                     std::uint64_t& work) const {
    if (!boundary(v)) {
      ++work;
      return {v, kInvalidPart, kInvalidPart, 0};
    }
    const part_t pv = where[static_cast<std::size_t>(v)];
    const wgt_t threshold = overweight(pv) ? std::numeric_limits<wgt_t>::min()
                                           : internal(v);
    const BestDest bd = best_destination(g, where, v, threshold, [&](part_t q) {
      return upward ? (q > pv) : (q < pv);
    });
    work += static_cast<std::uint64_t>(conn_count(v)) + 1 + bd.tie_scan;
    return {v, pv, bd.part,
            bd.part == kInvalidPart ? 0 : bd.conn - internal(v)};
  }

  /// O(deg) delta update for a committed move v: from -> to.  `where`
  /// must hold every *neighbour's* current part; where[v] itself is not
  /// read (callers may update it before or after).  Returns work units.
  std::uint64_t apply_move(const CsrGraph& g, const std::vector<part_t>& where,
                           vid_t v, part_t from, part_t to);

  /// Replays a batch of moves recorded against `where_final` (the array
  /// AFTER all of them were applied, as at the mt commit barrier).  The
  /// replay reconstructs each neighbour's part mid-sequence from the move
  /// list, so the result is exactly the cache of `where_final` no matter
  /// how the concurrent commit interleaved.  Precondition: each vertex
  /// appears at most once in `moves` (true of any single commit barrier —
  /// a pass moves a vertex at most once); the overlay keeps one
  /// from/to pair per vertex and cannot reconstruct mid-sequence state
  /// for repeats.  Returns work units.
  std::uint64_t apply_moves(const CsrGraph& g,
                            const std::vector<part_t>& where_final,
                            const std::vector<CommittedMove>& moves);

  /// Full recompute comparison used by audit_gain_cache and tests:
  /// returns an empty string when the cache exactly matches a fresh build
  /// against `where`, else a description of the first mismatch.
  [[nodiscard]] std::string compare_to_rebuild(
      const CsrGraph& g, const std::vector<part_t>& where) const;

 private:
  /// Fills v's entry from a full scan of its arcs; returns its external
  /// degree.  `conn` is zero on entry and again on return.
  wgt_t fill_vertex(const CsrGraph& g, const std::vector<part_t>& where,
                    vid_t v, std::vector<wgt_t>& conn,
                    std::vector<part_t>& parts);

  template <typename PartOf>
  std::uint64_t apply_move_impl(const CsrGraph& g, vid_t v, part_t from,
                                part_t to, PartOf&& part_of);

  void conn_add(vid_t v, part_t q, wgt_t w);
  void conn_sub(vid_t v, part_t q, wgt_t w);

  part_t              k_ = 0;
  wgt_t               ed_total_ = 0;
  std::vector<wgt_t>  id_;
  std::vector<wgt_t>  ed_;
  std::vector<eid_t>  off_;   ///< n+1 slab offsets, capacity min(deg, k)
  std::vector<std::int32_t> cnt_;  ///< used slots per vertex
  std::vector<part_t> part_;  ///< slab: part ids
  std::vector<wgt_t>  wgt_;   ///< slab: connectivity weights
  // Scratch for apply_moves (lazily sized, reset via the touched list).
  std::vector<std::int32_t> move_idx_;
};

}  // namespace gp
