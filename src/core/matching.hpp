// Matching arrays and the shared contraction contract.
//
// Every coarsening implementation in this library (serial, mt, par,
// hybrid/GPU) produces the same two artifacts per level:
//
//   match[v]  — partner of v (match[v] == v for vertices matched to
//               themselves; never kInvalidVid after conflict resolution)
//   cmap[v]   — label of the coarse vertex v collapses into
//
// A match array is VALID iff it is an involution: match[match[v]] == v for
// all v.  A cmap is CONSISTENT with a match iff cmap[v] == cmap[match[v]],
// cmap is a surjection onto [0, n_coarse), and leaders (min(v, match[v]))
// receive strictly increasing labels in vertex order — the property the
// paper's 4-kernel prefix-sum construction guarantees.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/csr_graph.hpp"
#include "util/types.hpp"

namespace gp {

struct MatchResult {
  std::vector<vid_t> match;  ///< involution over [0,n)
  std::vector<vid_t> cmap;   ///< coarse label per fine vertex
  vid_t              n_coarse = 0;
};

/// Checks the involution property.  Empty string on success.
[[nodiscard]] std::string validate_match(const std::vector<vid_t>& match);

/// Checks cmap consistency against a valid match (see header comment).
[[nodiscard]] std::string validate_cmap(const std::vector<vid_t>& match,
                                        const std::vector<vid_t>& cmap,
                                        vid_t n_coarse);

/// Builds cmap from a valid match by the canonical serial rule: scan
/// vertices in order, a vertex v with v <= match[v] is a leader and gets
/// the next coarse label; followers copy their leader's label.  This is
/// the reference implementation the parallel 4-kernel GPU pipeline must
/// agree with (tests assert equality).
[[nodiscard]] std::pair<std::vector<vid_t>, vid_t> build_cmap_serial(
    const std::vector<vid_t>& match);

/// One coarse row of a contraction: merges the adjacency of fine vertex
/// `v` and its partner `m` (m == v for a singleton), which both map to
/// coarse vertex `c`, into `row` — each coarse neighbour label once with
/// its arc weights summed, arcs internal to the pair dropped, labels
/// ascending.  `slot` is a dense accumulator with one entry per coarse
/// vertex: kInvalidVid when unused, the label's position in `row` while
/// the row is open.  It must be all kInvalidVid on entry and is again on
/// return.  The CSR arrays may be the host graph's (eid_t offsets, wgt_t
/// weights) or the device graph's (idx_t both); weights sum in `Acc`.
/// `coarse_of(u)` is fine neighbour u's coarse label: a cmap read, or on
/// one device's shard of a level, a read through its halo table too.
/// Returns the number of arcs absorbed (read and not internal to the
/// pair).
template <typename Off, typename W, typename Acc, typename CoarseOf>
std::uint64_t merge_coarse_row(const Off* adjp, const vid_t* adjncy,
                               const W* adjwgt, CoarseOf&& coarse_of, vid_t v,
                               vid_t m, vid_t c, vid_t* slot,
                               std::vector<std::pair<vid_t, Acc>>& row) {
  row.clear();
  std::uint64_t absorbed = 0;
  auto absorb = [&](vid_t src) {
    const Off end = adjp[src + 1];
    for (Off j = adjp[src]; j < end; ++j) {
      const vid_t cu = coarse_of(adjncy[j]);
      if (cu == c) continue;  // intra-pair arc disappears
      ++absorbed;
      vid_t& at = slot[cu];
      if (at == kInvalidVid) {
        at = static_cast<vid_t>(row.size());
        row.emplace_back(cu, static_cast<Acc>(adjwgt[j]));
      } else {
        row[static_cast<std::size_t>(at)].second += adjwgt[j];
      }
    }
  };
  absorb(v);
  if (m != v) absorb(m);
  for (const auto& e : row) slot[e.first] = kInvalidVid;
  // Deterministic order: labels ascending.
  std::sort(row.begin(), row.end());
  return absorbed;
}

/// merge_coarse_row over a host graph.  Returns the number of fine arcs
/// read (deg(v) + deg(m)).
std::uint64_t merge_coarse_row(const CsrGraph& fine,
                               const std::vector<vid_t>& cmap, vid_t v,
                               vid_t m, vid_t c, std::vector<vid_t>& slot,
                               std::vector<std::pair<vid_t, wgt_t>>& row);

/// Reference serial contraction: collapses matched pairs of `fine` into a
/// coarse graph.  Vertex weights add; parallel coarse arcs merge with
/// summed weights; arcs internal to a pair vanish.  All parallel
/// contractions are tested against this.
[[nodiscard]] CsrGraph contract_serial(const CsrGraph& fine,
                                       const std::vector<vid_t>& match,
                                       const std::vector<vid_t>& cmap,
                                       vid_t n_coarse);

/// 2-hop matching gate (METIS's UNMATCHEDFOR2HOP): a range runs 2-hop
/// matching only when more than 10% of its vertices are self-matched.
[[nodiscard]] inline bool two_hop_gate_open(vid_t leftovers, vid_t range) {
  return static_cast<std::int64_t>(leftovers) * 10 > range;
}

/// Heaviest pair 2-hop matching may form (METIS's maxvwgt):
/// 1.5 * total vertex weight / coarsening target, rounded down.
[[nodiscard]] wgt_t two_hop_weight_cap(const CsrGraph& g,
                                       vid_t coarsen_target);

/// 2-hop matching (METIS 5 / mt-metis): pairs self-matched vertices of
/// [begin, end) that share a neighbour, so chains and stars whose
/// vertices have no free neighbour left still coarsen.  A pair whose
/// combined vertex weight exceeds `max_pair_weight` is refused.  Runs
/// only when two_hop_gate_open() holds for the range; writes only
/// match[begin, end) and reads no match entry outside it, so disjoint
/// ranges may run concurrently.  The result stays an involution.
/// Returns the number of arcs read.
std::uint64_t two_hop_match(const CsrGraph& g, std::vector<vid_t>& match,
                            vid_t begin, vid_t end, wgt_t max_pair_weight);

/// Projects a coarse partition back through cmap onto the fine graph.
[[nodiscard]] std::vector<part_t> project_partition(
    const std::vector<vid_t>& cmap, const std::vector<part_t>& coarse_where);

}  // namespace gp
