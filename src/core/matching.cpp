#include "core/matching.hpp"

#include <algorithm>
#include <sstream>

#include "core/host_steps.hpp"

namespace gp {

std::string validate_match(const std::vector<vid_t>& match) {
  const auto n = static_cast<vid_t>(match.size());
  std::ostringstream err;
  for (vid_t v = 0; v < n; ++v) {
    const vid_t m = match[static_cast<std::size_t>(v)];
    if (m < 0 || m >= n) {
      err << "match[" << v << "] = " << m << " out of range";
      return err.str();
    }
    if (match[static_cast<std::size_t>(m)] != v) {
      err << "match not involutive at " << v << " (match[v]=" << m
          << ", match[match[v]]=" << match[static_cast<std::size_t>(m)] << ")";
      return err.str();
    }
  }
  return {};
}

std::string validate_cmap(const std::vector<vid_t>& match,
                          const std::vector<vid_t>& cmap, vid_t n_coarse) {
  const auto n = static_cast<vid_t>(match.size());
  std::ostringstream err;
  if (cmap.size() != match.size()) return "cmap/match size mismatch";
  std::vector<char> hit(static_cast<std::size_t>(n_coarse), 0);
  vid_t next_leader_label = 0;
  for (vid_t v = 0; v < n; ++v) {
    const vid_t c = cmap[static_cast<std::size_t>(v)];
    if (c < 0 || c >= n_coarse) {
      err << "cmap[" << v << "] = " << c << " out of [0," << n_coarse << ")";
      return err.str();
    }
    if (cmap[static_cast<std::size_t>(match[static_cast<std::size_t>(v)])] !=
        c) {
      err << "cmap differs across matched pair at " << v;
      return err.str();
    }
    hit[static_cast<std::size_t>(c)] = 1;
    if (v <= match[static_cast<std::size_t>(v)]) {
      // v is a leader; labels must appear in increasing vertex order.
      if (c != next_leader_label) {
        err << "leader " << v << " has label " << c << ", expected "
            << next_leader_label;
        return err.str();
      }
      ++next_leader_label;
    }
  }
  if (next_leader_label != n_coarse) {
    err << "leader count " << next_leader_label << " != n_coarse " << n_coarse;
    return err.str();
  }
  for (vid_t c = 0; c < n_coarse; ++c) {
    if (!hit[static_cast<std::size_t>(c)]) {
      err << "coarse label " << c << " unused";
      return err.str();
    }
  }
  return {};
}

std::pair<std::vector<vid_t>, vid_t> build_cmap_serial(
    const std::vector<vid_t>& match) {
  const auto n = static_cast<vid_t>(match.size());
  std::vector<vid_t> cmap(match.size(), kInvalidVid);
  vid_t next = 0;
  for (vid_t v = 0; v < n; ++v) {
    if (v <= match[static_cast<std::size_t>(v)]) {
      cmap[static_cast<std::size_t>(v)] = next++;
    }
  }
  for (vid_t v = 0; v < n; ++v) {
    if (v > match[static_cast<std::size_t>(v)]) {
      cmap[static_cast<std::size_t>(v)] =
          cmap[static_cast<std::size_t>(match[static_cast<std::size_t>(v)])];
    }
  }
  return {std::move(cmap), next};
}

std::uint64_t merge_coarse_row(const CsrGraph& fine,
                               const std::vector<vid_t>& cmap, vid_t v,
                               vid_t m, vid_t c, std::vector<vid_t>& slot,
                               std::vector<std::pair<vid_t, wgt_t>>& row) {
  (void)merge_coarse_row(
      fine.adjp().data(), fine.adjncy().data(), fine.adjwgt().data(),
      [&](vid_t u) { return cmap[static_cast<std::size_t>(u)]; }, v, m, c,
      slot.data(), row);
  return static_cast<std::uint64_t>(fine.degree(v) +
                                    (m != v ? fine.degree(m) : 0));
}

CsrGraph contract_serial(const CsrGraph& fine, const std::vector<vid_t>& match,
                         const std::vector<vid_t>& cmap, vid_t n_coarse) {
  // One block, leaders in vertex order, each labelled by its cmap entry.
  CoarseRows rows(n_coarse, 1);
  rows.out[0].adjncy.reserve(static_cast<std::size_t>(fine.num_arcs()));
  rows.out[0].adjwgt.reserve(static_cast<std::size_t>(fine.num_arcs()));
  for (vid_t v = 0; v < fine.num_vertices(); ++v) {
    const vid_t m = match[static_cast<std::size_t>(v)];
    if (v > m) continue;  // follower handled with its leader
    rows.merge(fine, cmap, 0, v, m, cmap[static_cast<std::size_t>(v)]);
  }
  return rows.stitch();
}

wgt_t two_hop_weight_cap(const CsrGraph& g, vid_t coarsen_target) {
  return 3 * g.total_vertex_weight() /
         (2 * static_cast<wgt_t>(std::max<vid_t>(1, coarsen_target)));
}

std::uint64_t two_hop_match(const CsrGraph& g, std::vector<vid_t>& match,
                            vid_t begin, vid_t end, wgt_t max_pair_weight) {
  auto self_matched = [&](vid_t v) {
    return match[static_cast<std::size_t>(v)] == v;
  };
  vid_t leftovers = 0;
  for (vid_t v = begin; v < end; ++v) leftovers += self_matched(v) ? 1 : 0;
  if (!two_hop_gate_open(leftovers, end - begin)) return 0;

  // (neighbour, leftover) pairs, sorted: each run of equal neighbours
  // lists the leftovers that share it, in increasing id.
  std::uint64_t arcs = 0;
  std::vector<std::pair<vid_t, vid_t>> via;
  for (vid_t v = begin; v < end; ++v) {
    if (!self_matched(v)) continue;
    const auto nbrs = g.neighbors(v);
    arcs += nbrs.size();
    for (const vid_t u : nbrs) via.emplace_back(u, v);
  }
  std::sort(via.begin(), via.end());

  // Pair neighbours' leftovers greedily within each run; after a refused
  // (overweight) pair the lighter vertex waits for the next candidate.
  for (std::size_t i = 0; i < via.size();) {
    const vid_t u = via[i].first;
    vid_t waiting = kInvalidVid;
    for (; i < via.size() && via[i].first == u; ++i) {
      const vid_t v = via[i].second;
      if (!self_matched(v)) continue;  // paired through an earlier run
      if (waiting == kInvalidVid) {
        waiting = v;
      } else if (g.vertex_weight(waiting) + g.vertex_weight(v) <=
                 max_pair_weight) {
        match[static_cast<std::size_t>(waiting)] = v;
        match[static_cast<std::size_t>(v)] = waiting;
        waiting = kInvalidVid;
      } else if (g.vertex_weight(v) < g.vertex_weight(waiting)) {
        waiting = v;
      }
    }
  }
  return arcs;
}

std::vector<part_t> project_partition(const std::vector<vid_t>& cmap,
                                      const std::vector<part_t>& coarse_where) {
  std::vector<part_t> fine_where(cmap.size());
  for (std::size_t v = 0; v < cmap.size(); ++v) {
    fine_where[v] = coarse_where[static_cast<std::size_t>(cmap[v])];
  }
  return fine_where;
}

}  // namespace gp
