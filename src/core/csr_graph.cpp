#include "core/csr_graph.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>

namespace gp {

wgt_t CsrGraph::total_vertex_weight() const {
  return std::accumulate(vwgt_.begin(), vwgt_.end(), wgt_t{0});
}

wgt_t CsrGraph::total_arc_weight() const {
  return std::accumulate(adjwgt_.begin(), adjwgt_.end(), wgt_t{0});
}

std::size_t CsrGraph::memory_bytes() const {
  return adjp_.size() * sizeof(eid_t) + adjncy_.size() * sizeof(vid_t) +
         adjwgt_.size() * sizeof(wgt_t) + vwgt_.size() * sizeof(wgt_t);
}

std::string CsrGraph::validate() const {
  std::ostringstream err;
  const vid_t n = num_vertices();
  if (adjp_.size() != static_cast<std::size_t>(n) + 1) {
    err << "adjp size " << adjp_.size() << " != n+1 = " << n + 1;
    return err.str();
  }
  if (adjncy_.size() != adjwgt_.size()) {
    err << "adjncy/adjwgt size mismatch";
    return err.str();
  }
  if (!adjp_.empty() && adjp_.front() != 0) return "adjp[0] != 0";
  if (!adjp_.empty() &&
      adjp_.back() != static_cast<eid_t>(adjncy_.size())) {
    return "adjp[n] != |arcs|";
  }
  for (vid_t v = 0; v < n; ++v) {
    if (adjp_[static_cast<std::size_t>(v)] >
        adjp_[static_cast<std::size_t>(v) + 1]) {
      err << "adjp not monotone at " << v;
      return err.str();
    }
    if (vwgt_[static_cast<std::size_t>(v)] <= 0) {
      err << "non-positive vertex weight at " << v;
      return err.str();
    }
  }
  // Per-vertex checks.  stamp[u] == v marks u as already seen at v.
  std::vector<vid_t> stamp(static_cast<std::size_t>(n), kInvalidVid);
  std::vector<eid_t> rev(static_cast<std::size_t>(n) + 1, 0);
  for (vid_t v = 0; v < n; ++v) {
    const auto nbrs = neighbors(v);
    const auto wts = neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const vid_t u = nbrs[i];
      if (u < 0 || u >= n) {
        err << "neighbour out of range at vertex " << v;
        return err.str();
      }
      if (u == v) {
        err << "self loop at vertex " << v;
        return err.str();
      }
      if (wts[i] <= 0) {
        err << "non-positive arc weight at vertex " << v;
        return err.str();
      }
      if (stamp[static_cast<std::size_t>(u)] == v) {
        err << "duplicate neighbour " << u << " at vertex " << v;
        return err.str();
      }
      stamp[static_cast<std::size_t>(u)] = v;
      ++rev[static_cast<std::size_t>(u) + 1];
    }
  }
  // Symmetry in O(n + m): bucket every arc v->u under u (a counting sort
  // on rev), then check u's incoming arcs against u's own list, stamped
  // with its weights.  With no duplicates, every arc having a reverse of
  // equal weight is exactly symmetry.
  for (std::size_t u = 0; u < static_cast<std::size_t>(n); ++u) {
    rev[u + 1] += rev[u];
  }
  std::vector<std::pair<vid_t, wgt_t>> in(adjncy_.size());
  std::vector<eid_t> next(rev.begin(), rev.end() - 1);
  for (vid_t v = 0; v < n; ++v) {
    const auto nbrs = neighbors(v);
    const auto wts = neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      in[static_cast<std::size_t>(next[static_cast<std::size_t>(nbrs[i])]++)] =
          {v, wts[i]};
    }
  }
  std::fill(stamp.begin(), stamp.end(), kInvalidVid);
  std::vector<wgt_t> wat(static_cast<std::size_t>(n), 0);
  for (vid_t u = 0; u < n; ++u) {
    const auto nbrs = neighbors(u);
    const auto wts = neighbor_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      stamp[static_cast<std::size_t>(nbrs[i])] = u;
      wat[static_cast<std::size_t>(nbrs[i])] = wts[i];
    }
    for (eid_t a = rev[static_cast<std::size_t>(u)];
         a < rev[static_cast<std::size_t>(u) + 1]; ++a) {
      const auto [v, w] = in[static_cast<std::size_t>(a)];
      if (stamp[static_cast<std::size_t>(v)] != u) {
        err << "asymmetric arc " << v << "->" << u;
        return err.str();
      }
      if (wat[static_cast<std::size_t>(v)] != w) {
        err << "asymmetric weight on edge {" << v << "," << u << "}";
        return err.str();
      }
    }
  }
  return {};
}

GraphBuilder::GraphBuilder(vid_t num_vertices, wgt_t default_vwgt)
    : adj_(static_cast<std::size_t>(num_vertices)),
      vwgt_(static_cast<std::size_t>(num_vertices), default_vwgt) {}

void GraphBuilder::set_vertex_weight(vid_t v, wgt_t w) {
  assert(v >= 0 && v < num_vertices() && w > 0);
  vwgt_[static_cast<std::size_t>(v)] = w;
}

void GraphBuilder::add_edge(vid_t u, vid_t v, wgt_t w) {
  assert(u >= 0 && u < num_vertices() && v >= 0 && v < num_vertices());
  if (u == v) return;
  adj_[static_cast<std::size_t>(u)].push_back({v, w});
  adj_[static_cast<std::size_t>(v)].push_back({u, w});
}

CsrGraph GraphBuilder::build() {
  const vid_t n = num_vertices();
  std::vector<eid_t> adjp(static_cast<std::size_t>(n) + 1, 0);
  std::vector<vid_t> adjncy;
  std::vector<wgt_t> adjwgt;

  // Merge duplicates per vertex by sorting its half-edge list.
  eid_t total = 0;
  for (vid_t v = 0; v < n; ++v) {
    auto& lst = adj_[static_cast<std::size_t>(v)];
    std::sort(lst.begin(), lst.end(),
              [](const HalfEdge& a, const HalfEdge& b) { return a.to < b.to; });
    std::size_t out = 0;
    for (std::size_t i = 0; i < lst.size();) {
      vid_t to = lst[i].to;
      wgt_t w = 0;
      while (i < lst.size() && lst[i].to == to) w += lst[i++].w;
      lst[out++] = {to, w};
    }
    lst.resize(out);
    total += static_cast<eid_t>(out);
  }
  adjncy.reserve(static_cast<std::size_t>(total));
  adjwgt.reserve(static_cast<std::size_t>(total));
  for (vid_t v = 0; v < n; ++v) {
    const auto& lst = adj_[static_cast<std::size_t>(v)];
    adjp[static_cast<std::size_t>(v) + 1] =
        adjp[static_cast<std::size_t>(v)] + static_cast<eid_t>(lst.size());
    for (const auto& he : lst) {
      adjncy.push_back(he.to);
      adjwgt.push_back(he.w);
    }
  }
  adj_.clear();
  CsrGraph g(std::move(adjp), std::move(adjncy), std::move(adjwgt),
             std::move(vwgt_));
  vwgt_.clear();
  return g;
}

}  // namespace gp
