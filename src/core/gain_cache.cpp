#include "core/gain_cache.hpp"

#include <algorithm>
#include <string>

#include "core/host_steps.hpp"

namespace gp {

void GainCache::init(const CsrGraph& g, part_t k) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  k_ = k;
  ed_total_ = 0;
  id_.assign(n, 0);
  ed_.assign(n, 0);
  cnt_.assign(n, 0);
  off_.assign(n + 1, 0);
  // Per-vertex capacity: a vertex can touch at most min(degree, k - 1)
  // distinct foreign parts; min(degree, k) is a safe, simple bound.
  for (std::size_t v = 0; v < n; ++v) {
    const eid_t cap = std::min<eid_t>(g.degree(static_cast<vid_t>(v)),
                                      static_cast<eid_t>(k));
    off_[v + 1] = off_[v] + cap;
  }
  part_.assign(static_cast<std::size_t>(off_[n]), kInvalidPart);
  wgt_.assign(static_cast<std::size_t>(off_[n]), 0);
}

namespace {

/// This executor's gather scratch: k zeroes and a part list.
std::pair<std::vector<wgt_t>&, std::vector<part_t>&> scratch(part_t k) {
  thread_local std::vector<wgt_t> conn;
  thread_local std::vector<part_t> parts;
  if (conn.size() < static_cast<std::size_t>(k)) {
    conn.assign(static_cast<std::size_t>(k), 0);
  }
  return {conn, parts};
}

}  // namespace

wgt_t GainCache::fill_vertex(const CsrGraph& g,
                             const std::vector<part_t>& where, vid_t v,
                             std::vector<wgt_t>& conn,
                             std::vector<part_t>& parts) {
  const auto sv = static_cast<std::size_t>(v);
  id_[sv] = gather_conn(
      g.adjp().data(), g.adjncy().data(), g.adjwgt().data(),
      [&](vid_t u) { return where[static_cast<std::size_t>(u)]; }, v,
      where[sv], conn, parts);
  const auto base = static_cast<std::size_t>(off_[sv]);
  wgt_t external = 0;
  for (std::size_t s = 0; s < parts.size(); ++s) {
    const auto q = static_cast<std::size_t>(parts[s]);
    part_[base + s] = parts[s];
    wgt_[base + s] = conn[q];
    external += conn[q];
    conn[q] = 0;
  }
  ed_[sv] = external;
  cnt_[sv] = static_cast<std::int32_t>(parts.size());
  return external;
}

std::uint64_t GainCache::build_range(const CsrGraph& g,
                                     const std::vector<part_t>& where,
                                     vid_t vb, vid_t ve, wgt_t* ed_partial) {
  auto [conn, parts] = scratch(k_);
  std::uint64_t work = 0;
  wgt_t ed_sum = 0;
  for (vid_t v = vb; v < ve; ++v) {
    work += static_cast<std::uint64_t>(g.degree(v)) + 1;
    ed_sum += fill_vertex(g, where, v, conn, parts);
  }
  *ed_partial += ed_sum;
  return work;
}

void GainCache::build(const CsrGraph& g, const std::vector<part_t>& where,
                      part_t k) {
  build_gain_cache(SerialRunner(nullptr), {}, g, where, k, *this);
}

std::uint64_t GainCache::project_range(const GainCache& coarse,
                                       const CsrGraph& fine,
                                       const std::vector<part_t>& fine_where,
                                       const std::vector<vid_t>& cmap,
                                       vid_t vb, vid_t ve,
                                       wgt_t* ed_partial) {
  auto [conn, parts] = scratch(k_);
  std::uint64_t work = 0;
  wgt_t ed_sum = 0;
  for (vid_t v = vb; v < ve; ++v) {
    const vid_t c = cmap[static_cast<std::size_t>(v)];
    const auto wts = fine.neighbor_weights(v);
    work += wts.size() + 1;
    if (coarse.boundary(c)) {
      // Boundary parent: the fine vertex may touch foreign parts; full
      // scan for this vertex only.
      ed_sum += fill_vertex(fine, fine_where, v, conn, parts);
      continue;
    }
    // Interior parent: every coarse neighbour of c shares its part, and
    // v's neighbours all map into that closed neighbourhood, so v is
    // interior too.  Stream the weighted degree, skip the table.
    wgt_t internal = 0;
    for (const wgt_t w : wts) internal += w;
    id_[static_cast<std::size_t>(v)] = internal;
    ed_[static_cast<std::size_t>(v)] = 0;
    cnt_[static_cast<std::size_t>(v)] = 0;
  }
  *ed_partial += ed_sum;
  return work;
}

wgt_t GainCache::conn_to(vid_t v, part_t q) const {
  const eid_t        base = off_[static_cast<std::size_t>(v)];
  const std::int32_t cnt = cnt_[static_cast<std::size_t>(v)];
  for (std::int32_t i = 0; i < cnt; ++i) {
    if (part_[static_cast<std::size_t>(base + i)] == q) {
      return wgt_[static_cast<std::size_t>(base + i)];
    }
  }
  return 0;
}

void GainCache::conn_add(vid_t v, part_t q, wgt_t w) {
  const eid_t  base = off_[static_cast<std::size_t>(v)];
  std::int32_t cnt = cnt_[static_cast<std::size_t>(v)];
  for (std::int32_t i = 0; i < cnt; ++i) {
    if (part_[static_cast<std::size_t>(base + i)] == q) {
      wgt_[static_cast<std::size_t>(base + i)] += w;
      return;
    }
  }
  part_[static_cast<std::size_t>(base + cnt)] = q;
  wgt_[static_cast<std::size_t>(base + cnt)] = w;
  cnt_[static_cast<std::size_t>(v)] = cnt + 1;
}

void GainCache::conn_sub(vid_t v, part_t q, wgt_t w) {
  const eid_t        base = off_[static_cast<std::size_t>(v)];
  const std::int32_t cnt = cnt_[static_cast<std::size_t>(v)];
  for (std::int32_t i = 0; i < cnt; ++i) {
    if (part_[static_cast<std::size_t>(base + i)] != q) continue;
    wgt_[static_cast<std::size_t>(base + i)] -= w;
    if (wgt_[static_cast<std::size_t>(base + i)] == 0) {
      // Swap-erase; entry order carries no meaning (choose_move's
      // tie-break rescans the adjacency list).
      part_[static_cast<std::size_t>(base + i)] =
          part_[static_cast<std::size_t>(base + cnt - 1)];
      wgt_[static_cast<std::size_t>(base + i)] =
          wgt_[static_cast<std::size_t>(base + cnt - 1)];
      cnt_[static_cast<std::size_t>(v)] = cnt - 1;
    }
    return;
  }
}

template <typename PartOf>
std::uint64_t GainCache::apply_move_impl(const CsrGraph& g, vid_t v,
                                         part_t from, part_t to,
                                         PartOf&& part_of) {
  const auto nbrs = g.neighbors(v);
  const auto wts = g.neighbor_weights(v);
  // Self update: connectivity to `to` becomes internal, the old internal
  // weight becomes connectivity to `from`.
  const wgt_t old_internal = id_[static_cast<std::size_t>(v)];
  const wgt_t to_conn = conn_to(v, to);
  conn_sub(v, to, to_conn);
  if (old_internal > 0) conn_add(v, from, old_internal);
  id_[static_cast<std::size_t>(v)] = to_conn;
  ed_[static_cast<std::size_t>(v)] += old_internal - to_conn;
  // Both endpoints of each affected arc change sides symmetrically.
  ed_total_ += 2 * (old_internal - to_conn);

  for (std::size_t j = 0; j < nbrs.size(); ++j) {
    const vid_t  u = nbrs[j];
    const wgt_t  w = wts[j];
    const part_t pu = part_of(u);
    if (pu == from) {
      id_[static_cast<std::size_t>(u)] -= w;
      ed_[static_cast<std::size_t>(u)] += w;
      conn_add(u, to, w);
    } else if (pu == to) {
      conn_sub(u, from, w);
      id_[static_cast<std::size_t>(u)] += w;
      ed_[static_cast<std::size_t>(u)] -= w;
    } else {
      conn_sub(u, from, w);
      conn_add(u, to, w);
    }
  }
  return static_cast<std::uint64_t>(nbrs.size()) + 1;
}

std::uint64_t GainCache::apply_move(const CsrGraph& g,
                                    const std::vector<part_t>& where, vid_t v,
                                    part_t from, part_t to) {
  return apply_move_impl(g, v, from, to, [&](vid_t u) {
    return where[static_cast<std::size_t>(u)];
  });
}

std::uint64_t GainCache::apply_moves(const CsrGraph& g,
                                     const std::vector<part_t>& where_final,
                                     const std::vector<CommittedMove>& moves) {
  if (moves.empty()) return 0;
  if (move_idx_.size() < where_final.size()) {
    move_idx_.assign(where_final.size(), -1);
  }
  std::uint64_t work = moves.size();
  for (std::size_t i = 0; i < moves.size(); ++i) {
    move_idx_[static_cast<std::size_t>(moves[i].v)] =
        static_cast<std::int32_t>(i);
  }
  // Replay in list order.  A neighbour that also moved this batch reads
  // as its `from` part until its own replay step, `to` afterwards — the
  // overlay a sequential commit would have seen.  Each step maps an exact
  // cache of one where-configuration to the exact cache of the next, so
  // the final state equals a fresh build against where_final regardless
  // of the order the concurrent commit actually interleaved in.
  std::size_t next = 0;
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const auto& m = moves[i];
    next = i + 1;
    work += apply_move_impl(g, m.v, m.from, m.to, [&](vid_t u) {
      const std::int32_t mi = move_idx_[static_cast<std::size_t>(u)];
      if (mi < 0) return where_final[static_cast<std::size_t>(u)];
      return static_cast<std::size_t>(mi) < next ? moves[mi].to
                                                 : moves[mi].from;
    });
  }
  for (const auto& m : moves) {
    move_idx_[static_cast<std::size_t>(m.v)] = -1;
  }
  return work;
}

std::string GainCache::compare_to_rebuild(
    const CsrGraph& g, const std::vector<part_t>& where) const {
  GainCache fresh;
  fresh.build(g, where, k_);
  if (fresh.ed_total_ != ed_total_) {
    return "ed-total mismatch: cached " + std::to_string(ed_total_) +
           " recomputed " + std::to_string(fresh.ed_total_);
  }
  const vid_t n = g.num_vertices();
  for (vid_t v = 0; v < n; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    if (id_[sv] != fresh.id_[sv] || ed_[sv] != fresh.ed_[sv]) {
      return "id/ed mismatch at v=" + std::to_string(v) + ": cached (" +
             std::to_string(id_[sv]) + "," + std::to_string(ed_[sv]) +
             ") recomputed (" + std::to_string(fresh.id_[sv]) + "," +
             std::to_string(fresh.ed_[sv]) + ")";
    }
    if (cnt_[sv] != fresh.cnt_[sv]) {
      return "conn-count mismatch at v=" + std::to_string(v) + ": cached " +
             std::to_string(cnt_[sv]) + " recomputed " +
             std::to_string(fresh.cnt_[sv]);
    }
    for (std::int32_t i = 0; i < cnt_[sv]; ++i) {
      const part_t q = conn_part(v, i);
      if (conn_wgt(v, i) != fresh.conn_to(v, q)) {
        return "conn mismatch at v=" + std::to_string(v) + " part " +
               std::to_string(q) + ": cached " +
               std::to_string(conn_wgt(v, i)) + " recomputed " +
               std::to_string(fresh.conn_to(v, q));
      }
    }
  }
  return {};
}

}  // namespace gp
