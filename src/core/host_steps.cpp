#include "core/host_steps.hpp"

#include <numeric>

#include "core/matching.hpp"

namespace gp {

void build_gain_cache(const BlockRunner& run, const std::string& label,
                      const CsrGraph& g, const std::vector<part_t>& where,
                      part_t k, GainCache& cache) {
  cache.init(g, k);
  std::vector<wgt_t> ed(static_cast<std::size_t>(run.blocks()), 0);
  run.run(label, g.num_vertices(), [&](int blk, vid_t b, vid_t e) {
    return cache.build_range(g, where, b, e,
                             &ed[static_cast<std::size_t>(blk)]);
  });
  cache.finish_totals(std::accumulate(ed.begin(), ed.end(), wgt_t{0}));
}

GainCache project_gain_cache(const BlockRunner& run, const std::string& label,
                             const GainCache& coarse, const CsrGraph& fine,
                             const std::vector<part_t>& fine_where,
                             const std::vector<vid_t>& cmap, part_t k) {
  // The coarse cache is read-only here; the blocks' fine ranges are
  // disjoint.
  GainCache cache;
  cache.init(fine, k);
  std::vector<wgt_t> ed(static_cast<std::size_t>(run.blocks()), 0);
  run.run(label, fine.num_vertices(), [&](int blk, vid_t b, vid_t e) {
    return cache.project_range(coarse, fine, fine_where, cmap, b, e,
                               &ed[static_cast<std::size_t>(blk)]);
  });
  cache.finish_totals(std::accumulate(ed.begin(), ed.end(), wgt_t{0}));
  return cache;
}

std::uint64_t CoarseRows::merge(const CsrGraph& fine,
                                const std::vector<vid_t>& cmap, int block,
                                vid_t v, vid_t m, vid_t c) {
  Block& b = out[static_cast<std::size_t>(block)];
  if (b.slot.empty()) {
    b.slot.assign(static_cast<std::size_t>(n_coarse), kInvalidVid);
  }
  vwgt[static_cast<std::size_t>(c)] =
      fine.vertex_weight(v) + (m != v ? fine.vertex_weight(m) : 0);
  const std::uint64_t work = merge_coarse_row(fine, cmap, v, m, c, b.slot,
                                              b.row);
  deg[static_cast<std::size_t>(c) + 1] = static_cast<eid_t>(b.row.size());
  for (const auto& [cu, w] : b.row) {
    b.adjncy.push_back(cu);
    b.adjwgt.push_back(w);
  }
  return work;
}

CsrGraph CoarseRows::stitch() {
  for (std::size_t c = 0; c < static_cast<std::size_t>(n_coarse); ++c) {
    deg[c + 1] += deg[c];
  }
  // Block 0's arcs become the coarse arrays; the rest follow in order.
  std::vector<vid_t> adjncy = std::move(out[0].adjncy);
  std::vector<wgt_t> adjwgt = std::move(out[0].adjwgt);
  adjncy.reserve(static_cast<std::size_t>(deg.back()));
  adjwgt.reserve(static_cast<std::size_t>(deg.back()));
  for (std::size_t b = 1; b < out.size(); ++b) {
    adjncy.insert(adjncy.end(), out[b].adjncy.begin(), out[b].adjncy.end());
    adjwgt.insert(adjwgt.end(), out[b].adjwgt.begin(), out[b].adjwgt.end());
  }
  return CsrGraph(std::move(deg), std::move(adjncy), std::move(adjwgt),
                  std::move(vwgt));
}

}  // namespace gp
