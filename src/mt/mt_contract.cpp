#include "mt/mt_contract.hpp"

#include <algorithm>

#include "gpu/device_atomics.hpp"
#include "util/prefix_sum.hpp"

namespace gp {

CsrGraph mt_contract(const CsrGraph& fine, const MatchResult& m,
                     const MtContext& ctx, int level) {
  const vid_t nc = m.n_coarse;
  const int nt = ctx.threads();

  // leaders[c] = fine leader vertex of coarse vertex c.  One writer per
  // slot on a clean cmap; an injected cmap corruption can alias two
  // leaders onto one slot, so the store is the annotated racy kind
  // (either leader is an acceptable winner — the audits judge the rest).
  std::vector<vid_t> leaders(static_cast<std::size_t>(nc));
  ctx.pool->parallel_for_blocked(
      fine.num_vertices(), [&](int, std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          const auto v = static_cast<vid_t>(i);
          if (v <= m.match[static_cast<std::size_t>(v)]) {
            racy_store(leaders[static_cast<std::size_t>(
                           m.cmap[static_cast<std::size_t>(v)])],
                       v);
          }
        }
      });

  // Per-thread merge into local buffers + per-coarse-vertex degree.
  struct ThreadOut {
    std::vector<vid_t> adjncy;
    std::vector<wgt_t> adjwgt;
  };
  std::vector<ThreadOut> outs(static_cast<std::size_t>(nt));
  std::vector<eid_t> cdeg(static_cast<std::size_t>(nc) + 1, 0);
  std::vector<wgt_t> cvwgt(static_cast<std::size_t>(nc), 0);
  std::vector<std::uint64_t> work(static_cast<std::size_t>(nt), 0);

  ctx.pool->parallel_for_blocked(
      nc, [&](int t, std::int64_t b, std::int64_t e) {
        ThreadOut out;
        std::vector<vid_t> slot(static_cast<std::size_t>(nc), kInvalidVid);
        std::vector<std::pair<vid_t, wgt_t>> row;
        std::uint64_t w = 0;
        for (std::int64_t i = b; i < e; ++i) {
          const auto c = static_cast<vid_t>(i);
          const vid_t v = leaders[static_cast<std::size_t>(c)];
          const vid_t u = m.match[static_cast<std::size_t>(v)];
          cvwgt[static_cast<std::size_t>(c)] =
              fine.vertex_weight(v) + (u != v ? fine.vertex_weight(u) : 0);
          w += merge_coarse_row(fine, m.cmap, v, u, c, slot, row);
          cdeg[static_cast<std::size_t>(c) + 1] =
              static_cast<eid_t>(row.size());
          for (const auto& [k, x] : row) {
            out.adjncy.push_back(k);
            out.adjwgt.push_back(x);
          }
        }
        outs[static_cast<std::size_t>(t)] = std::move(out);
        work[static_cast<std::size_t>(t)] = w;
      });
  ctx.charge_pass("coarsen/contract/merge/L" + std::to_string(level), work);

  // Prefix sum of coarse degrees -> adjp; copy thread buffers in place.
  inclusive_scan_parallel(*ctx.pool, cdeg);
  std::vector<vid_t> cadjncy(static_cast<std::size_t>(cdeg.back()));
  std::vector<wgt_t> cadjwgt(static_cast<std::size_t>(cdeg.back()));
  std::fill(work.begin(), work.end(), 0);
  ctx.pool->parallel_for_blocked(
      nc, [&](int t, std::int64_t b, std::int64_t e) {
        // This thread produced the adjacency of coarse ids [b, e) in its
        // buffer, in order; the global offset is cdeg[b].
        if (b >= e) return;
        const auto& out = outs[static_cast<std::size_t>(t)];
        const auto dst0 = static_cast<std::size_t>(
            cdeg[static_cast<std::size_t>(b)]);
        std::copy(out.adjncy.begin(), out.adjncy.end(),
                  cadjncy.begin() + static_cast<std::ptrdiff_t>(dst0));
        std::copy(out.adjwgt.begin(), out.adjwgt.end(),
                  cadjwgt.begin() + static_cast<std::ptrdiff_t>(dst0));
        work[static_cast<std::size_t>(t)] = out.adjncy.size();
      });
  ctx.charge_pass("coarsen/contract/copy/L" + std::to_string(level), work);

  return CsrGraph(std::move(cdeg), std::move(cadjncy), std::move(cadjwgt),
                  std::move(cvwgt));
}

}  // namespace gp
