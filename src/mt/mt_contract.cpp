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

  // Each thread merges the rows of its block of coarse ids, in id order.
  const PoolRunner run(ctx);
  CoarseRows rows(nc, nt);
  run.run("coarsen/contract/merge/L" + std::to_string(level), nc,
          [&](int t, vid_t b, vid_t e) {
            std::uint64_t w = 0;
            for (vid_t c = b; c < e; ++c) {
              const vid_t v = leaders[static_cast<std::size_t>(c)];
              w += rows.merge(fine, m.cmap, t, v,
                              m.match[static_cast<std::size_t>(v)], c);
            }
            return w;
          });

  // Prefix sum of coarse degrees -> adjp; copy thread buffers in place.
  std::vector<eid_t>& cdeg = rows.deg;
  inclusive_scan_parallel(*ctx.pool, cdeg);
  std::vector<vid_t> cadjncy(static_cast<std::size_t>(cdeg.back()));
  std::vector<wgt_t> cadjwgt(static_cast<std::size_t>(cdeg.back()));
  run.run("coarsen/contract/copy/L" + std::to_string(level), nc,
          [&](int t, vid_t b, vid_t) -> std::uint64_t {
            // This thread merged coarse ids [b, e) into its buffer, in
            // order; the global offset is cdeg[b].
            const auto& out = rows.out[static_cast<std::size_t>(t)];
            const auto dst0 = static_cast<std::ptrdiff_t>(
                cdeg[static_cast<std::size_t>(b)]);
            std::copy(out.adjncy.begin(), out.adjncy.end(),
                      cadjncy.begin() + dst0);
            std::copy(out.adjwgt.begin(), out.adjwgt.end(),
                      cadjwgt.begin() + dst0);
            return out.adjncy.size();
          });

  return CsrGraph(std::move(cdeg), std::move(cadjncy), std::move(cadjwgt),
                  std::move(rows.vwgt));
}

}  // namespace gp
