#include "galois/gmetis_match.hpp"

#include "gpu/device_atomics.hpp"
#include "util/rng.hpp"

namespace gp {

MatchResult gmetis_match(const CsrGraph& g, ThreadPool& pool,
                         std::uint64_t seed, GmetisMatchStats* stats) {
  const vid_t n = g.num_vertices();
  MatchResult r;
  r.match.assign(static_cast<std::size_t>(n), kInvalidVid);
  vid_t* match = r.match.data();

  SpeculativeEngine engine(pool, static_cast<std::size_t>(n));
  std::atomic<std::uint64_t> work{0};

  const auto spec_stats = engine.for_each(
      n, [&](SpecTxn& txn, std::int64_t i) -> bool {
        const auto v = static_cast<vid_t>(i);
        if (!txn.acquire(v)) return false;
        if (racy_load(match[v]) != kInvalidVid) return true;  // settled
        const auto nbrs = g.neighbors(v);
        const auto wts = g.neighbor_weights(v);
        work.fetch_add(nbrs.size(), std::memory_order_relaxed);
        // HEM choice with a seed-rotated scan (random tie-break).
        Rng rng(seed + static_cast<std::uint64_t>(v));
        vid_t best = kInvalidVid;
        wgt_t best_w = -1;
        const std::size_t rot = nbrs.empty() ? 0 : rng.next_below(nbrs.size());
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          const std::size_t idx = (j + rot) % nbrs.size();
          const vid_t u = nbrs[idx];
          if (racy_load(match[u]) != kInvalidVid) continue;
          if (wts[idx] > best_w) {
            best_w = wts[idx];
            best = u;
          }
        }
        if (best == kInvalidVid) {
          racy_store(match[v], v);  // v is locked: no one else writes it
          return true;
        }
        // Lock the mate before writing anything — abort on conflict.
        if (!txn.acquire(best)) return false;
        if (racy_load(match[best]) != kInvalidVid) {
          // Mate got taken between the scan and the lock: retry would
          // find another; abort to re-queue.
          return false;
        }
        racy_store(match[v], best);
        racy_store(match[best], v);
        return true;
      });

  // Settle any vertices the operator left unmatched after retries (an
  // aborted retry whose mate vanished self-matches here).
  for (vid_t v = 0; v < n; ++v) {
    if (match[v] == kInvalidVid) match[v] = v;
    // A one-sided pair can only arise if a retry wrote match[v]=u after
    // u self-matched in the serial round; repair exactly like the GPU
    // resolve kernel.
    const vid_t m = match[v];
    if (m != v && match[m] != v) match[v] = v;
  }

  auto [cmap, nc] = build_cmap_serial(r.match);
  r.cmap = std::move(cmap);
  r.n_coarse = nc;
  if (stats) {
    stats->spec = spec_stats;
    stats->work_units = work.load();
  }
  return r;
}

}  // namespace gp
