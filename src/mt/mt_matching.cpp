#include "mt/mt_matching.hpp"

#include <atomic>

#include "gpu/device_atomics.hpp"
#include "util/prefix_sum.hpp"
#include "util/rng.hpp"

namespace gp {

MatchResult mt_match(const CsrGraph& g, const MtContext& ctx, int level,
                     MtMatchStats* stats, wgt_t two_hop_cap) {
  const vid_t n = g.num_vertices();
  const int nt = ctx.threads();
  MatchResult r;
  r.match.assign(static_cast<std::size_t>(n), kInvalidVid);
  vid_t* match = r.match.data();

  std::vector<std::uint64_t> conflicts(static_cast<std::size_t>(nt), 0);

  // Work metering for the dynamic rounds: total plus heaviest chunk (the
  // model inputs — see CostLedger::charge_mt_dynamic_pass).
  std::atomic<std::uint64_t> total_w{0}, max_chunk_w{0};
  auto meter_chunk = [&](std::uint64_t w) {
    total_w.fetch_add(w, std::memory_order_relaxed);
    std::uint64_t cur = max_chunk_w.load(std::memory_order_relaxed);
    while (cur < w && !max_chunk_w.compare_exchange_weak(
                          cur, w, std::memory_order_relaxed)) {
    }
  };

  // --- Round 1: unsynchronized HEM, dynamically scheduled ---
  // Vertex degrees are skewed (power-law graphs), so chunks are handed to
  // workers from an atomic counter instead of static blocks: a worker that
  // drew hubs does not gate the pass.  One RNG per *worker* (not per
  // chunk), pre-created so the stream is decorrelated by (seed, level,
  // worker) and — with one worker — consumed in the same ascending-vertex
  // order as a single static block.
  std::vector<Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(nt));
  for (int t = 0; t < nt; ++t) {
    rngs.emplace_back(ctx.seed * 0x9E3779B97F4A7C15ULL +
                      static_cast<std::uint64_t>(level) * 1000003ULL +
                      static_cast<std::uint64_t>(t));
  }
  const std::int64_t grain = ctx.pool->dynamic_grain(n);
  ctx.pool->parallel_for_dynamic(
      n, grain, [&](int t, std::int64_t b, std::int64_t e) {
        Rng& rng = rngs[static_cast<std::size_t>(t)];
        std::uint64_t w = 0;
        for (std::int64_t i = b; i < e; ++i) {
          const auto v = static_cast<vid_t>(i);
          if (racy_load(match[v]) != kInvalidVid) continue;
          const auto nbrs = g.neighbors(v);
          const auto wts = g.neighbor_weights(v);
          w += nbrs.size();
          // HEM with random tie-breaking: scan from a random rotation so
          // equal-weight graphs degrade to random matching (paper: "if
          // all the edges have the same weight, a random matching method
          // is used").
          vid_t best = kInvalidVid;
          wgt_t best_w = -1;
          const std::size_t rot =
              nbrs.empty() ? 0 : rng.next_below(nbrs.size());
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
            racy_store(match[v], v);
          } else {
            // Both writes race with other threads — round 2 repairs.
            racy_store(match[v], best);
            racy_store(match[best], v);
          }
        }
        meter_chunk(w);
      });
  ctx.charge_dynamic_pass("coarsen/match/round1/L" + std::to_string(level),
                          total_w.load(), max_chunk_w.load());

  // --- Round 2: conflict resolution, dynamically scheduled too.  It
  // also counts each static block's leftovers for the 2-hop gate:
  // leftovers[t * stride + b] is executor t's tally for block b.  The
  // row stride is a whole number of 64-byte cache lines, so executors
  // never increment counters on a shared line. ---
  total_w.store(0);
  max_chunk_w.store(0);
  const auto nts = static_cast<std::size_t>(nt);
  constexpr std::size_t kLine = 64 / sizeof(vid_t);
  const std::size_t stride = (nts + kLine - 1) / kLine * kLine;
  std::vector<vid_t> leftovers(nts * stride, 0);
  ctx.pool->parallel_for_dynamic(
      n, grain, [&](int t, std::int64_t b, std::int64_t e) {
        std::uint64_t w = 0, c = 0;
        vid_t* left = &leftovers[static_cast<std::size_t>(t) * stride];
        for (std::int64_t i = b; i < e; ++i) {
          const auto v = static_cast<vid_t>(i);
          ++w;
          const vid_t m = racy_load(match[v]);
          if (m == kInvalidVid) {
            racy_store(match[v], v);  // never reached in round 1
          } else if (m != v) {
            if (racy_load(match[m]) == v) continue;  // a matched pair
            // match(v) = u but match(u) != v: v lost the race and gets
            // another chance at the next coarsening level.
            racy_store(match[v], v);
            ++c;
          }
          ++left[ThreadPool::block_of(n, nt, i)];
        }
        meter_chunk(w);
        conflicts[static_cast<std::size_t>(t)] += c;
      });
  ctx.charge_dynamic_pass("coarsen/match/round2/L" + std::to_string(level),
                          total_w.load(), max_chunk_w.load());

  // --- 2-hop: each worker pairs its own block's leftovers that share a
  // neighbour; a level where no block's gate opens skips the pass ---
  bool any_open = false;
  for (int blk = 0; blk < nt; ++blk) {
    vid_t left = 0;
    for (std::size_t t = 0; t < nts; ++t) {
      left += leftovers[t * stride + static_cast<std::size_t>(blk)];
    }
    const auto [b, e] = ThreadPool::block_range(n, nt, blk);
    any_open = any_open || two_hop_gate_open(left, static_cast<vid_t>(e - b));
  }
  if (two_hop_cap > 0 && any_open) {
    PoolRunner(ctx).run("coarsen/match/twohop/L" + std::to_string(level), n,
                        [&](int, vid_t b, vid_t e) {
                          return two_hop_match(g, r.match, b, e, two_hop_cap);
                        });
  }

  // --- cmap via parallel prefix sum (mt analogue of the paper's 4-kernel
  // GPU pipeline; tested to agree with build_cmap_serial) ---
  std::vector<vid_t> pv(static_cast<std::size_t>(n));
  ctx.pool->parallel_for_blocked(n, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const auto v = static_cast<vid_t>(i);
      pv[static_cast<std::size_t>(v)] = (v <= match[v]) ? 1 : 0;
    }
  });
  inclusive_scan_parallel(*ctx.pool, pv);
  r.n_coarse = n > 0 ? pv[static_cast<std::size_t>(n) - 1] : 0;
  r.cmap.assign(static_cast<std::size_t>(n), kInvalidVid);
  vid_t* cmap = r.cmap.data();
  ctx.pool->parallel_for_blocked(n, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const auto v = static_cast<vid_t>(i);
      if (v <= match[v]) cmap[v] = pv[static_cast<std::size_t>(v)] - 1;
    }
  });
  ctx.pool->parallel_for_blocked(n, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const auto v = static_cast<vid_t>(i);
      if (v > match[v]) cmap[v] = cmap[match[v]];
    }
  });
  ctx.charge_pass("coarsen/cmap/L" + std::to_string(level),
                  std::vector<std::uint64_t>(
                      static_cast<std::size_t>(nt),
                      static_cast<std::uint64_t>(n / std::max(1, nt)) * 3));

  if (stats) {
    stats->conflicts = 0;
    for (const auto c : conflicts) stats->conflicts += c;
    vid_t pairs = 0;
    for (vid_t v = 0; v < n; ++v) {
      if (r.match[static_cast<std::size_t>(v)] > v) ++pairs;
    }
    stats->matched_pairs = pairs;
  }
  return r;
}

}  // namespace gp
