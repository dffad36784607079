// Tests for the shared incremental gain cache (DESIGN.md §3.6): delta
// updates must be indistinguishable from a fresh recompute after any move
// sequence, batch replay must reconstruct the commit-barrier state,
// projection must equal a ground-up build on the fine level, and the
// shared move rule (choose_move), on the cache's table or on gather_conn's
// first-arc order, must pick byte-identical moves to the historical full
// adjacency scan — pinned end-to-end by the golden partition hashes in
// test_golden.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/gain_cache.hpp"
#include "core/matching.hpp"
#include "core/partition.hpp"
#include "gen/generators.hpp"
#include "serial/hem_matching.hpp"
#include "util/rng.hpp"

namespace gp {
namespace {

std::vector<part_t> random_where(vid_t n, part_t k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<part_t> where(static_cast<std::size_t>(n));
  for (auto& w : where) w = static_cast<part_t>(rng() % static_cast<std::uint64_t>(k));
  return where;
}

/// The historical gain evaluation: scan v's whole adjacency, accumulate
/// connectivity per part in first-occurrence order, pick the first
/// allowed part whose connectivity is maximal and exceeds `threshold`.
template <typename Allowed>
BestDest best_destination_full_scan(const CsrGraph& g,
                                    const std::vector<part_t>& where, vid_t v,
                                    part_t pv, wgt_t threshold,
                                    Allowed&& allowed) {
  std::vector<part_t> order;
  std::vector<wgt_t>  conn(static_cast<std::size_t>(
                              1 + *std::max_element(where.begin(), where.end())),
                          0);
  const auto nbrs = g.neighbors(v);
  const auto wgts = g.neighbor_weights(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const part_t pu = where[static_cast<std::size_t>(nbrs[i])];
    if (pu == pv) continue;
    if (conn[static_cast<std::size_t>(pu)] == 0) order.push_back(pu);
    conn[static_cast<std::size_t>(pu)] += wgts[i];
  }
  BestDest best{kInvalidPart, threshold, 0};
  for (const part_t q : order) {
    if (!allowed(q)) continue;
    if (conn[static_cast<std::size_t>(q)] > best.conn) {
      best.part = q;
      best.conn = conn[static_cast<std::size_t>(q)];
    }
  }
  return best;
}

TEST(GainCache, DeltaUpdateMatchesRecomputeAfterRandomMoves) {
  const auto g = delaunay_graph(2000, 11);
  const part_t k = 8;
  auto where = random_where(g.num_vertices(), k, 17);

  GainCache cache;
  cache.build(g, where, k);
  ASSERT_EQ(cache.compare_to_rebuild(g, where), "");

  Rng rng(23);
  for (int step = 1; step <= 600; ++step) {
    const auto v = static_cast<vid_t>(rng() % static_cast<std::uint64_t>(
                                                  g.num_vertices()));
    const part_t from = where[static_cast<std::size_t>(v)];
    part_t to = static_cast<part_t>(rng() % static_cast<std::uint64_t>(k));
    if (to == from) to = static_cast<part_t>((to + 1) % k);
    cache.apply_move(g, where, v, from, to);
    where[static_cast<std::size_t>(v)] = to;
    // Cross-check the cache against a ground-up recompute periodically
    // (every committed move keeps the cut counter exact too).
    ASSERT_EQ(cache.cut(), edge_cut(g, Partition{k, where}))
        << "after move " << step;
    if (step % 150 == 0) {
      ASSERT_EQ(cache.compare_to_rebuild(g, where), "")
          << "after move " << step;
    }
  }
  EXPECT_EQ(cache.compare_to_rebuild(g, where), "");
}

TEST(GainCache, BatchReplayReconstructsCommitBarrierState) {
  const auto g = delaunay_graph(1500, 29);
  const part_t k = 6;
  const auto initial = random_where(g.num_vertices(), k, 31);

  GainCache cache;
  cache.build(g, initial, k);

  // Record a move sequence the way the mt refiner's commit step does:
  // against the FINAL where array, with per-move from/to.  The barrier
  // contract admits each vertex at most once per batch (a pass moves a
  // vertex at most once), so draw without replacement.
  auto where = initial;
  std::vector<CommittedMove> moves;
  std::vector<char> picked(static_cast<std::size_t>(g.num_vertices()), 0);
  Rng rng(37);
  for (int i = 0; i < 400; ++i) {
    const auto v = static_cast<vid_t>(rng() % static_cast<std::uint64_t>(
                                                  g.num_vertices()));
    if (picked[static_cast<std::size_t>(v)]) continue;
    picked[static_cast<std::size_t>(v)] = 1;
    const part_t from = where[static_cast<std::size_t>(v)];
    part_t to = static_cast<part_t>(rng() % static_cast<std::uint64_t>(k));
    if (to == from) to = static_cast<part_t>((to + 1) % k);
    moves.push_back({v, from, to});
    where[static_cast<std::size_t>(v)] = to;
  }

  cache.apply_moves(g, where, moves);
  EXPECT_EQ(cache.compare_to_rebuild(g, where), "");
  EXPECT_EQ(cache.cut(), edge_cut(g, Partition{k, where}));
}

TEST(GainCache, ProjectionMatchesGroundUpBuild) {
  // A contracted grid keeps spatial locality, so a block partition of the
  // coarse level leaves plenty of interior vertices — both projection
  // paths (interior shortcut and boundary rebuild) get exercised.
  const auto fine = grid2d_graph(64, 48);
  Rng match_rng(41);
  const auto m = hem_match_serial(fine, match_rng);
  const auto [cmap, n_coarse] = build_cmap_serial(m.match);
  const auto coarse = contract_serial(fine, m.match, cmap, n_coarse);

  const part_t k = 8;
  std::vector<part_t> coarse_where(static_cast<std::size_t>(n_coarse));
  for (vid_t c = 0; c < n_coarse; ++c) {
    coarse_where[static_cast<std::size_t>(c)] =
        static_cast<part_t>((static_cast<std::int64_t>(c) * k) / n_coarse);
  }

  GainCache coarse_cache;
  coarse_cache.build(coarse, coarse_where, k);

  // Disturb the coarse level with a few committed moves first — projection
  // must follow the *current* coarse state, not the initial one.
  Rng rng(43);
  for (int i = 0; i < 50; ++i) {
    const auto c = static_cast<vid_t>(rng() % static_cast<std::uint64_t>(
                                                  n_coarse));
    const part_t from = coarse_where[static_cast<std::size_t>(c)];
    const part_t to = static_cast<part_t>((from + 1) % k);
    coarse_cache.apply_move(coarse, coarse_where, c, from, to);
    coarse_where[static_cast<std::size_t>(c)] = to;
  }
  ASSERT_EQ(coarse_cache.compare_to_rebuild(coarse, coarse_where), "");

  const auto fine_where = project_partition(cmap, coarse_where);

  GainCache projected;
  projected.init(fine, k);
  wgt_t ed_total = 0;
  projected.project_range(coarse_cache, fine, fine_where, cmap, 0,
                          fine.num_vertices(), &ed_total);
  projected.finish_totals(ed_total);

  EXPECT_EQ(projected.compare_to_rebuild(fine, fine_where), "");
  EXPECT_EQ(projected.cut(), edge_cut(fine, Partition{k, fine_where}));

  GainCache ground_up;
  ground_up.build(fine, fine_where, k);
  EXPECT_EQ(projected.cut(), ground_up.cut());
}

TEST(GainCache, BestDestinationMatchesFullScanIncludingTies) {
  // Unit edge weights maximise connectivity ties; the cached query must
  // resolve every one exactly as the historical adjacency scan did, and
  // so must the shared rule on gather_conn's first-arc order, which needs
  // no rescan.
  const auto g = delaunay_graph(1200, 47);
  const part_t k = 5;
  const auto where = random_where(g.num_vertices(), k, 53);

  GainCache cache;
  cache.build(g, where, k);

  const auto all = [](part_t) { return true; };
  const auto even_only = [](part_t q) { return (q % 2) == 0; };
  const auto label = [&](vid_t u) {
    return where[static_cast<std::size_t>(u)];
  };
  std::vector<wgt_t> conn(static_cast<std::size_t>(k), 0);
  std::vector<part_t> parts;
  std::uint64_t ties_seen = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const part_t pv = where[static_cast<std::size_t>(v)];
    (void)gather_conn(g.adjp().data(), g.adjncy().data(), g.adjwgt().data(),
                      label, v, pv, conn, parts);
    auto first_arc = [&](wgt_t threshold, auto&& allowed) {
      auto conn_at = [&](std::size_t i) {
        return conn[static_cast<std::size_t>(parts[i])];
      };
      return choose_move(parts, conn_at, threshold, allowed, {}, label);
    };
    for (const wgt_t threshold : {cache.internal(v), wgt_t{0}, wgt_t{-1}}) {
      const auto got = cache.best_destination(g, where, v, threshold, all);
      const auto want =
          best_destination_full_scan(g, where, v, pv, threshold, all);
      ASSERT_EQ(got.part, want.part) << "v=" << v << " thr=" << threshold;
      ASSERT_EQ(got.conn, want.conn) << "v=" << v << " thr=" << threshold;
      ties_seen += got.tie_scan > 0;
      const auto gathered = first_arc(threshold, all);
      ASSERT_EQ(gathered.part, want.part) << "gathered v=" << v;
      ASSERT_EQ(gathered.conn, want.conn) << "gathered v=" << v;

      const auto got_f =
          cache.best_destination(g, where, v, threshold, even_only);
      const auto want_f =
          best_destination_full_scan(g, where, v, pv, threshold, even_only);
      ASSERT_EQ(got_f.part, want_f.part) << "filtered v=" << v;
      ASSERT_EQ(got_f.conn, want_f.conn) << "filtered v=" << v;
      const auto gathered_f = first_arc(threshold, even_only);
      ASSERT_EQ(gathered_f.part, want_f.part) << "gathered filtered v=" << v;
      ASSERT_EQ(gathered_f.conn, want_f.conn) << "gathered filtered v=" << v;
    }
    for (const part_t q : parts) conn[static_cast<std::size_t>(q)] = 0;
  }
  // The scenario is built to produce ties; if none occurred the tie-break
  // fallback went untested and the fixture needs retuning.
  EXPECT_GT(ties_seen, 0u);
}

}  // namespace
}  // namespace gp
