// Tests for two_hop_match (core/matching): METIS-style 2-hop matching of
// self-matched vertices that share a neighbour, run by the mt-metis and
// parmetis matchers after their heavy-edge rounds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/matching.hpp"
#include "gen/generators.hpp"
#include "mt/mt_matching.hpp"
#include "serial/hem_matching.hpp"

namespace gp {
namespace {

std::vector<vid_t> identity_match(vid_t n) {
  std::vector<vid_t> match(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) match[static_cast<std::size_t>(v)] = v;
  return match;
}

bool share_neighbour(const CsrGraph& g, vid_t a, vid_t b) {
  for (const vid_t x : g.neighbors(a)) {
    for (const vid_t y : g.neighbors(b)) {
      if (x == y) return true;
    }
  }
  return false;
}

TEST(TwoHop, StarLeavesLeftByHemPairUp) {
  GraphBuilder b(6);
  for (vid_t leaf = 1; leaf <= 5; ++leaf) b.add_edge(0, leaf);
  const CsrGraph g = b.build();
  Rng rng(1);
  MatchResult m = hem_match_serial(g, rng);
  // HEM pairs the centre with one leaf; the other four have no free
  // neighbour left.
  ASSERT_EQ(m.n_coarse, 5);

  const std::uint64_t arcs =
      two_hop_match(g, m.match, 0, 6, two_hop_weight_cap(g, 1));
  EXPECT_EQ(arcs, 4u) << "each leftover leaf reads its one arc";
  ASSERT_TRUE(validate_match(m.match).empty());
  const auto [cmap, n_coarse] = build_cmap_serial(m.match);
  EXPECT_EQ(n_coarse, 3);
  EXPECT_TRUE(validate_cmap(m.match, cmap, n_coarse).empty());
}

TEST(TwoHop, PairOverTheWeightCapIsRefused) {
  // Leaves 1 and 2 weigh 5, leaf 3 weighs 1; the cap is 6.
  GraphBuilder b(4);
  b.set_vertex_weight(1, 5);
  b.set_vertex_weight(2, 5);
  for (vid_t leaf = 1; leaf <= 3; ++leaf) b.add_edge(0, leaf);
  const CsrGraph g = b.build();
  std::vector<vid_t> match = identity_match(4);
  (void)two_hop_match(g, match, 0, 4, 6);
  // {1, 2} (weight 10) is refused; 1 waits and pairs with 3 (weight 6).
  EXPECT_EQ(match, (std::vector<vid_t>{0, 3, 2, 1}));

  match = identity_match(4);
  (void)two_hop_match(g, match, 0, 4, 5);
  EXPECT_EQ(match, identity_match(4)) << "every pair is over a cap of 5";
}

TEST(TwoHop, WritesOnlyLeftoversInsideTheRange) {
  const CsrGraph g = road_network_graph(4000, 3);
  const vid_t n = g.num_vertices();
  std::vector<vid_t> match = identity_match(n);
  // Some vertices inside the range are already matched.
  for (vid_t v = n / 4; v + 1 < 3 * n / 4; v += 10) {
    match[static_cast<std::size_t>(v)] = v + 1;
    match[static_cast<std::size_t>(v) + 1] = v;
  }
  const std::vector<vid_t> before = match;
  const vid_t begin = n / 4, end = 3 * n / 4;
  EXPECT_GT(two_hop_match(g, match, begin, end, g.total_vertex_weight()),
            0u);

  vid_t paired = 0;
  for (vid_t v = 0; v < n; ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (v < begin || v >= end || before[i] != v) {
      ASSERT_EQ(match[i], before[i]) << "wrote vertex " << v;
    } else if (match[i] != v) {
      ++paired;
      ASSERT_GE(match[i], begin);
      ASSERT_LT(match[i], end);
      ASSERT_TRUE(share_neighbour(g, v, match[i])) << v << " " << match[i];
    }
  }
  EXPECT_GT(paired, 0);
  EXPECT_TRUE(validate_match(match).empty());
}

TEST(TwoHop, OutputIsAnInvolutionWithAValidCmap) {
  const CsrGraph g = rmat_graph(11, 8192, 7);
  Rng rng(3);
  MatchResult m = hem_match_serial(g, rng);
  const wgt_t cap = two_hop_weight_cap(g, 240);
  (void)two_hop_match(g, m.match, 0, g.num_vertices(), cap);
  ASSERT_TRUE(validate_match(m.match).empty());
  const auto [cmap, n_coarse] = build_cmap_serial(m.match);
  EXPECT_LT(n_coarse, m.n_coarse) << "2-hop found no pair on RMAT";
  EXPECT_TRUE(validate_cmap(m.match, cmap, n_coarse).empty());
  const CsrGraph coarse = contract_serial(g, m.match, cmap, n_coarse);
  EXPECT_TRUE(coarse.validate().empty());
}

TEST(TwoHop, GateClosedAtTenPercentLeavesMatchUntouched) {
  // A 10x10 grid matched in horizontal pairs, then 5 pairs dissolved:
  // exactly 10% of the vertices are left over.
  const CsrGraph g = grid2d_graph(10, 10);
  std::vector<vid_t> match(100);
  for (vid_t v = 0; v < 100; ++v) {
    match[static_cast<std::size_t>(v)] = v % 2 == 0 ? v + 1 : v - 1;
  }
  for (vid_t row = 0; row < 5; ++row) {
    const vid_t v = 20 * row;  // rows 0, 2, 4, 6, 8: dissolve (v, v+1)
    match[static_cast<std::size_t>(v)] = v;
    match[static_cast<std::size_t>(v) + 1] = v + 1;
  }
  const std::vector<vid_t> before = match;
  EXPECT_EQ(two_hop_match(g, match, 0, 100, 100), 0u);
  EXPECT_EQ(match, before);

  // One more leftover pair opens the gate.
  match[10] = 10;
  match[11] = 11;
  EXPECT_GT(two_hop_match(g, match, 0, 100, 100), 0u);
  EXPECT_TRUE(validate_match(match).empty());
}

bool has_two_hop_row(const CostLedger& ledger) {
  for (const CostEntry& e : ledger.entries()) {
    if (e.label.find("coarsen/match/twohop/") != std::string::npos) {
      return true;
    }
  }
  return false;
}

class TwoHopPool : public ::testing::TestWithParam<int> {};

TEST_P(TwoHopPool, MtWorkersPairTheirOwnBlocksOnRoadNetworks) {
  // mt_match round 1 strands the road chains' bridge vertices; 2-hop
  // pairs them, one pool worker per static block, charged as one pass.
  // Non-power-of-two pools cover round 2's padded leftover rows.
  const CsrGraph g = road_network_graph(20000, 1);
  ThreadPool pool(GetParam());
  CostLedger plain_ledger, ledger;
  const MtContext plain_ctx{&pool, &plain_ledger, 1};
  const MtContext ctx{&pool, &ledger, 1};
  const MatchResult plain = mt_match(g, plain_ctx, 0);
  const MatchResult m = mt_match(g, ctx, 0, nullptr,
                                 two_hop_weight_cap(g, 30 * 64));
  ASSERT_TRUE(validate_match(m.match).empty());
  ASSERT_TRUE(validate_cmap(m.match, m.cmap, m.n_coarse).empty());
  EXPECT_LT(m.n_coarse, plain.n_coarse);
  EXPECT_TRUE(has_two_hop_row(ledger));
  EXPECT_FALSE(has_two_hop_row(plain_ledger));
}

INSTANTIATE_TEST_SUITE_P(Pools, TwoHopPool, ::testing::Values(2, 3, 4, 8));

TEST(TwoHop, MtLevelWithGateClosedAddsNoPass) {
  // Disjoint edges: heavy-edge matching pairs every vertex.
  GraphBuilder b(1000);
  for (vid_t v = 0; v < 1000; v += 2) b.add_edge(v, v + 1);
  const CsrGraph g = b.build();
  ThreadPool pool(4);
  CostLedger ledger;
  const MtContext ctx{&pool, &ledger, 1};
  const MatchResult m = mt_match(g, ctx, 0, nullptr, 1000);
  EXPECT_EQ(m.n_coarse, 500);
  EXPECT_FALSE(has_two_hop_row(ledger));
}

}  // namespace
}  // namespace gp
