// Tests for src/mt: two-round lock-free matching, parallel contraction
// (vs the serial reference), parallel initial partitioning, buffered
// refinement, and the full shared-memory driver.
#include <gtest/gtest.h>

#include "core/matching.hpp"
#include "core/partitioner.hpp"
#include "gen/generators.hpp"
#include "mt/mt_contract.hpp"
#include "mt/mt_initpart.hpp"
#include "mt/mt_matching.hpp"
#include "mt/mt_partitioner.hpp"
#include "mt/mt_refine.hpp"
#include "serial/rb_partition.hpp"

namespace gp {
namespace {

struct PoolCtx {
  ThreadPool pool;
  CostLedger ledger;
  MtContext ctx;
  explicit PoolCtx(int threads, std::uint64_t seed = 1)
      : pool(threads), ctx{&pool, &ledger, seed} {}
};

class MtMatchThreads : public ::testing::TestWithParam<int> {};

TEST_P(MtMatchThreads, AlwaysValidAfterConflictResolution) {
  // The core property of the paper's lock-free scheme: whatever races
  // happen in round 1, round 2 restores a valid involution.
  PoolCtx pc(GetParam());
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    pc.ctx.seed = seed + 1;
    const auto g = delaunay_graph(3000, seed);
    MtMatchStats st;
    const auto m = mt_match(g, pc.ctx, 0, &st);
    ASSERT_TRUE(validate_match(m.match).empty());
    ASSERT_TRUE(validate_cmap(m.match, m.cmap, m.n_coarse).empty());
    // The matching must actually shrink the graph substantially.
    EXPECT_LT(m.n_coarse, static_cast<vid_t>(0.75 * 3000));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, MtMatchThreads,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(MtMatch, SingleThreadHasNoConflicts) {
  PoolCtx pc(1);
  const auto g = grid2d_graph(40, 40);
  MtMatchStats st;
  (void)mt_match(g, pc.ctx, 0, &st);
  // One thread can never race with itself in round 1... but it CAN create
  // "conflicts" with itself when a later vertex re-matches an earlier
  // match? No: round 1 checks match[u] == invalid before writing, and a
  // single thread's writes are immediately visible to itself.
  EXPECT_EQ(st.conflicts, 0u);
}

TEST(MtContract, MatchesSerialReference) {
  PoolCtx pc(4);
  const auto g = delaunay_graph(2000, 3);
  const auto m = mt_match(g, pc.ctx, 0);
  ASSERT_TRUE(validate_match(m.match).empty());
  const auto par = mt_contract(g, m, pc.ctx, 0);
  const auto ser = contract_serial(g, m.match, m.cmap, m.n_coarse);
  EXPECT_TRUE(par.validate().empty()) << par.validate();
  EXPECT_EQ(par.adjp(), ser.adjp());
  EXPECT_EQ(par.adjncy(), ser.adjncy());
  EXPECT_EQ(par.adjwgt(), ser.adjwgt());
  EXPECT_EQ(par.vwgt(), ser.vwgt());
}

TEST(MtContract, WeightConservation) {
  PoolCtx pc(8);
  const auto g = fem_slab_graph(10, 14, 4);
  const auto m = mt_match(g, pc.ctx, 0);
  const auto c = mt_contract(g, m, pc.ctx, 0);
  EXPECT_EQ(c.total_vertex_weight(), g.total_vertex_weight());
  EXPECT_LE(c.total_arc_weight(), g.total_arc_weight());
}

TEST(MtInitPart, BalancedKParts) {
  PoolCtx pc(8);
  const auto g = grid2d_graph(40, 40);
  const auto p = mt_initial_partition(g, 8, 0.05, pc.ctx);
  EXPECT_TRUE(validate_partition(g, p).empty());
  auto pw = partition_weights(g, p);
  for (const auto w : pw) EXPECT_GT(w, 0);
  EXPECT_LE(partition_balance(g, p), 1.35);
}

TEST(MtInitPart, BestOfThreadsNotWorseThanSingleTrialTypically) {
  // Statistical: 8-trial best-of should beat the median single trial.
  const auto g = delaunay_graph(1500, 5);
  PoolCtx many(8, 1);
  const auto p8 = mt_initial_partition(g, 4, 0.05, many.ctx);
  wgt_t single_sum = 0;
  for (std::uint64_t s = 1; s <= 5; ++s) {
    PoolCtx one(1, s * 13);
    const auto p1 = mt_initial_partition(g, 4, 0.05, one.ctx);
    single_sum += edge_cut(g, p1);
  }
  EXPECT_LE(edge_cut(g, p8), single_sum / 5 + 30);
}

TEST(MtRefine, ImprovesCutKeepsBalance) {
  PoolCtx pc(4);
  const auto g = grid2d_graph(32, 32);
  Rng rng(2);
  Partition p = recursive_bisection(g, 8, 0.03, rng);
  const wgt_t before = edge_cut(g, p);
  // Perturb: move a band of vertices to the wrong part.
  for (vid_t v = 100; v < 160; ++v) p.where[static_cast<std::size_t>(v)] = 0;
  const wgt_t perturbed = edge_cut(g, p);
  ASSERT_GT(perturbed, before);
  auto st = mt_refine(g, p, 0.08, 8, pc.ctx, 0);
  EXPECT_TRUE(validate_partition(g, p).empty());
  EXPECT_LT(st.cut_after, perturbed);
  const wgt_t maxw = max_part_weight(g.total_vertex_weight(), 8, 0.08);
  for (const auto w : partition_weights(g, p)) EXPECT_LE(w, maxw);
}

TEST(MtRefine, CarriedCacheMatchesRebuild) {
  // The explore threads' delta buffers are replayed into the carried
  // cache at every pass barrier; after the run the cache must equal a
  // fresh build against the final labels, at any pool size.
  const CsrGraph graphs[] = {road_network_graph(4000, 1),
                             fem_slab_graph(10, 14, 4)};
  for (const CsrGraph& g : graphs) {
    for (const int threads : {1, 2, 3, 8}) {
      SCOPED_TRACE("n=" + std::to_string(g.num_vertices()) +
                   " threads=" + std::to_string(threads));
      PoolCtx pc(threads);
      Rng rng(2);
      Partition p = recursive_bisection(g, 8, 0.03, rng);
      for (vid_t v = 100; v < 160; ++v) {
        p.where[static_cast<std::size_t>(v)] = 0;
      }
      GainCache cache;
      cache.build(g, p.where, p.k);
      const auto st = mt_refine(g, p, 0.08, 8, pc.ctx, 0, true, &cache);
      ASSERT_GT(st.committed, 0u);
      EXPECT_TRUE(validate_partition(g, p).empty());
      EXPECT_EQ(cache.compare_to_rebuild(g, p.where), "");
    }
  }
}

TEST(MtRefine, TerminatesOnIdlePass) {
  PoolCtx pc(2);
  const auto g = grid2d_graph(16, 16);
  Rng rng(4);
  Partition p = recursive_bisection(g, 4, 0.03, rng);
  auto st = mt_refine(g, p, 0.03, 50, pc.ctx, 0);
  // Must stop long before 50 passes on an already-good partition.
  EXPECT_LT(st.passes, 10);
}

class MtDriverThreads : public ::testing::TestWithParam<int> {};

TEST_P(MtDriverThreads, FullPipelineValid) {
  const auto g = delaunay_graph(6000, 7);
  PartitionOptions opts;
  opts.k = 16;
  opts.threads = GetParam();
  const auto r = MtMetisPartitioner().run(g, opts);
  EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty());
  EXPECT_EQ(r.cut, edge_cut(g, r.partition));
  EXPECT_LE(r.balance, 1.35);
  EXPECT_GT(r.coarsen_levels, 1);
  for (const auto w : partition_weights(g, r.partition)) EXPECT_GT(w, 0);
}

INSTANTIATE_TEST_SUITE_P(Threads, MtDriverThreads, ::testing::Values(1, 4, 8));

TEST(MtDriver, QualityComparableToSerial) {
  // Table III's premise: the parallel partitioners land within ~15% of
  // serial Metis.  Allow slack for the small test instance.
  const auto g = grid2d_graph(64, 64);
  PartitionOptions opts;
  opts.k = 8;
  const auto serial = make_serial_partitioner()->run(g, opts);
  const auto mt = MtMetisPartitioner().run(g, opts);
  EXPECT_LT(static_cast<double>(mt.cut),
            1.6 * static_cast<double>(serial.cut) + 50.0);
}

TEST(MtDriver, ModeledTimeBeatSerialOnBigGraph) {
  // The whole point of mt-metis: with 8 modeled cores it must be several
  // times faster than the serial baseline on a sizable graph.
  const auto g = delaunay_graph(30000, 9);
  PartitionOptions opts;
  opts.k = 16;
  const auto serial = make_serial_partitioner()->run(g, opts);
  const auto mt = MtMetisPartitioner().run(g, opts);
  EXPECT_LT(mt.modeled_seconds, serial.modeled_seconds / 2.0);
}

TEST(MtDriver, FactoryName) {
  EXPECT_EQ(make_mt_partitioner()->name(), "mt-metis");
}

TEST(MtDriver, RoadNetworkBalanceAcrossSeeds) {
  // Regression: refinement used to stop after one idle *direction* pass,
  // occasionally leaving a part 2.5x overweight on road networks (long
  // chains drain slowly).  Both the two-idle-pass rule and the stretched
  // pass budget must hold the constraint across seeds.
  const auto g = road_network_graph(60000, 5);
  const wgt_t maxw = max_part_weight(g.total_vertex_weight(), 64, 0.03);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    PartitionOptions opts;
    opts.k = 64;
    opts.seed = seed;
    const auto r = MtMetisPartitioner().run(g, opts);
    ASSERT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty()) << seed;
    for (const auto w : partition_weights(g, r.partition)) {
      EXPECT_LE(w, maxw) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace gp
