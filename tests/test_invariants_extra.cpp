// Additional cross-module invariants: per-channel FIFO delivery in the
// simulated comm layer (a DESIGN.md §6 commitment), coarsening-trace
// monotonicity, mt-contract determinism for a fixed match, weighted
// recursive bisection, and generator performance sanity.
#include <gtest/gtest.h>

#include "core/matching.hpp"
#include "core/partitioner.hpp"
#include "gen/generators.hpp"
#include "mt/mt_contract.hpp"
#include "mt/mt_matching.hpp"
#include "par/comm.hpp"
#include "serial/hem_matching.hpp"
#include "serial/metis_partitioner.hpp"
#include "serial/rb_partition.hpp"
#include "util/timer.hpp"

namespace gp {
namespace {

TEST(SimComm, FifoPerChannel) {
  // Rank 0 sends 50 numbered messages to rank 1 in one superstep; they
  // must arrive in send order.
  ThreadPool pool(2);
  SimComm comm(2, pool, nullptr);
  comm.superstep("send", [&](int r, Mailbox& mb) -> std::uint64_t {
    if (r == 0) {
      for (int i = 0; i < 50; ++i) mb.send(1, std::vector<int>{i});
    }
    return 1;
  });
  comm.superstep("recv", [&](int r, Mailbox& mb) -> std::uint64_t {
    if (r == 1) {
      EXPECT_EQ(mb.inbox().size(), 50u);
      const int limit = static_cast<int>(std::min<std::size_t>(
          50, mb.inbox().size()));
      for (int i = 0; i < limit; ++i) {
        EXPECT_EQ(mb.inbox()[static_cast<std::size_t>(i)].as<int>()[0], i);
      }
    }
    return 1;
  });
}

TEST(CoarseningTrace, StrictlyShrinking) {
  // Every driver reports one trace entry per level, finest first; gp-metis's
  // covers its GPU levels and the CPU middle phase's levels after them.
  const auto g = delaunay_graph(20000, 3);
  PartitionOptions opts;
  opts.k = 16;
  opts.gpu_cpu_threshold = 2000;
  for (const auto& make :
       {&make_serial_partitioner, &make_mt_partitioner, &make_par_partitioner,
        &make_hybrid_partitioner, &make_multi_gpu_partitioner}) {
    const auto sys = make();
    SCOPED_TRACE(sys->name());
    const auto r = sys->run(g, opts);
    ASSERT_GE(r.levels.size(), 2u);
    EXPECT_EQ(r.levels.front().vertices, g.num_vertices());
    EXPECT_EQ(r.levels.back().vertices, r.coarsest_vertices);
    for (std::size_t i = 1; i < r.levels.size(); ++i) {
      EXPECT_LT(r.levels[i].vertices, r.levels[i - 1].vertices);
      EXPECT_LE(r.levels[i].edges, r.levels[i - 1].edges);
    }
    EXPECT_EQ(static_cast<int>(r.levels.size()) - 1, r.coarsen_levels);
  }
}

TEST(MtContract, DeterministicForFixedMatch) {
  // Given the same (match, cmap), the parallel contraction must be
  // bit-identical run to run regardless of worker scheduling.
  const auto g = fem_slab_graph(10, 12, 4);
  Rng rng(5);
  const auto m = hem_match_serial(g, rng);
  MatchResult mr;
  mr.match = m.match;
  mr.cmap = m.cmap;
  mr.n_coarse = m.n_coarse;
  ThreadPool pool(8);
  MtContext ctx{&pool, nullptr, 1};
  const auto a = mt_contract(g, mr, ctx, 0);
  const auto b = mt_contract(g, mr, ctx, 0);
  EXPECT_EQ(a.adjp(), b.adjp());
  EXPECT_EQ(a.adjncy(), b.adjncy());
  EXPECT_EQ(a.adjwgt(), b.adjwgt());
}

TEST(RecursiveBisection, WeightedGraphTargetsWeightNotCount) {
  // 3 heavy vertices (weight 10) + 30 light (weight 1): a 2-way split
  // must put roughly half the WEIGHT on each side, not half the count.
  GraphBuilder b(33);
  for (vid_t v = 0; v < 3; ++v) b.set_vertex_weight(v, 10);
  for (vid_t v = 0; v + 1 < 33; ++v) b.add_edge(v, v + 1);
  const auto g = b.build();
  Rng rng(2);
  const auto p = recursive_bisection(g, 2, 0.10, rng);
  const auto pw = partition_weights(g, p);
  const wgt_t total = g.total_vertex_weight();  // 60
  EXPECT_NEAR(static_cast<double>(pw[0]), static_cast<double>(total) / 2,
              static_cast<double>(total) * 0.25);
}

TEST(Generators, DelaunayScalesNearLinearly) {
  // The Morton-ordered incremental construction should be ~O(n): 60k
  // points must come in well under 10x the 6k-point time (allow noise).
  WallTimer t1;
  (void)delaunay_graph(6000, 1);
  const double small = t1.seconds();
  WallTimer t2;
  (void)delaunay_graph(60000, 1);
  const double big = t2.seconds();
  EXPECT_LT(big, std::max(0.5, 40.0 * small));  // catastrophic blowup guard
}

TEST(Coarsening, HeavyEdgeWeightsAccumulateCorrectly) {
  // After one contraction of a uniform-weight graph, coarse edge weights
  // count the fine multi-edges: total arc weight conservation law.
  const auto g = bubble_mesh_graph(5000, 4, 8);
  Rng rng(3);
  const auto m = hem_match_serial(g, rng);
  const auto c = contract_serial(g, m.match, m.cmap, m.n_coarse);
  wgt_t matched_w2 = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const vid_t mate = m.match[static_cast<std::size_t>(v)];
    if (mate == v) continue;
    const auto nbrs = g.neighbors(v);
    const auto wts = g.neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] == mate) matched_w2 += wts[i];
    }
  }
  EXPECT_EQ(c.total_arc_weight(), g.total_arc_weight() - matched_w2);
  EXPECT_EQ(c.total_vertex_weight(), g.total_vertex_weight());
}

TEST(ProjectionInvariant, CutUnchangedBeforeRefinement) {
  // DESIGN §6: projection preserves the edge cut exactly.
  const auto g = delaunay_graph(3000, 6);
  Rng rng(4);
  const auto m = hem_match_serial(g, rng);
  const auto c = contract_serial(g, m.match, m.cmap, m.n_coarse);
  const auto coarse_p = recursive_bisection(c, 8, 0.05, rng);
  Partition fine_p{8, project_partition(m.cmap, coarse_p.where)};
  EXPECT_EQ(edge_cut(c, coarse_p), edge_cut(g, fine_p));
}

}  // namespace
}  // namespace gp
