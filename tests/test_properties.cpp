// Cross-cutting property tests: every partitioner on every graph family
// and seed must produce valid, balanced partitions; permutation
// invariance; weighted-graph handling; cut-accounting consistency.
#include <gtest/gtest.h>

#include "core/graph_ops.hpp"
#include "core/partitioner.hpp"
#include "gen/generators.hpp"
#include "serial/kway_refine.hpp"
#include "serial/rb_partition.hpp"

namespace gp {
namespace {

struct FuzzCase {
  const char* family;
  std::uint64_t seed;
};

class PartitionerFuzz
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

CsrGraph make_family(const std::string& family, std::uint64_t seed) {
  if (family == "er") return erdos_renyi_graph(2000, 6000, seed);
  if (family == "rmat") return rmat_graph(11, 6000, seed);
  if (family == "delaunay") return delaunay_graph(2000, seed);
  if (family == "grid") return grid2d_graph(40 + static_cast<vid_t>(seed % 7), 45);
  if (family == "road") return road_network_graph(4000, seed);
  if (family == "bubble") return bubble_mesh_graph(4000, 4, seed);
  if (family == "fem") return fem_slab_graph(8 + static_cast<vid_t>(seed % 3), 12, 4);
  throw std::logic_error("bad family");
}

TEST_P(PartitionerFuzz, AllSystemsAlwaysValid) {
  const auto [family, seed_int] = GetParam();
  const auto seed = static_cast<std::uint64_t>(seed_int);
  const auto g = make_family(family, seed);
  ASSERT_TRUE(g.validate().empty()) << family << ": " << g.validate();

  std::vector<std::unique_ptr<Partitioner>> systems;
  systems.push_back(make_serial_partitioner());
  systems.push_back(make_mt_partitioner());
  systems.push_back(make_par_partitioner());
  systems.push_back(make_hybrid_partitioner());
  systems.push_back(make_multi_gpu_partitioner());

  for (const auto& sys : systems) {
    PartitionOptions opts;
    opts.k = 8;
    opts.seed = seed + 1;
    opts.gpu_cpu_threshold = 512;  // force GPU phases even on small inputs
    const auto r = sys->run(g, opts);
    ASSERT_TRUE(validate_partition(g, r.partition).empty())
        << family << "/" << sys->name();
    EXPECT_EQ(r.cut, edge_cut(g, r.partition)) << family << "/" << sys->name();
    EXPECT_GE(r.modeled_seconds, 0.0);
    // Every part populated (k << n on all families here).
    for (const auto w : partition_weights(g, r.partition)) {
      EXPECT_GT(w, 0) << family << "/" << sys->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, PartitionerFuzz,
    ::testing::Combine(::testing::Values("er", "rmat", "delaunay", "grid",
                                         "road", "bubble", "fem"),
                       ::testing::Values(1, 2)));

TEST(Properties, CutIsPermutationInvariant) {
  const auto g = delaunay_graph(1500, 4);
  Rng rng(9);
  const auto p = recursive_bisection(g, 8, 0.05, rng);
  const wgt_t cut = edge_cut(g, p);

  // Random relabeling: same partition expressed on the permuted graph
  // must have the same cut and balance.
  std::vector<vid_t> perm(static_cast<std::size_t>(g.num_vertices()));
  for (vid_t v = 0; v < g.num_vertices(); ++v) perm[static_cast<std::size_t>(v)] = v;
  Rng shuffler(10);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[shuffler.next_below(i)]);
  }
  const auto h = permute(g, perm);
  Partition q;
  q.k = p.k;
  q.where.resize(p.where.size());
  for (std::size_t v = 0; v < perm.size(); ++v) {
    q.where[static_cast<std::size_t>(perm[v])] = p.where[v];
  }
  EXPECT_EQ(edge_cut(h, q), cut);
  EXPECT_DOUBLE_EQ(partition_balance(h, q), partition_balance(g, p));
  EXPECT_EQ(communication_volume(h, q), communication_volume(g, p));
}

TEST(Properties, WeightedVerticesRespectWeightedBalance) {
  // Power-of-two vertex weights: balance must be computed on weights,
  // not counts.
  GraphBuilder b(64);
  Rng rng(3);
  for (vid_t v = 0; v < 64; ++v) {
    b.set_vertex_weight(v, 1 + static_cast<wgt_t>(rng.next_below(8)));
  }
  for (vid_t v = 0; v < 64; ++v) {
    for (vid_t u = v + 1; u < 64; ++u) {
      if (rng.next_double() < 0.15) b.add_edge(v, u);
    }
  }
  const auto g = b.build();
  for (const auto& make :
       {make_serial_partitioner, make_mt_partitioner, make_hybrid_partitioner}) {
    const auto sys = make();
    PartitionOptions opts;
    opts.k = 4;
    opts.eps = 0.10;
    const auto r = sys->run(g, opts);
    ASSERT_TRUE(validate_partition(g, r.partition).empty()) << sys->name();
    const wgt_t maxw = max_part_weight(g.total_vertex_weight(), 4, 0.10);
    for (const auto w : partition_weights(g, r.partition)) {
      EXPECT_LE(w, maxw + 7) << sys->name();  // +max vwgt-1 integral slack
    }
  }
}

TEST(Properties, WeightedEdgesDriveTheCut) {
  // Two cliques joined by one light bridge vs heavy internal edges: every
  // partitioner must cut the bridge, not the cliques.
  GraphBuilder b(16);
  for (vid_t v = 0; v < 8; ++v)
    for (vid_t u = v + 1; u < 8; ++u) b.add_edge(v, u, 100);
  for (vid_t v = 8; v < 16; ++v)
    for (vid_t u = v + 1; u < 16; ++u) b.add_edge(v, u, 100);
  b.add_edge(3, 12, 1);  // the bridge
  const auto g = b.build();
  for (const auto& make :
       {make_serial_partitioner, make_mt_partitioner, make_par_partitioner,
        make_hybrid_partitioner}) {
    const auto sys = make();
    PartitionOptions opts;
    opts.k = 2;
    const auto r = sys->run(g, opts);
    EXPECT_EQ(r.cut, 1) << sys->name();
  }
}

TEST(Properties, RefinementCutAccountingConsistent) {
  // kway_refine_serial's internal bookkeeping must agree with the direct
  // recount on every family.
  for (const char* family : {"er", "delaunay", "road"}) {
    const auto g = make_family(family, 5);
    Partition p;
    p.k = 6;
    p.where.resize(static_cast<std::size_t>(g.num_vertices()));
    Rng rng(6);
    for (auto& w : p.where) w = static_cast<part_t>(rng.next_below(6));
    auto st = kway_refine_serial(g, p, 0.10, 6);
    EXPECT_EQ(st.cut_after, edge_cut(g, p)) << family;
    EXPECT_LE(st.cut_after, st.cut_before) << family;
  }
}

TEST(Properties, OddKRecursiveBisectionSplitsPerMetisRule) {
  // Non-power-of-two k: every bisection node splits its k' parts as
  // k0 = ceil(k'/2) to the left and k' - k0 to the right, targeting
  // total * k0 / k' vertex weight on the left (Metis' k-odd rule).  The
  // result must have exactly k non-empty parts, with the left half's
  // aggregate weight on target within the level-tightened eps window.
  const double eps = 0.03;
  for (const part_t k : {3, 5, 6, 7, 12}) {
    for (const std::uint64_t seed : {1ULL, 4ULL}) {
      const CsrGraph g = delaunay_graph(2500, seed);
      Rng rng(seed * 13 + static_cast<std::uint64_t>(k));
      const Partition p = recursive_bisection(g, k, eps, rng);
      ASSERT_EQ(p.k, k);
      EXPECT_TRUE(validate_partition(g, p).empty()) << "k=" << k;

      const auto weights = partition_weights(g, p);
      ASSERT_EQ(weights.size(), static_cast<std::size_t>(k));
      for (part_t i = 0; i < k; ++i) {
        EXPECT_GT(weights[static_cast<std::size_t>(i)], 0)
            << "empty part " << i << " at k=" << k;
      }

      // Root split: parts [0, k0) came from the left subtree.
      const part_t k0 = (k + 1) / 2;
      wgt_t left = 0;
      for (part_t i = 0; i < k0; ++i) left += weights[static_cast<std::size_t>(i)];
      const wgt_t total = g.total_vertex_weight();
      const double target = static_cast<double>(total) * k0 / k;
      EXPECT_NEAR(static_cast<double>(left), target,
                  static_cast<double>(total) * eps + k)
          << "k=" << k << " seed=" << seed;
    }
  }
}

TEST(Properties, SeedChangesResultButNotValidity) {
  const auto g = delaunay_graph(3000, 1);
  PartitionOptions a, b;
  a.k = b.k = 8;
  a.seed = 1;
  b.seed = 2;
  const auto ra = make_serial_partitioner()->run(g, a);
  const auto rb = make_serial_partitioner()->run(g, b);
  EXPECT_TRUE(validate_partition(g, ra.partition).empty());
  EXPECT_TRUE(validate_partition(g, rb.partition).empty());
  EXPECT_NE(ra.partition.where, rb.partition.where);
  // Quality should not swing wildly with the seed.
  const double ratio = static_cast<double>(std::max(ra.cut, rb.cut)) /
                       static_cast<double>(std::max<wgt_t>(1, std::min(ra.cut, rb.cut)));
  EXPECT_LT(ratio, 1.5);
}

}  // namespace
}  // namespace gp
