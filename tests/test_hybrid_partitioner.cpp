// Tests for src/hybrid: the GPU matching / cmap / contraction / projection
// / refinement kernels and the full GP-metis driver.
#include <gtest/gtest.h>

#include "core/matching.hpp"
#include "core/partitioner.hpp"
#include "gen/generators.hpp"
#include "hybrid/gp_partitioner.hpp"
#include "hybrid/gpu_contract.hpp"
#include "hybrid/gpu_matching.hpp"
#include "hybrid/gpu_refine.hpp"
#include "serial/rb_partition.hpp"

namespace gp {
namespace {

class GpuMatchThreads : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(GpuMatchThreads, InvolutionAndCmapAfterConflictResolution) {
  Device dev;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto g = delaunay_graph(3000, seed);
    auto gg = GpuGraph::upload(dev, g, "t");
    auto m = gpu_match(dev, gg, 0, seed + 1, GetParam(),
                       GpuScanMode::kBlocked);
    const auto match = m.match.d2h_vector();
    const auto cmap = m.cmap.d2h_vector();
    ASSERT_TRUE(validate_match(match).empty()) << validate_match(match);
    ASSERT_TRUE(validate_cmap(match, cmap, m.n_coarse).empty())
        << validate_cmap(match, cmap, m.n_coarse);
    EXPECT_LT(m.n_coarse, static_cast<vid_t>(0.75 * 3000));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, GpuMatchThreads,
                         ::testing::Values(1, 32, 1024, 16384));

TEST(GpuMatch, CmapPipelineMatchesSerialReference) {
  // The 4-kernel prefix-sum cmap must agree exactly with the canonical
  // serial construction for the same match array.
  Device dev;
  const auto g = grid2d_graph(50, 50);
  auto gg = GpuGraph::upload(dev, g, "t");
  auto m = gpu_match(dev, gg, 0, 9, 4096, GpuScanMode::kBlocked);
  const auto match = m.match.d2h_vector();
  const auto [ref_cmap, ref_nc] = build_cmap_serial(match);
  EXPECT_EQ(m.cmap.d2h_vector(), ref_cmap);
  EXPECT_EQ(m.n_coarse, ref_nc);
}

class GpuContractMode : public ::testing::TestWithParam<bool> {};

TEST_P(GpuContractMode, MatchesSerialReference) {
  // Both merge strategies (hash table and sort-merge) must reproduce the
  // serial contraction bit-for-bit.
  Device dev;
  const auto g = delaunay_graph(2500, 4);
  auto gg = GpuGraph::upload(dev, g, "t");
  auto m = gpu_match(dev, gg, 0, 5, 2048, GpuScanMode::kBlocked);
  const auto match = m.match.d2h_vector();
  const auto cmap = m.cmap.d2h_vector();
  ASSERT_TRUE(validate_match(match).empty());

  GpuContractStats st;
  const auto coarse = gpu_contract(dev, gg, m.match, m.cmap, m.n_coarse, 0,
                                   2048, GetParam(), GpuScanMode::kBlocked,
                                   &st)
                          .download();
  const auto ref = contract_serial(g, match, cmap, m.n_coarse);
  EXPECT_TRUE(coarse.validate().empty()) << coarse.validate();
  EXPECT_EQ(coarse.adjp(), ref.adjp());
  EXPECT_EQ(coarse.adjncy(), ref.adjncy());
  EXPECT_EQ(coarse.adjwgt(), ref.adjwgt());
  EXPECT_EQ(coarse.vwgt(), ref.vwgt());
  EXPECT_GE(st.temp_entries, st.final_entries);
}

INSTANTIATE_TEST_SUITE_P(Merge, GpuContractMode,
                         ::testing::Values(true, false));

TEST(GpuContract, TempArraysFreedAfterContraction) {
  Device dev;
  const auto g = grid2d_graph(40, 40);
  const auto before = dev.allocated_bytes();
  auto gg = GpuGraph::upload(dev, g, "t");
  auto m = gpu_match(dev, gg, 0, 7, 1024, GpuScanMode::kBlocked);
  auto coarse = gpu_contract(dev, gg, m.match, m.cmap, m.n_coarse, 0, 1024,
                             true, GpuScanMode::kBlocked, nullptr);
  // Only the fine graph, match/cmap, and the coarse graph remain.
  const auto expected = before + gg.bytes() + coarse.bytes() +
                        2 * static_cast<std::size_t>(g.num_vertices()) *
                            sizeof(vid_t);
  EXPECT_EQ(dev.allocated_bytes(), expected);
}

TEST(GpuProject, ProjectsThroughCmap) {
  Device dev;
  const auto g = grid2d_graph(30, 30);
  auto gg = GpuGraph::upload(dev, g, "t");
  auto m = gpu_match(dev, gg, 0, 3, 512, GpuScanMode::kBlocked);
  const auto cmap = m.cmap.d2h_vector();
  std::vector<part_t> coarse_where(static_cast<std::size_t>(m.n_coarse));
  for (std::size_t i = 0; i < coarse_where.size(); ++i) {
    coarse_where[i] = static_cast<part_t>(i % 4);
  }
  DeviceBuffer<part_t> dcw(dev, coarse_where.size(), "cw");
  dcw.h2d(coarse_where);
  DeviceBuffer<part_t> dfw(dev, static_cast<std::size_t>(g.num_vertices()),
                           "fw");
  gpu_project(dev, m.cmap, dcw, dfw, 0, 512);
  const auto fw = dfw.d2h_vector();
  const auto expect = project_partition(cmap, coarse_where);
  EXPECT_EQ(fw, expect);
}

TEST(GpuRefine, ImprovesPerturbedPartition) {
  Device dev;
  const auto g = grid2d_graph(32, 32);
  Rng rng(2);
  Partition p = recursive_bisection(g, 8, 0.03, rng);
  for (vid_t v = 200; v < 260; ++v) p.where[static_cast<std::size_t>(v)] = 0;
  const wgt_t perturbed = edge_cut(g, p);

  auto gg = GpuGraph::upload(dev, g, "t");
  DeviceBuffer<part_t> dw(dev, p.where.size(), "w");
  dw.h2d(p.where);
  auto st = gpu_refine(dev, gg, dw, 8, 0.08, 8, 0, 1024, nullptr, nullptr,
                       GpuScanMode::kBlocked);
  Partition q{8, dw.d2h_vector()};
  EXPECT_TRUE(validate_partition(g, q).empty());
  EXPECT_LT(edge_cut(g, q), perturbed);
  EXPECT_GT(st.committed, 0u);
  const wgt_t maxw = max_part_weight(g.total_vertex_weight(), 8, 0.08);
  for (const auto w : partition_weights(g, q)) EXPECT_LE(w, maxw);
}

TEST(GpuRefine, RequestSlotsAreExclusive) {
  // Stress the atomic-counter buffer under heavy concurrency: every
  // committed move must be consistent (validated partition, conserved
  // vertex count per part).
  Device dev;
  const auto g = delaunay_graph(4000, 6);
  Rng rng(3);
  Partition p = recursive_bisection(g, 16, 0.05, rng);
  auto gg = GpuGraph::upload(dev, g, "t");
  DeviceBuffer<part_t> dw(dev, p.where.size(), "w");
  dw.h2d(p.where);
  (void)gpu_refine(dev, gg, dw, 16, 0.05, 6, 0, 1 << 14, nullptr, nullptr,
                   GpuScanMode::kBlocked);
  Partition q{16, dw.d2h_vector()};
  EXPECT_TRUE(validate_partition(g, q).empty());
}

// ---- full driver ----

TEST(GpMetis, FullPipelineValidOnAllPaperGraphShapes) {
  for (const auto& info : paper_graphs()) {
    const auto g = make_paper_graph(info.name, 1.0 / 512.0, 3);
    PartitionOptions opts;
    opts.k = 8;
    opts.gpu_cpu_threshold = 2000;
    GpPhaseLog log;
    const auto r = gp_metis_run(g, opts, &log);
    EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty()) << info.name;
    EXPECT_EQ(r.cut, edge_cut(g, r.partition)) << info.name;
    for (const auto w : partition_weights(g, r.partition))
      EXPECT_GT(w, 0) << info.name;
  }
}

TEST(GpMetis, HybridPhaseStructure) {
  const auto g = delaunay_graph(40000, 5);
  PartitionOptions opts;
  opts.k = 16;
  opts.gpu_cpu_threshold = 4000;
  GpPhaseLog log;
  const auto r = gp_metis_run(g, opts, &log);
  // The Fig. 1 structure: some levels on the GPU, some on the CPU, with
  // transfers in both directions.
  EXPECT_GT(log.gpu_coarsen_levels, 0);
  EXPECT_GT(log.cpu_levels, 0);
  EXPECT_LE(log.handoff_vertices, 4000 + 4000 / 2);
  EXPECT_GT(log.h2d_bytes, 0u);
  EXPECT_GT(log.d2h_bytes, 0u);
  EXPECT_GT(r.phases.transfer, 0.0);
  EXPECT_GT(r.phases.coarsen, 0.0);
  EXPECT_GT(r.phases.initpart, 0.0);
  EXPECT_GT(r.phases.uncoarsen, 0.0);
}

TEST(GpMetis, QualityComparableToSerial) {
  const auto g = grid2d_graph(80, 80);
  PartitionOptions opts;
  opts.k = 8;
  opts.gpu_cpu_threshold = 1000;
  const auto serial = make_serial_partitioner()->run(g, opts);
  const auto gpm = make_hybrid_partitioner()->run(g, opts);
  EXPECT_LT(static_cast<double>(gpm.cut),
            1.7 * static_cast<double>(serial.cut) + 50.0);
  EXPECT_LE(gpm.balance, 1.35);
}

TEST(GpMetis, ModeledFasterThanSerialAndParMetis) {
  // Fig. 5's headline: GP-metis outperforms Metis and ParMetis on all
  // tested inputs.  Use a road network, where the gap is structural
  // (ParMetis drowns in boundary ghost exchanges) and large enough to
  // leave the GPU's low-occupancy regime — the margin on small delaunay
  // instances is within run-to-run noise of the racy refiners.
  const auto g = road_network_graph(150000, 8);
  PartitionOptions opts;
  opts.k = 16;
  opts.gpu_cpu_threshold = 4000;
  const auto serial = make_serial_partitioner()->run(g, opts);
  const auto par = make_par_partitioner()->run(g, opts);
  const auto gpm = make_hybrid_partitioner()->run(g, opts);
  EXPECT_LT(gpm.modeled_seconds, serial.modeled_seconds);
  EXPECT_LT(gpm.modeled_seconds, par.modeled_seconds);
}

TEST(GpMetis, SmallGraphSkipsGpuCoarsening) {
  // Below the threshold everything runs on the CPU; the driver must still
  // produce a valid partition (and no GPU coarsening levels).
  const auto g = grid2d_graph(20, 20);
  PartitionOptions opts;
  opts.k = 4;
  GpPhaseLog log;
  const auto r = gp_metis_run(g, opts, &log);
  EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty());
  EXPECT_EQ(log.gpu_coarsen_levels, 0);
}

TEST(GpMetis, FactoryName) {
  EXPECT_EQ(make_hybrid_partitioner()->name(), "gp-metis");
}

TEST(GpuRefine, FullBuffersDropRequestsButStayCorrect) {
  // With k large relative to n/k the per-partition buffer capacity is
  // tiny; overflowing requests must be dropped (counted), never written
  // out of bounds, and the partition must stay valid.
  Device dev;
  const auto g = delaunay_graph(3000, 8);
  Rng rng(4);
  Partition p = recursive_bisection(g, 64, 0.10, rng);
  // Heavy perturbation generates a flood of requests.
  for (vid_t v = 0; v < g.num_vertices(); v += 3) {
    p.where[static_cast<std::size_t>(v)] =
        static_cast<part_t>((p.where[static_cast<std::size_t>(v)] + 1) % 64);
  }
  auto gg = GpuGraph::upload(dev, g, "t");
  DeviceBuffer<part_t> dw(dev, p.where.size(), "w");
  dw.h2d(p.where);
  const auto st = gpu_refine(dev, gg, dw, 64, 0.10, 4, 0, 1 << 13, nullptr,
                             nullptr, GpuScanMode::kBlocked);
  Partition q{64, dw.d2h_vector()};
  EXPECT_TRUE(validate_partition(g, q).empty());
  EXPECT_GT(st.proposed, 0u);
  // dropped may be zero on lucky runs; the invariant under test is
  // bounded-buffer safety, which validate_partition confirms.
}

TEST(GpMetis, DegradesToCpuWhenDeviceMemoryTooSmall) {
  // An absurdly small device capacity makes the very first upload OOM.
  // The driver must not surface the exception: it degrades to the pure
  // mt-metis path and still returns a valid balanced partition, with the
  // health record flagging the run as degraded.
  const auto g = grid2d_graph(50, 50);
  PartitionOptions opts;
  opts.k = 4;
  opts.gpu_memory_bytes = 400;
  const auto r = make_hybrid_partitioner()->run(g, opts);
  EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty());
  EXPECT_GT(r.cut, 0);
  EXPECT_LE(r.balance, 1.0 + opts.eps + 0.05);
  EXPECT_TRUE(r.health.degraded);
  EXPECT_GE(r.health.gpu_retries, 1u);
  EXPECT_EQ(r.health.fallbacks, 1u);
}

TEST(GpMetis, FixedLaunchWidthVariantWorksEndToEnd) {
  // Section III-D ablation path: disabling the per-level launch shrink
  // must not affect correctness (only the modeled time).
  const auto g = delaunay_graph(8000, 6);
  PartitionOptions opts;
  opts.k = 8;
  opts.gpu_cpu_threshold = 1000;
  opts.gpu_shrink_launch = false;
  const auto r = make_hybrid_partitioner()->run(g, opts);
  EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty());
}

TEST(GpMetis, SortMergeContractionVariantWorksEndToEnd) {
  const auto g = delaunay_graph(8000, 2);
  PartitionOptions opts;
  opts.k = 8;
  opts.gpu_cpu_threshold = 1000;
  opts.gpu_hash_contraction = false;  // quicksort+remove path
  const auto r = make_hybrid_partitioner()->run(g, opts);
  EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty());
}

}  // namespace
}  // namespace gp
