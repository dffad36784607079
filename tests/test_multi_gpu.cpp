// Tests for gp-metis-multi (src/hybrid/multi_gpu_partitioner.hpp): the
// paper's future-work extension (partitioning graphs too large for one
// device's memory), gp-metis's backend sharded over several devices.
// Its one-device identity with gp-metis is a Golden row.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/distribution.hpp"
#include "core/matching.hpp"
#include "core/partitioner.hpp"
#include "gen/generators.hpp"
#include "gpu/device.hpp"
#include "hybrid/gp_partitioner.hpp"
#include "hybrid/gpu_contract.hpp"
#include "hybrid/gpu_matching.hpp"
#include "hybrid/multi_gpu_partitioner.hpp"

namespace gp {
namespace {

class MultiGpuDevices : public ::testing::TestWithParam<int> {};

TEST_P(MultiGpuDevices, FullPipelineValid) {
  const auto g = delaunay_graph(20000, 3);
  PartitionOptions opts;
  opts.k = 16;
  opts.gpu_devices = GetParam();
  opts.gpu_cpu_threshold = 2500;
  GpPhaseLog log;
  const auto r = multi_gpu_run(g, opts, &log);
  EXPECT_TRUE(validate_partition(g, r.partition).empty())
      << validate_partition(g, r.partition);
  EXPECT_EQ(r.cut, edge_cut(g, r.partition));
  EXPECT_EQ(log.devices, GetParam());
  EXPECT_GT(log.gpu_coarsen_levels, 0);
  for (const auto w : partition_weights(g, r.partition)) EXPECT_GT(w, 0);
  const wgt_t maxw = max_part_weight(g.total_vertex_weight(), 16, 0.03);
  for (const auto w : partition_weights(g, r.partition)) EXPECT_LE(w, maxw);
}

INSTANTIATE_TEST_SUITE_P(Devices, MultiGpuDevices,
                         ::testing::Values(1, 2, 3, 4));

TEST(MultiGpu, PeakMemoryScalesDownWithDevices) {
  // The point of the extension: per-device memory shrinks ~1/D.
  const auto g = bubble_mesh_graph(60000, 8, 2);
  PartitionOptions opts;
  opts.k = 8;
  opts.gpu_cpu_threshold = 2500;

  opts.gpu_devices = 1;
  const auto r1 = multi_gpu_run(g, opts, nullptr);
  opts.gpu_devices = 4;
  const auto r4 = multi_gpu_run(g, opts, nullptr);
  EXPECT_LT(static_cast<double>(r4.exec.peak_device_bytes),
            0.45 * static_cast<double>(r1.exec.peak_device_bytes));
}

TEST(MultiGpu, PartitionsGraphTooLargeForOneDevice) {
  // Cap device memory so the single-GPU partitioner cannot even hold the
  // graph, then show 4 devices succeed — the motivating scenario.
  const auto g = delaunay_graph(60000, 5);
  PartitionOptions opts;
  opts.k = 8;
  opts.gpu_cpu_threshold = 2500;
  // The compact device CSR needs 4(n+1) + 2m*(4+4) + 4n bytes ≈ 3.36 MB
  // for the graph alone (plus the working arrays); cap at 3 MB per device.
  opts.gpu_memory_bytes = 3 << 20;

  // A single device cannot hold the graph: the run completes only by
  // degrading to the pure-CPU fallback.
  const auto single = make_hybrid_partitioner()->run(g, opts);
  EXPECT_TRUE(single.health.degraded);
  EXPECT_EQ(single.health.fallbacks, 1u);
  EXPECT_TRUE(validate_partition(g, single.partition).empty());

  // Four devices fit the shards and stay on the nominal GPU path.
  opts.gpu_devices = 4;
  GpPhaseLog log;
  const auto r = multi_gpu_run(g, opts, &log);
  EXPECT_TRUE(validate_partition(g, r.partition).empty());
  EXPECT_FALSE(r.health.degraded);
  EXPECT_GT(log.gpu_coarsen_levels, 0);
  EXPECT_LE(r.exec.peak_device_bytes, std::size_t{3} << 20);
}

TEST(MultiGpu, HaloExchangeIsMetered) {
  const auto g = grid2d_graph(120, 120);
  PartitionOptions opts;
  opts.k = 8;
  opts.gpu_devices = 4;
  opts.gpu_cpu_threshold = 2000;
  GpPhaseLog log;
  (void)multi_gpu_run(g, opts, &log);
  // A block-split grid has remote neighbours at every block seam.
  EXPECT_GT(log.halo_exchange_bytes, 0u);
}

TEST(MultiGpu, QualityComparableToSingleGpu) {
  const auto g = delaunay_graph(20000, 7);
  PartitionOptions opts;
  opts.k = 16;
  opts.gpu_cpu_threshold = 2500;
  const auto single = make_hybrid_partitioner()->run(g, opts);
  opts.gpu_devices = 4;
  const auto multi = make_multi_gpu_partitioner()->run(g, opts);
  // Halo-restricted matching costs some quality; within 40% of the
  // single-device result on this instance.
  EXPECT_LT(static_cast<double>(multi.cut),
            1.4 * static_cast<double>(single.cut) + 50.0);
}

TEST(MultiGpu, FactoryName) {
  EXPECT_EQ(make_multi_gpu_partitioner()->name(), "gp-metis-multi");
}

TEST(MultiGpu, MoreDevicesThanWorkStillValid) {
  // 20 vertices over 8 devices: several shards hold 2-3 vertices and the
  // handoff happens immediately — the degenerate path must still work.
  const auto g = grid2d_graph(5, 4);
  PartitionOptions opts;
  opts.k = 2;
  opts.gpu_devices = 8;
  opts.gpu_cpu_threshold = 4;
  GpPhaseLog log;
  const auto r = multi_gpu_run(g, opts, &log);
  EXPECT_TRUE(validate_partition(g, r.partition).empty());
  for (const auto w : partition_weights(g, r.partition)) EXPECT_GT(w, 0);
}

// One level of a two-block grid through the device kernels, shard by shard
// (DESIGN.md §3.11).  Each block goes up in local numbering, its rows
// first and its halo after them, matches on its own device, and contracts
// through a table of its halo's coarse slots built as the store builds it.
// Read back in global ids, the coarse shards are the serial contraction of
// the concatenated match and cmap.
TEST(MultiGpuShard, ShardKernelsEqualSerialContraction) {
  constexpr int kBlocks = 2;
  const CsrGraph g = grid2d_graph(30, 30);
  const Distribution fine = Distribution::block(g.num_vertices(), kBlocks);
  // The slot of vertex u on block d with halo `halo`.
  auto slot = [&](int d, const std::vector<vid_t>& halo, vid_t u) {
    const vid_t b = fine.begin(d), n = fine.end(d) - b;
    if (u >= b && u < b + n) return u - b;
    return n + static_cast<vid_t>(
                   std::lower_bound(halo.begin(), halo.end(), u) -
                   halo.begin());
  };
  for (const GpuScanMode mode :
       {GpuScanMode::kBlocked, GpuScanMode::kLookback}) {
    Device devs[kBlocks];
    std::vector<vid_t> halo[kBlocks];
    GpuGraph shards[kBlocks];
    GpuMatchResult m[kBlocks];
    std::vector<vid_t> match, cmap;
    std::vector<vid_t> coarse_counts;
    for (int d = 0; d < kBlocks; ++d) {
      const vid_t b = fine.begin(d), e = fine.end(d);
      for (vid_t v = b; v < e; ++v) {
        for (const vid_t u : g.neighbors(v)) {
          if (u < b || u >= e) halo[d].push_back(u);
        }
      }
      std::sort(halo[d].begin(), halo[d].end());
      halo[d].erase(std::unique(halo[d].begin(), halo[d].end()),
                    halo[d].end());
      ASSERT_FALSE(halo[d].empty()) << d;
      std::vector<eid_t> adjp{0};
      std::vector<vid_t> adjncy;
      std::vector<wgt_t> adjwgt;
      for (vid_t v = b; v < e; ++v) {
        for (const vid_t u : g.neighbors(v)) {
          adjncy.push_back(slot(d, halo[d], u));
        }
        const auto w = g.neighbor_weights(v);
        adjwgt.insert(adjwgt.end(), w.begin(), w.end());
        adjp.push_back(static_cast<eid_t>(adjncy.size()));
      }
      shards[d] = GpuGraph::upload(
          devs[d],
          HostCsr(adjp, adjncy, adjwgt,
                  std::span(g.vwgt()).subspan(static_cast<std::size_t>(b),
                                              static_cast<std::size_t>(e - b))),
          "shard");
      m[d] = gpu_match(devs[d], shards[d], 0, 1 + d, 256, mode);
      const vid_t coarse_base = std::accumulate(
          coarse_counts.begin(), coarse_counts.end(), vid_t{0});
      for (const vid_t x : m[d].match.d2h_vector()) {
        ASSERT_LT(x, e - b) << "a halo arc was matched";
        match.push_back(b + x);
      }
      for (const vid_t c : m[d].cmap.d2h_vector()) {
        cmap.push_back(coarse_base + c);
      }
      coarse_counts.push_back(m[d].n_coarse);
    }
    ASSERT_TRUE(validate_match(match).empty()) << validate_match(match);
    const Distribution coarse = Distribution::from_counts(coarse_counts);
    const CsrGraph ref =
        contract_serial(g, match, cmap, coarse.vtxdist.back());
    for (int d = 0; d < kBlocks; ++d) {
      // The halo coarse map: each halo slot's coarse id, from its owner's
      // cmap, becomes its slot after the coarse rows.
      std::vector<vid_t> table, coarse_halo;
      for (const vid_t u : halo[d]) table.push_back(cmap[u]);
      coarse_halo = table;
      std::sort(coarse_halo.begin(), coarse_halo.end());
      coarse_halo.erase(std::unique(coarse_halo.begin(), coarse_halo.end()),
                        coarse_halo.end());
      const vid_t rows = coarse.end(d) - coarse.begin(d);
      for (vid_t& c : table) {
        c = rows + static_cast<vid_t>(std::lower_bound(coarse_halo.begin(),
                                                       coarse_halo.end(), c) -
                                      coarse_halo.begin());
      }
      const auto device_table = to_device(devs[d], table, "halo-cmap");
      const CsrGraph got =
          gpu_contract(devs[d], shards[d], m[d].match, m[d].cmap,
                       m[d].n_coarse, 0, 256, true, mode, nullptr,
                       {device_table.span()})
              .download();
      ASSERT_EQ(got.num_vertices(), rows);
      for (vid_t r = 0; r < rows; ++r) {
        const vid_t c = coarse.begin(d) + r;
        EXPECT_EQ(got.vertex_weight(r), ref.vertex_weight(c)) << c;
        std::vector<std::pair<vid_t, wgt_t>> row, want;
        const auto nbrs = got.neighbors(r);
        const auto wts = got.neighbor_weights(r);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          ASSERT_LT(nbrs[i], rows + static_cast<vid_t>(coarse_halo.size()));
          const vid_t x = nbrs[i];
          row.emplace_back(
              x < rows ? coarse.begin(d) + x
                       : coarse_halo[static_cast<std::size_t>(x - rows)],
              wts[i]);
        }
        std::sort(row.begin(), row.end());
        const auto ref_nbrs = ref.neighbors(c);
        const auto ref_wts = ref.neighbor_weights(c);
        for (std::size_t i = 0; i < ref_nbrs.size(); ++i) {
          want.emplace_back(ref_nbrs[i], ref_wts[i]);
        }
        std::sort(want.begin(), want.end());
        EXPECT_EQ(row, want) << "coarse vertex " << c;
      }
    }
  }
}

}  // namespace
}  // namespace gp
