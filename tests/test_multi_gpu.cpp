// Tests for gp-metis-multi (src/hybrid/multi_gpu_partitioner.hpp): the
// paper's future-work extension (partitioning graphs too large for one
// device's memory), gp-metis's backend sharded over several devices.
// Its one-device identity with gp-metis is a Golden row.
#include <gtest/gtest.h>

#include "core/partitioner.hpp"
#include "gen/generators.hpp"
#include "gpu/device.hpp"
#include "hybrid/gp_partitioner.hpp"
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

}  // namespace
}  // namespace gp
