// Tests for the single-dispatch GPU pipelines (DESIGN.md §3.9): the
// decoupled-lookback scan against the blocked reference, the one-dispatch
// partition/compact built on it, the fused-launch charging rule, and the
// end-to-end guarantees — byte-identical partitions under both GpuScanMode
// values and the kernel-count collapse the fusion exists to buy.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/partitioner.hpp"
#include "gen/generators.hpp"
#include "gpu/device.hpp"
#include "gpu/device_buffer.hpp"
#include "gpu/scan.hpp"
#include "util/rng.hpp"

namespace gp {
namespace {

std::vector<std::int64_t> random_input(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<std::int64_t>(rng.next_below(16));
  return v;
}

/// Sizes spanning every geometry edge: empty, single element, one tile,
/// one-off-a-tile either way, and a many-tile bulk size.
const std::int64_t kSizes[] = {0, 1, 2, 1023, 1024, 1025, 50000, 300017};

TEST(Scan, LookbackMatchesBlockedInclusive) {
  Device dev;
  for (const auto n : kSizes) {
    const auto input = random_input(n, 11 + static_cast<std::uint64_t>(n));
    auto a = to_device(dev, input, "a");
    auto b = to_device(dev, input, "b");
    const auto ta = device_inclusive_scan(dev, a, "s", GpuScanMode::kBlocked);
    const auto tb = device_inclusive_scan(dev, b, "s", GpuScanMode::kLookback);
    EXPECT_EQ(ta, tb) << "n=" << n;
    EXPECT_EQ(a.d2h_vector(), b.d2h_vector()) << "n=" << n;
  }
}

TEST(Scan, LookbackMatchesBlockedExclusive) {
  Device dev;
  for (const auto n : kSizes) {
    const auto input = random_input(n, 23 + static_cast<std::uint64_t>(n));
    auto a = to_device(dev, input, "a");
    auto b = to_device(dev, input, "b");
    const auto ta = device_exclusive_scan(dev, a, "x", GpuScanMode::kBlocked);
    const auto tb = device_exclusive_scan(dev, b, "x", GpuScanMode::kLookback);
    EXPECT_EQ(ta, tb) << "n=" << n;
    EXPECT_EQ(a.d2h_vector(), b.d2h_vector()) << "n=" << n;
  }
}

TEST(Scan, AllZerosAndSingleElement) {
  Device dev;
  // All-zeros: every descriptor aggregate is zero — the look-back must
  // still chain PREFIX descriptors, not confuse zero with "unpublished".
  std::vector<std::int64_t> zeros(4096, 0);
  auto z = to_device(dev, zeros, "z");
  EXPECT_EQ(device_inclusive_scan(dev, z, "s", GpuScanMode::kLookback), 0);
  for (const auto v : z.d2h_vector()) ASSERT_EQ(v, 0);

  std::vector<std::int64_t> one{42};
  auto o = to_device(dev, one, "o");
  EXPECT_EQ(device_inclusive_scan(dev, o, "s", GpuScanMode::kLookback), 42);
  EXPECT_EQ(o.d2h_vector()[0], 42);
  auto ox = to_device(dev, one, "ox");
  EXPECT_EQ(device_exclusive_scan(dev, ox, "x", GpuScanMode::kLookback), 42);
  EXPECT_EQ(ox.d2h_vector()[0], 0);
}

TEST(Scan, LookbackIsOneDispatch) {
  Device dev;
  for (const std::int64_t n : {1, 1024, 300017}) {
    auto buf = to_device(dev, random_input(n, 5), "b");
    const auto before = dev.kernels_launched();
    (void)device_inclusive_scan(dev, buf, "s", GpuScanMode::kLookback);
    EXPECT_EQ(dev.kernels_launched() - before, 1u) << "n=" << n;
  }
}

TEST(Scan, BlockedDegenerateGeometryIsOneLaunch) {
  Device dev;
  // n <= one tile: the blocked scan must short-circuit to a single launch
  // (historically it still ran the 3-kernel pipeline on a 1-block grid).
  for (const std::int64_t n : {1, 100, 1024}) {
    auto buf = to_device(dev, random_input(n, 3), "b");
    const auto before = dev.kernels_launched();
    (void)device_inclusive_scan(dev, buf, "s", GpuScanMode::kBlocked);
    EXPECT_EQ(dev.kernels_launched() - before, 1u) << "n=" << n;
  }
  // Past one tile it is the classic 3-launch pipeline.
  auto big = to_device(dev, random_input(4096, 3), "big");
  const auto before = dev.kernels_launched();
  (void)device_inclusive_scan(dev, big, "s", GpuScanMode::kBlocked);
  EXPECT_EQ(dev.kernels_launched() - before, 3u);
}

TEST(Scan, CompactMatchesStdCopyIf) {
  Device dev;
  const auto pred = [](std::int64_t v) { return v % 3 == 0; };
  for (const auto n : kSizes) {
    const auto input = random_input(n, 31 + static_cast<std::uint64_t>(n));
    auto in = to_device(dev, input, "in");
    DeviceBuffer<std::int64_t> out(dev, input.size() + 1, "out");
    const auto before = dev.kernels_launched();
    const auto kept = device_compact(dev, in, out, pred);
    EXPECT_LE(dev.kernels_launched() - before, 1u) << "n=" << n;
    std::vector<std::int64_t> want;
    std::copy_if(input.begin(), input.end(), std::back_inserter(want), pred);
    ASSERT_EQ(kept, static_cast<std::int64_t>(want.size())) << "n=" << n;
    const auto got = out.d2h_vector();
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Scan, PartitionSplitsWithReversedTail) {
  Device dev;
  const auto pred = [](std::int64_t v) { return v < 8; };
  const std::int64_t n = 50000;
  const auto input = random_input(n, 47);
  auto in = to_device(dev, input, "in");
  DeviceBuffer<std::int64_t> out(dev, input.size(), "out");
  const auto split = device_partition(dev, in, out, pred);
  std::vector<std::int64_t> sel, rej;
  for (const auto v : input) (pred(v) ? sel : rej).push_back(v);
  ASSERT_EQ(split, static_cast<std::int64_t>(sel.size()));
  const auto got = out.d2h_vector();
  // Selected: stable at the front.  Rejected: tail inward, reversed (CUB
  // DevicePartition semantics).
  for (std::size_t i = 0; i < sel.size(); ++i) ASSERT_EQ(got[i], sel[i]);
  for (std::size_t i = 0; i < rej.size(); ++i) {
    ASSERT_EQ(got[input.size() - 1 - i], rej[i]);
  }
}

// --- fused dispatch charging and end-to-end guarantees ---

TEST(Fused, ChargeModelTilesOneLaunchAcrossStages) {
  CostLedger ledger;
  Device dev;
  dev.set_ledger(&ledger);
  std::vector<int> data(20000, 1);
  const auto before = dev.kernels_launched();
  dev.launch_fused("fused_demo", [&](Device::Fused& f) {
    f.stage("a", 64, [&](std::int64_t t) -> std::uint64_t {
      std::uint64_t w = 0;
      for (std::size_t i = static_cast<std::size_t>(t); i < data.size();
           i += 64) {
        data[i] += 1;
        ++w;
      }
      return w;
    });
    f.stage_streamed("b", static_cast<std::int64_t>(data.size()), sizeof(int),
                     [&](std::int64_t i) { data[static_cast<std::size_t>(i)] += 1; });
  });
  dev.set_ledger(nullptr);
  // One dispatch, one fault site, one launch-overhead charge.
  EXPECT_EQ(dev.kernels_launched() - before, 1u);
  EXPECT_EQ(ledger.launches_with_prefix("kernel/fused_demo"), 1u);
  // Header + one row per stage, and the header carries the only nonzero
  // launch count while every stage row still carries its memory work.
  const auto& es = ledger.entries();
  ASSERT_EQ(es.size(), 3u);
  EXPECT_EQ(es[0].label, "kernel/fused_demo");
  EXPECT_EQ(es[0].launches, 1u);
  EXPECT_EQ(es[1].label, "kernel/fused_demo/a");
  EXPECT_EQ(es[1].launches, 0u);
  EXPECT_GT(es[1].work_units, 0u);
  EXPECT_EQ(es[2].label, "kernel/fused_demo/b");
  EXPECT_GT(es[2].work_units, 0u);
  // The ledger total tiles exactly into its entries (no hidden charges).
  double sum = 0;
  for (const auto& e : es) sum += e.seconds;
  EXPECT_NEAR(sum, ledger.total_seconds(), 1e-12);
  // Every element of both stages ran.
  for (const auto v : data) ASSERT_EQ(v, 3);
}

TEST(Fused, LookbackChargesSingleElementSweep) {
  // The fused lookback scan must charge ONE coalesced element sweep plus
  // a per-tile descriptor budget — not the blocked scan's two-and-a-bit
  // passes.  Compare modeled memory work between the modes.
  const std::int64_t n = 1 << 20;
  auto work_units = [&](GpuScanMode mode) {
    CostLedger ledger;
    Device dev;
    auto buf = to_device(dev, random_input(n, 9), "b");
    dev.set_ledger(&ledger);
    (void)device_inclusive_scan(dev, buf, "s", mode);
    dev.set_ledger(nullptr);
    std::uint64_t units = 0;
    for (const auto& e : ledger.entries()) units += e.work_units;
    return units;
  };
  const auto blocked = work_units(GpuScanMode::kBlocked);
  const auto lookback = work_units(GpuScanMode::kLookback);
  // Blocked: block_scan sweep + totals + add_offsets sweep ~= 2 sweeps.
  // Lookback: 1 sweep + 4 units per tile (256 tiles at this size).
  EXPECT_LT(lookback, blocked * 2 / 3);
  EXPECT_GE(lookback, static_cast<std::uint64_t>(n) * 8 / 128);
}

// The point of the whole exercise: the fused pipelines collapse the
// dispatch count.  Same graph, same options, both modes — the lookback
// run must launch at most half the blocked run's kernels (in practice
// it is ~3-4x fewer; the gate is loose so graph drift cannot flake it).
TEST(Fused, KernelCountCollapses) {
  const CsrGraph g = make_paper_graph("delaunay", 1.0 / 256.0, 7);
  const auto sys = make_hybrid_partitioner();
  std::uint64_t kernels[2] = {0, 0};
  for (const auto mode : {GpuScanMode::kBlocked, GpuScanMode::kLookback}) {
    PartitionOptions opts;
    opts.k = 8;
    opts.seed = 7;
    opts.gpu_cpu_threshold = 1024;
    opts.gpu_scan = mode;
    const auto r = sys->run(g, opts);
    kernels[mode == GpuScanMode::kLookback] = r.exec.kernels_launched;
  }
  EXPECT_GT(kernels[0], 0u);
  EXPECT_LE(kernels[1] * 2, kernels[0])
      << "lookback " << kernels[1] << " vs blocked " << kernels[0];
}

}  // namespace
}  // namespace gp
