// Tests for src/gpu: device memory accounting, transfers, kernel launch,
// atomics, device scan, coalescing analyzer.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>

#include "gpu/coalescing.hpp"
#include "gpu/device.hpp"
#include "gpu/device_atomics.hpp"
#include "gpu/device_buffer.hpp"
#include "gpu/scan.hpp"
#include "util/rng.hpp"

namespace gp {
namespace {

Device::Config small_device() {
  Device::Config c;
  c.memory_bytes = 1 << 20;  // 1 MiB for OOM tests
  c.host_workers = 4;
  return c;
}

TEST(Device, AllocationAccounting) {
  Device dev(small_device());
  EXPECT_EQ(dev.allocated_bytes(), 0u);
  {
    DeviceBuffer<int> a(dev, 100, "a");
    EXPECT_EQ(dev.allocated_bytes(), 400u);
    DeviceBuffer<double> b(dev, 10, "b");
    EXPECT_EQ(dev.allocated_bytes(), 480u);
  }
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

TEST(Device, BufferPoolRecyclesAndRezeroes) {
  Device dev(small_device());
  const auto misses0 = dev.pool_misses();
  {
    DeviceBuffer<int> a(dev, 100, "a");
    for (std::size_t i = 0; i < 100; ++i) a.data()[i] = 0x5aa5;  // garbage
  }
  EXPECT_EQ(dev.pool_misses(), misses0 + 1);
  const auto hits0 = dev.pool_hits();
  // Same size: must come back from the pool, and zero-filled (the
  // cudaMalloc-the-simulated-way contract callers rely on).
  DeviceBuffer<int> b(dev, 100, "b");
  EXPECT_EQ(dev.pool_hits(), hits0 + 1);
  EXPECT_GE(dev.pool_recycled_bytes(), 400u);
  for (std::size_t i = 0; i < 100; ++i) ASSERT_EQ(b.data()[i], 0);
  // A different size bucket misses.
  DeviceBuffer<int> c(dev, 4096, "c");
  EXPECT_EQ(dev.pool_hits(), hits0 + 1);
}

TEST(Device, PoolPresizeServesFirstTouchFromPool) {
  Device dev(small_device());
  dev.pool_presize(1 << 18, /*copies=*/2);
  const auto misses0 = dev.pool_misses();
  const auto hits0 = dev.pool_hits();
  {
    // First-touch allocations across assorted buckets, two live at once
    // in the same bucket: all must be pool hits after pre-sizing.
    DeviceBuffer<int> a(dev, 1000, "a");
    DeviceBuffer<int> a2(dev, 1000, "a2");
    DeviceBuffer<double> b(dev, 4000, "b");
    DeviceBuffer<char> c(dev, 100000, "c");
    EXPECT_EQ(dev.pool_misses(), misses0);
    EXPECT_EQ(dev.pool_hits(), hits0 + 4);
    for (std::size_t i = 0; i < 1000; ++i) ASSERT_EQ(a.data()[i], 0);
  }
  // Beyond the pre-sized ceiling the pool still misses as before.
  DeviceBuffer<char> big(dev, (1 << 18) * 2, "big");
  EXPECT_EQ(dev.pool_misses(), misses0 + 1);
}

TEST(Device, PoolBlocksArriveZeroedFreshPresizedAndRecycled) {
  // Fresh blocks come from calloc and skip the fill, presized ones
  // included; a recycled block is refilled.  Every acquisition must read
  // zero whatever garbage the block's last holder left in it.
  Device dev(small_device());
  dev.pool_presize(1 << 16, /*copies=*/1);
  auto take = [&](std::size_t n, const char* what) {
    DeviceBuffer<std::uint32_t> b(dev, n, what);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(b.data()[i], 0u) << what << " element " << i;
    }
    std::fill(b.data(), b.data() + n, 0xdeadbeefu);
  };
  const auto misses0 = dev.pool_misses();
  take(1000, "presized");
  take(1000, "recycled presized");
  take(600, "recycled, smaller request in the bucket");
  EXPECT_EQ(dev.pool_misses(), misses0);
  take(std::size_t{1} << 16, "fresh");
  EXPECT_EQ(dev.pool_misses(), misses0 + 1);
  take(std::size_t{1} << 16, "recycled fresh");
  take((std::size_t{1} << 16) - 1000, "recycled fresh, smaller request");
  EXPECT_EQ(dev.pool_misses(), misses0 + 1);
  EXPECT_EQ(dev.pool_outstanding_blocks(), 0);
}

TEST(Device, PoolAccountingBalancesAcrossLifetimes) {
  // Every pool_acquire must be matched by exactly one pool_release —
  // across normal destruction, early release(), moves, and constructors
  // that throw.  pool_outstanding_blocks() is the live-block ledger.
  Device dev(small_device());
  EXPECT_EQ(dev.pool_outstanding_blocks(), 0);
  {
    DeviceBuffer<int> a(dev, 100, "a");
    DeviceBuffer<double> b(dev, 50, "b");
    EXPECT_EQ(dev.pool_outstanding_blocks(), 2);
    // A move transfers ownership; it must not double-count the block.
    DeviceBuffer<int> c(std::move(a));
    EXPECT_EQ(dev.pool_outstanding_blocks(), 2);
    c.release();
    EXPECT_EQ(dev.pool_outstanding_blocks(), 1);
  }
  EXPECT_EQ(dev.pool_outstanding_blocks(), 0);

  // A constructor that throws (capacity exceeded) runs no destructor:
  // both the capacity charge and the block count must stay balanced.
  const auto bytes_before = dev.allocated_bytes();
  EXPECT_THROW(DeviceBuffer<int> big(dev, std::size_t{1} << 22, "big"),
               DeviceOutOfMemory);
  EXPECT_EQ(dev.allocated_bytes(), bytes_before);
  EXPECT_EQ(dev.pool_outstanding_blocks(), 0);

  // And the device stays fully usable afterwards.
  DeviceBuffer<int> after(dev, 64, "after");
  EXPECT_EQ(dev.pool_outstanding_blocks(), 1);
}

TEST(Device, OutOfMemoryThrows) {
  Device dev(small_device());
  EXPECT_THROW(DeviceBuffer<char>(dev, (1 << 20) + 1, "big"),
               DeviceOutOfMemory);
  // Partial fill then overflow.
  DeviceBuffer<char> half(dev, 1 << 19, "half");
  EXPECT_THROW(DeviceBuffer<char>(dev, (1 << 19) + 1, "big2"),
               DeviceOutOfMemory);
}

TEST(Device, TransferRoundTripAndMetering) {
  Device dev(small_device());
  CostLedger ledger;
  dev.set_ledger(&ledger);
  std::vector<int> host(1000);
  std::iota(host.begin(), host.end(), 0);
  auto buf = to_device(dev, host, "x");
  EXPECT_EQ(dev.total_h2d_bytes(), 4000u);
  const auto back = buf.d2h_vector();
  EXPECT_EQ(back, host);
  EXPECT_EQ(dev.total_d2h_bytes(), 4000u);
  EXPECT_EQ(ledger.bytes_with_prefix("transfer/"), 8000u);
  EXPECT_GT(ledger.total_seconds(), 0.0);
}

TEST(Device, LaunchCoversIndexSpaceExactlyOnce) {
  Device dev(small_device());
  const std::int64_t n = 100001;
  DeviceBuffer<int> hits(dev, static_cast<std::size_t>(n), "hits");
  hits.fill(0);
  int* h = hits.data();
  dev.launch("cover", n, [&](std::int64_t i) {
    atomic_add(h[i], 1);
    return std::uint64_t{1};
  });
  const auto v = hits.d2h_vector();
  for (const int x : v) ASSERT_EQ(x, 1);
}

TEST(Device, LaunchZeroThreadsIsNoop) {
  Device dev(small_device());
  dev.launch("empty", 0, [&](std::int64_t) { return std::uint64_t{1}; });
  EXPECT_EQ(dev.kernels_launched(), 1u);
}

TEST(Device, KernelChargesLedgerWithImbalance) {
  Device dev(small_device());
  CostLedger ledger;
  dev.set_ledger(&ledger);
  // 32 warps; warp 0 does all the work -> imbalance should be > 1.
  dev.launch("skewed", 32 * 32, [&](std::int64_t i) {
    return (i < 32) ? std::uint64_t{1000} : std::uint64_t{1};
  });
  ASSERT_EQ(ledger.entries().size(), 1u);
  EXPECT_GT(ledger.entries()[0].imbalance, 2.0);
}

TEST(DeviceAtomics, AtomicAddConcurrent) {
  Device dev(small_device());
  DeviceBuffer<long> counter(dev, 1, "c");
  counter.fill(0);
  long* c = counter.data();
  dev.launch("add", 50000, [&](std::int64_t) {
    atomic_add(*c, 1L);
    return std::uint64_t{1};
  });
  EXPECT_EQ(counter.d2h_vector()[0], 50000);
}

TEST(DeviceAtomics, AtomicSlotReservation) {
  // The refinement-buffer pattern: each logical thread reserves a unique
  // slot via atomic_add on a counter.
  Device dev(small_device());
  const std::int64_t n = 20000;
  DeviceBuffer<int> slots(dev, static_cast<std::size_t>(n), "slots");
  slots.fill(-1);
  DeviceBuffer<int> counter(dev, 1, "ctr");
  counter.fill(0);
  int* s = slots.data();
  int* c = counter.data();
  dev.launch("reserve", n, [&](std::int64_t i) {
    const int slot = atomic_add(*c, 1);
    s[slot] = static_cast<int>(i);
    return std::uint64_t{1};
  });
  auto v = slots.d2h_vector();
  std::sort(v.begin(), v.end());
  for (std::int64_t i = 0; i < n; ++i)
    ASSERT_EQ(v[static_cast<std::size_t>(i)], i);  // every slot unique & used
}

TEST(DeviceAtomics, AtomicMax) {
  Device dev(small_device());
  DeviceBuffer<int> m(dev, 1, "m");
  m.fill(0);
  int* p = m.data();
  dev.launch("max", 10000, [&](std::int64_t i) {
    atomic_max(*p, static_cast<int>(i));
    return std::uint64_t{1};
  });
  EXPECT_EQ(m.d2h_vector()[0], 9999);
}

class DeviceScanSizes : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(DeviceScanSizes, InclusiveMatchesSerial) {
  Device dev(small_device());
  const auto n = GetParam();
  Rng r(static_cast<std::uint64_t>(n) + 5);
  std::vector<std::int64_t> host(static_cast<std::size_t>(n));
  for (auto& x : host) x = static_cast<std::int64_t>(r.next_below(10));
  std::vector<std::int64_t> expect = host;
  std::int64_t sum = 0;
  for (auto& x : expect) {
    sum += x;
    x = sum;
  }
  auto buf = to_device(dev, host, "scan");
  const auto total =
      device_inclusive_scan(dev, buf, "scan", GpuScanMode::kBlocked);
  EXPECT_EQ(buf.d2h_vector(), expect);
  if (n > 0) {
    EXPECT_EQ(total, expect.back());
  }
}

TEST_P(DeviceScanSizes, ExclusiveMatchesSerial) {
  Device dev(small_device());
  const auto n = GetParam();
  Rng r(static_cast<std::uint64_t>(n) + 17);
  std::vector<std::int64_t> host(static_cast<std::size_t>(n));
  for (auto& x : host) x = static_cast<std::int64_t>(r.next_below(10));
  std::vector<std::int64_t> expect = host;
  std::int64_t sum = 0;
  for (auto& x : expect) {
    const auto v = x;
    x = sum;
    sum += v;
  }
  auto buf = to_device(dev, host, "xscan");
  const auto total =
      device_exclusive_scan(dev, buf, "xscan", GpuScanMode::kBlocked);
  EXPECT_EQ(buf.d2h_vector(), expect);
  EXPECT_EQ(total, sum);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeviceScanSizes,
                         ::testing::Values(0, 1, 2, 1023, 1024, 1025, 50000));

TEST(Coalescing, PerfectlyCoalescedStride4) {
  // 32 threads reading consecutive ints: one 128-byte transaction.
  std::vector<std::uint64_t> addr(32);
  for (std::size_t i = 0; i < 32; ++i) addr[i] = i * 4;
  const auto s = analyze_coalescing(addr);
  EXPECT_EQ(s.warps, 1u);
  EXPECT_EQ(s.transactions, 1u);
}

TEST(Coalescing, StridedAccessExplodes) {
  // 32 threads reading 128 bytes apart: 32 transactions.
  std::vector<std::uint64_t> addr(32);
  for (std::size_t i = 0; i < 32; ++i) addr[i] = i * 128;
  const auto s = analyze_coalescing(addr);
  EXPECT_EQ(s.transactions, 32u);
  EXPECT_DOUBLE_EQ(s.transactions_per_warp(), 32.0);
}

TEST(Coalescing, PartialWarpAtTail) {
  std::vector<std::uint64_t> addr(40, 0);  // all same block; 2 warps
  const auto s = analyze_coalescing(addr);
  EXPECT_EQ(s.warps, 2u);
  EXPECT_EQ(s.transactions, 2u);
}

}  // namespace
}  // namespace gp
