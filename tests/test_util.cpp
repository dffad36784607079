// Unit tests for src/util: RNG, thread pool, prefix sums, stats.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include "util/prefix_sum.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace gp {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c;
  }
  Rng d(43);
  bool any_diff = false;
  Rng e(42);
  for (int i = 0; i < 100; ++i) {
    if (d.next() != e.next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(r.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ThreadPool, BlockRangeCoversExactly) {
  for (std::int64_t n : {0, 1, 7, 8, 9, 100, 1023}) {
    for (int nt : {1, 2, 3, 8, 16}) {
      std::int64_t covered = 0;
      std::int64_t prev_end = 0;
      for (int t = 0; t < nt; ++t) {
        auto [b, e] = ThreadPool::block_range(n, nt, t);
        EXPECT_EQ(b, prev_end);
        EXPECT_LE(b, e);
        for (std::int64_t i = b; i < e; ++i) {
          EXPECT_EQ(ThreadPool::block_of(n, nt, i), t) << n << " " << i;
        }
        covered += e - b;
        prev_end = e;
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(ThreadPool, RunOnAllRunsEveryWorkerOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(8);
  for (auto& h : hits) h = 0;
  pool.run_on_all([&](int t) { hits[static_cast<std::size_t>(t)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Second generation works too.
  pool.run_on_all([&](int t) { hits[static_cast<std::size_t>(t)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
}

TEST(ThreadPool, ParallelForBlockedSums) {
  ThreadPool pool(6);
  const std::int64_t n = 100000;
  std::vector<int> data(static_cast<std::size_t>(n), 1);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for_blocked(n, [&](int, std::int64_t b, std::int64_t e) {
    std::int64_t local = 0;
    for (std::int64_t i = b; i < e; ++i) local += data[static_cast<std::size_t>(i)];
    sum += local;
  });
  EXPECT_EQ(sum.load(), n);
}

class ScanSizes : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ScanSizes, InclusiveParallelMatchesSerial) {
  const auto n = GetParam();
  Rng r(static_cast<std::uint64_t>(n) + 1);
  std::vector<std::int64_t> a(static_cast<std::size_t>(n));
  for (auto& x : a) x = static_cast<std::int64_t>(r.next_below(100));
  auto b = a;
  inclusive_scan_serial(a);
  ThreadPool pool(4);
  inclusive_scan_parallel(pool, b);
  EXPECT_EQ(a, b);
}

TEST_P(ScanSizes, ExclusiveParallelMatchesSerial) {
  const auto n = GetParam();
  Rng r(static_cast<std::uint64_t>(n) + 99);
  std::vector<std::int64_t> a(static_cast<std::size_t>(n));
  for (auto& x : a) x = static_cast<std::int64_t>(r.next_below(50));
  auto b = a;
  const auto ta = exclusive_scan_serial(a);
  ThreadPool pool(4);
  const auto tb = exclusive_scan_parallel(pool, b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ta, tb);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanSizes,
                         ::testing::Values(0, 1, 2, 3, 17, 4095, 4096, 4097,
                                           100000));

TEST(Stats, SummaryBasics) {
  const auto s = summarize(std::vector<int>{3, 1, 2, 4});
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 4);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_EQ(s.count, 4u);
}

TEST(Stats, SummaryEmptyAndSingle) {
  const auto e = summarize(std::vector<int>{});
  EXPECT_EQ(e.count, 0u);
  const auto one = summarize(std::vector<int>{5});
  EXPECT_DOUBLE_EQ(one.median, 5);
  EXPECT_DOUBLE_EQ(one.stddev, 0);
}

TEST(Stats, ImbalanceFactor) {
  EXPECT_DOUBLE_EQ(imbalance_factor(std::vector<int>{5, 5, 5, 5}), 1.0);
  EXPECT_DOUBLE_EQ(imbalance_factor(std::vector<int>{10, 0, 0, 0}), 4.0);
  EXPECT_DOUBLE_EQ(imbalance_factor(std::vector<int>{}), 1.0);
}

}  // namespace
}  // namespace gp
