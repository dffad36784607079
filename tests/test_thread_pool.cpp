// Tests for the pool execution engine (DESIGN.md §3.1): dynamic
// scheduling correctness under skewed work, barrier stress across many
// back-to-back generations, single-executor chunk-order determinism, and
// the bit-identical deterministic-partition regression gate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "util/thread_pool.hpp"

namespace gp {
namespace {

TEST(ThreadPoolDynamic, EachIndexExactlyOnceUnderSkewedWork) {
  ThreadPool pool(8);
  const std::int64_t n = 20000;
  std::vector<int> hits(static_cast<std::size_t>(n), 0);
  // Skew: the first chunk's indices carry almost all the work, so a
  // static block schedule would serialize on executor 0.  Dynamic
  // chunks must still cover every index exactly once.
  std::atomic<std::uint64_t> sink{0};
  pool.parallel_for_dynamic(n, 256, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      if (i < 256) {
        std::uint64_t x = static_cast<std::uint64_t>(i) + 1;
        for (int it = 0; it < 20000; ++it) x = x * 6364136223846793005ULL + 1;
        sink += x;
      }
      std::atomic_ref<int>(hits[static_cast<std::size_t>(i)]).fetch_add(1);
    }
  });
  for (const int h : hits) ASSERT_EQ(h, 1);
}

TEST(ThreadPoolDynamic, GrainNotDividingNCoversTail) {
  ThreadPool pool(3);
  const std::int64_t n = 1000;  // 1000 = 7 * 142 + 6: ragged tail chunk
  std::vector<int> hits(static_cast<std::size_t>(n), 0);
  pool.parallel_for_dynamic(n, 142, [&](int t, std::int64_t b, std::int64_t e) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, pool.size());
    EXPECT_LT(b, e);
    EXPECT_LE(e, n);
    for (std::int64_t i = b; i < e; ++i) {
      std::atomic_ref<int>(hits[static_cast<std::size_t>(i)]).fetch_add(1);
    }
  });
  for (const int h : hits) ASSERT_EQ(h, 1);
}

TEST(ThreadPoolDynamic, SingleExecutorChunksArriveInAscendingOrder) {
  // With one executor the atomic chunk counter degenerates to a serial
  // ascending sweep — the property the deterministic (threads=1) runs
  // rely on for bit-identical results.
  ThreadPool pool(1);
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  pool.parallel_for_dynamic(1000, 128,
                            [&](int t, std::int64_t b, std::int64_t e) {
                              EXPECT_EQ(t, 0);
                              chunks.emplace_back(b, e);
                            });
  ASSERT_EQ(chunks.size(), 8u);
  std::int64_t expect_begin = 0;
  for (const auto& [b, e] : chunks) {
    EXPECT_EQ(b, expect_begin);
    expect_begin = e;
  }
  EXPECT_EQ(expect_begin, 1000);
}

TEST(ThreadPoolDynamic, GrainDefaultIsClamped) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.dynamic_grain(10), 64);              // lower clamp
  EXPECT_EQ(pool.dynamic_grain(1 << 30), 65536);      // upper clamp
  EXPECT_EQ(pool.dynamic_grain(640000), 10000);       // n / (nt * 16)
}

TEST(ThreadPoolBarrier, StressManyBackToBackGenerations) {
  // Hammer the generation-counter barrier: many small jobs dispatched
  // back to back, alternating primitive and slot count, so workers keep
  // racing between spin, park, and wake.
  ThreadPool pool(7);
  const int rounds = 400;
  std::vector<std::atomic<int>> slot_runs(7);
  for (auto& s : slot_runs) s = 0;
  std::int64_t blocked_total = 0;
  for (int r = 0; r < rounds; ++r) {
    pool.run_on_all(
        [&](int t) { slot_runs[static_cast<std::size_t>(t)]++; });
    // Varying n exercises dispatches with fewer slots than workers
    // (n < size() dispatches only n slots).
    const std::int64_t n = 1 + (r % 13);
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for_blocked(n, [&](int, std::int64_t b, std::int64_t e) {
      sum += e - b;
    });
    blocked_total += sum.load();
  }
  for (const auto& s : slot_runs) EXPECT_EQ(s.load(), rounds);
  std::int64_t expect = 0;
  for (int r = 0; r < rounds; ++r) expect += 1 + (r % 13);
  EXPECT_EQ(blocked_total, expect);
}

TEST(ThreadPoolBarrier, DispatchCountSeesEveryJob) {
  ThreadPool pool(4);
  const auto before = pool.dispatch_count();
  pool.run_on_all([](int) {});
  pool.parallel_for_blocked(100, [](int, std::int64_t, std::int64_t) {});
  pool.parallel_for_dynamic(100, 10, [](int, std::int64_t, std::int64_t) {});
  pool.parallel_for_blocked(1, [](int, std::int64_t, std::int64_t) {});
  EXPECT_EQ(pool.dispatch_count() - before, 4u);
  // Empty loops dispatch nothing.
  pool.parallel_for_blocked(0, [](int, std::int64_t, std::int64_t) {});
  pool.parallel_for_dynamic(0, 10, [](int, std::int64_t, std::int64_t) {});
  EXPECT_EQ(pool.dispatch_count() - before, 4u);
}

// --- exception safety and cancellation at the pool boundary ---
//
// A task that throws must unwind out of the *dispatching* call, not out
// of a worker thread (std::terminate), and must not skip the barrier
// arrival (a wedged dispatcher).  The regression mode before the fix was
// exactly that wedge: the second parallel_for below would never return.

TEST(ThreadPoolExceptions, ThrowingTaskPropagatesAndPoolSurvives) {
  ThreadPool pool(8);
  const std::int64_t n = 10000;
  EXPECT_THROW(
      pool.parallel_for_blocked(n,
                                [&](int, std::int64_t b, std::int64_t e) {
                                  for (std::int64_t i = b; i < e; ++i) {
                                    if (i == 4242) {
                                      throw std::runtime_error("boom");
                                    }
                                  }
                                }),
      std::runtime_error);
  // The pool must come back fully usable: every index covered once.
  std::vector<int> hits(static_cast<std::size_t>(n), 0);
  pool.parallel_for_blocked(n, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      std::atomic_ref<int>(hits[static_cast<std::size_t>(i)]).fetch_add(1);
    }
  });
  for (const int h : hits) ASSERT_EQ(h, 1);
}

TEST(ThreadPoolExceptions, EverySlotThrowingStillJoinsAndRethrowsOne) {
  ThreadPool pool(8);
  for (int round = 0; round < 50; ++round) {
    try {
      pool.run_on_all([](int t) {
        throw std::runtime_error("slot " + std::to_string(t));
      });
      FAIL() << "expected a slot exception to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("slot ", 0), 0u);
    }
  }
  // Error state must not leak into the next healthy job.
  std::atomic<int> ran{0};
  pool.run_on_all([&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolExceptions, SingleSlotInlinePathPropagates) {
  ThreadPool pool(4);
  // n == 1 runs inline on the caller with no barrier; the exception must
  // still surface and leave the pool healthy.
  EXPECT_THROW(pool.parallel_for_blocked(
                   1, [](int, std::int64_t, std::int64_t) {
                     throw std::runtime_error("inline");
                   }),
               std::runtime_error);
  std::atomic<int> ran{0};
  pool.parallel_for_blocked(
      100, [&](int, std::int64_t b, std::int64_t e) {
        ran.fetch_add(static_cast<int>(e - b));
      });
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolCancel, CancelledTokenRejectsDispatchUntilReset) {
  ThreadPool pool(4);
  CancelToken tok;
  pool.set_cancel_token(&tok);
  tok.cancel();
  // Job-atomic contract: cancellation lands *between* jobs, so a
  // dispatch on a cancelled token throws before any slot runs.
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for_blocked(
                   100,
                   [&](int, std::int64_t b, std::int64_t e) {
                     ran.fetch_add(static_cast<int>(e - b));
                   }),
               CancelledError);
  EXPECT_EQ(ran.load(), 0);
  tok.reset();
  pool.parallel_for_blocked(100, [&](int, std::int64_t b, std::int64_t e) {
    ran.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(ran.load(), 100);
  pool.set_cancel_token(nullptr);
}

}  // namespace
}  // namespace gp
