// Tests for src/galois: the speculative-execution runtime and the
// Gmetis-style speculative matching built on it.
#include <gtest/gtest.h>

#include <atomic>

#include "galois/gmetis_match.hpp"
#include "galois/speculative.hpp"
#include "gen/generators.hpp"

namespace gp {
namespace {

TEST(Speculative, AllItemsSettleExactlyOnce) {
  ThreadPool pool(8);
  SpeculativeEngine engine(pool, 1);
  std::atomic<int> counter{0};
  const auto st = engine.for_each(10000, [&](SpecTxn&, std::int64_t) {
    counter.fetch_add(1, std::memory_order_relaxed);
    return true;
  });
  EXPECT_EQ(counter.load(), 10000);
  EXPECT_EQ(st.commits, 10000u);
  EXPECT_EQ(st.aborts, 0u);
}

TEST(Speculative, ConflictingTxnsAbortAndRetry) {
  // Every transaction wants lock 0: at most one per round can commit in
  // parallel; the rest must abort and settle in the serial round.
  ThreadPool pool(8);
  SpeculativeEngine engine(pool, 4);
  std::atomic<int> hits{0};
  const auto st = engine.for_each(500, [&](SpecTxn& txn, std::int64_t) {
    if (!txn.acquire(0)) return false;
    hits.fetch_add(1, std::memory_order_relaxed);
    return true;
  });
  EXPECT_EQ(hits.load(), 500);  // everything settles eventually
  EXPECT_EQ(st.commits, 500u);
  EXPECT_EQ(st.retry_round_items, st.aborts);
}

TEST(Speculative, RollbackUndoesWrites) {
  ThreadPool pool(4);
  SpeculativeEngine engine(pool, 2);
  std::atomic<int> value{0};
  // Operator increments, then aborts if it can't grab lock 0 (which a
  // sibling may hold).  The undo must remove the increment so that only
  // committed increments survive.
  std::atomic<int> committed{0};
  (void)engine.for_each(2000, [&](SpecTxn& txn, std::int64_t) {
    value.fetch_add(1, std::memory_order_relaxed);
    txn.log_undo([&] { value.fetch_sub(1, std::memory_order_relaxed); });
    if (!txn.acquire(0)) return false;
    committed.fetch_add(1, std::memory_order_relaxed);
    return true;
  });
  EXPECT_EQ(value.load(), committed.load());
}

TEST(Speculative, ReentrantAcquire) {
  ThreadPool pool(1);
  SpeculativeEngine engine(pool, 2);
  const auto st = engine.for_each(10, [&](SpecTxn& txn, std::int64_t) {
    EXPECT_TRUE(txn.acquire(1));
    EXPECT_TRUE(txn.acquire(1));  // our own lock again
    return true;
  });
  EXPECT_EQ(st.aborts, 0u);
}

class GmetisMatchThreads : public ::testing::TestWithParam<int> {};

TEST_P(GmetisMatchThreads, SpeculativeMatchingIsValid) {
  ThreadPool pool(GetParam());
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto g = delaunay_graph(3000, seed);
    GmetisMatchStats st;
    const auto m = gmetis_match(g, pool, seed, &st);
    ASSERT_TRUE(validate_match(m.match).empty()) << validate_match(m.match);
    ASSERT_TRUE(validate_cmap(m.match, m.cmap, m.n_coarse).empty());
    EXPECT_LT(m.n_coarse, static_cast<vid_t>(0.75 * 3000));
    EXPECT_GT(st.spec.commits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, GmetisMatchThreads,
                         ::testing::Values(1, 4, 16));

}  // namespace
}  // namespace gp
