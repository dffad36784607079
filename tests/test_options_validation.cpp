// Tests for the shared (graph, options) precondition validation and for
// each driver's behaviour at the legal boundaries (k = 1, k = n, tiny
// graphs).
#include <gtest/gtest.h>

#include <limits>

#include "core/partitioner.hpp"
#include "gen/generators.hpp"
#include "service/engine.hpp"

namespace gp {
namespace {

std::vector<std::unique_ptr<Partitioner>> all_partitioners() {
  std::vector<std::unique_ptr<Partitioner>> v;
  v.push_back(make_serial_partitioner());
  v.push_back(make_mt_partitioner());
  v.push_back(make_par_partitioner());
  v.push_back(make_hybrid_partitioner());
  return v;
}

TEST(Validation, RejectsBadK) {
  const auto g = grid2d_graph(4, 4);
  for (const auto& p : all_partitioners()) {
    PartitionOptions opts;
    opts.k = 0;
    EXPECT_THROW(p->run(g, opts), std::invalid_argument) << p->name();
    opts.k = -3;
    EXPECT_THROW(p->run(g, opts), std::invalid_argument) << p->name();
    opts.k = 17;  // > n = 16
    EXPECT_THROW(p->run(g, opts), std::invalid_argument) << p->name();
  }
}

TEST(Validation, RejectsBadEps) {
  const auto g = grid2d_graph(4, 4);
  PartitionOptions opts;
  opts.k = 2;
  opts.eps = -0.1;
  EXPECT_THROW(validate_options(g, opts), std::invalid_argument);
  opts.eps = 1.0;
  EXPECT_THROW(validate_options(g, opts), std::invalid_argument);
  opts.eps = 0.0;
  EXPECT_NO_THROW(validate_options(g, opts));
}

TEST(Validation, RejectsBadThreadsRanks) {
  const auto g = grid2d_graph(4, 4);
  PartitionOptions opts;
  opts.k = 2;
  opts.threads = 0;
  EXPECT_THROW(validate_options(g, opts), std::invalid_argument);
  opts.threads = 8;
  opts.ranks = 0;
  EXPECT_THROW(validate_options(g, opts), std::invalid_argument);
}

TEST(Validation, RejectsFewerThanOneDevice) {
  // Checked on validate_options alone, so no driver starts: gp-metis-multi
  // would otherwise have to pick a device count of its own.
  const auto g = grid2d_graph(4, 4);
  PartitionOptions opts;
  opts.k = 2;
  for (const int bad : {0, -3}) {
    opts.gpu_devices = bad;
    EXPECT_THROW(validate_options(g, opts), std::invalid_argument) << bad;
  }
  opts.gpu_devices = 1;
  EXPECT_NO_THROW(validate_options(g, opts));
}

TEST(Validation, RejectsFewerThanOneGpuThreadOrInitTrial) {
  // Checked on validate_options alone: the drivers would otherwise clamp
  // either value to 1 and run as if it had been given.
  const auto g = grid2d_graph(4, 4);
  PartitionOptions opts;
  opts.k = 2;
  for (const int bad : {0, -5}) {
    opts.gpu_threads = bad;
    EXPECT_THROW(validate_options(g, opts), std::invalid_argument) << bad;
  }
  opts.gpu_threads = 1;
  for (const int bad : {0, -4}) {
    opts.init_trials = bad;
    EXPECT_THROW(validate_options(g, opts), std::invalid_argument) << bad;
  }
  opts.init_trials = 1;
  EXPECT_NO_THROW(validate_options(g, opts));
}

TEST(Validation, RejectsMinShrinkOutsideOpenUnitInterval) {
  // Checked on validate_options alone: a driver run at 1.0 on a graph
  // whose matching stalls would never stop coarsening.
  const auto g = grid2d_graph(4, 4);
  PartitionOptions opts;
  opts.k = 2;
  for (const double bad : {1.0, 1.5, 0.0, -0.5,
                           std::numeric_limits<double>::quiet_NaN()}) {
    opts.min_shrink = bad;
    EXPECT_THROW(validate_options(g, opts), std::invalid_argument) << bad;
  }
  opts.min_shrink = 0.95;
  EXPECT_NO_THROW(validate_options(g, opts));
}

TEST(Validation, KEqualsOneIsIdentityPartition) {
  const auto g = grid2d_graph(8, 8);
  for (const auto& p : all_partitioners()) {
    PartitionOptions opts;
    opts.k = 1;
    const auto r = p->run(g, opts);
    EXPECT_TRUE(validate_partition(g, r.partition).empty()) << p->name();
    EXPECT_EQ(r.cut, 0) << p->name();
  }
}

TEST(Validation, KEqualsNWorks) {
  // One vertex per part: cut = total edge weight, perfectly balanced.
  const auto g = grid2d_graph(3, 3);
  for (const auto& p : all_partitioners()) {
    PartitionOptions opts;
    opts.k = 9;
    opts.eps = 0.0;
    const auto r = p->run(g, opts);
    EXPECT_TRUE(validate_partition(g, r.partition).empty()) << p->name();
    // Not all drivers reach the singleton optimum, but every part must
    // hold at least one vertex when k == n.
    auto pw = partition_weights(g, r.partition);
    for (const auto w : pw) EXPECT_GE(w, 1) << p->name();
  }
}

TEST(Validation, TinyAndDegenerateGraphs) {
  // Two vertices, one edge, k = 2.
  GraphBuilder b(2);
  b.add_edge(0, 1);
  const auto g = b.build();
  for (const auto& p : all_partitioners()) {
    PartitionOptions opts;
    opts.k = 2;
    const auto r = p->run(g, opts);
    EXPECT_TRUE(validate_partition(g, r.partition).empty()) << p->name();
    EXPECT_EQ(r.cut, 1) << p->name();
  }
}

TEST(Validation, EdgelessGraph) {
  // Isolated vertices: any balanced assignment has cut 0.
  GraphBuilder b(8);
  const auto g = b.build();
  for (const auto& p : all_partitioners()) {
    PartitionOptions opts;
    opts.k = 4;
    const auto r = p->run(g, opts);
    EXPECT_TRUE(validate_partition(g, r.partition).empty()) << p->name();
    EXPECT_EQ(r.cut, 0) << p->name();
  }
}

TEST(Validation, DisconnectedGraph) {
  // Two separate grids; partitioners must still produce k valid parts.
  GraphBuilder b(32);
  for (vid_t base : {0, 16}) {
    for (vid_t y = 0; y < 4; ++y) {
      for (vid_t x = 0; x < 4; ++x) {
        const vid_t v = base + y * 4 + x;
        if (x + 1 < 4) b.add_edge(v, v + 1);
        if (y + 1 < 4) b.add_edge(v, v + 4);
      }
    }
  }
  const auto g = b.build();
  for (const auto& p : all_partitioners()) {
    PartitionOptions opts;
    opts.k = 4;
    const auto r = p->run(g, opts);
    EXPECT_TRUE(validate_partition(g, r.partition).empty()) << p->name();
  }
}

// --- service-mode configuration (gpmetis --serve flags land here) ---

TEST(Validation, ServeRejectsBadQueueDepth) {
  ServiceConfig cfg;
  cfg.queue_depth = 0;
  EXPECT_THROW(validate_service_config(cfg), std::invalid_argument);
}

TEST(Validation, ServeRejectsBadDeadline) {
  ServiceConfig cfg;
  cfg.default_deadline_seconds = -1.0;
  EXPECT_THROW(validate_service_config(cfg), std::invalid_argument);
  cfg.default_deadline_seconds = 0.0;  // 0 = no deadline, legal
  EXPECT_NO_THROW(validate_service_config(cfg));
}

TEST(Validation, ServeRejectsBadRetryPolicy) {
  ServiceConfig cfg;
  cfg.retry.max_attempts = 0;
  EXPECT_THROW(validate_service_config(cfg), std::invalid_argument);
  cfg = ServiceConfig{};
  cfg.retry.backoff_multiplier = 0.9;  // backoff may not shrink
  EXPECT_THROW(validate_service_config(cfg), std::invalid_argument);
  cfg = ServiceConfig{};
  cfg.retry.jitter = -0.1;
  EXPECT_THROW(validate_service_config(cfg), std::invalid_argument);
}

TEST(Validation, ServeRejectsBadWorkersAndBudget) {
  ServiceConfig cfg;
  cfg.workers = -2;
  EXPECT_THROW(validate_service_config(cfg), std::invalid_argument);
  cfg = ServiceConfig{};
  cfg.cost_budget_seconds = -5.0;
  EXPECT_THROW(validate_service_config(cfg), std::invalid_argument);
  EXPECT_NO_THROW(validate_service_config(ServiceConfig{}));
}

// A service request with invalid *partition* options must flow through
// the same validate_options path as one-shot runs: the request fails
// fast (no retry — a malformed request cannot be ladder-fixed).
TEST(Validation, ServeRequestWithBadOptionsFailsWithoutRetry) {
  const auto g = grid2d_graph(4, 4);
  ServiceConfig cfg;
  cfg.workers = 0;
  ServiceEngine engine(cfg);
  PartitionOptions opts;
  opts.k = 0;
  auto t = engine.submit(g, opts, Priority::kNormal, -1, "metis");
  ASSERT_TRUE(engine.run_one());
  const auto out = t->wait();
  EXPECT_EQ(out.state, RequestState::kFailed);
  EXPECT_EQ(out.attempts, 1);
  ASSERT_EQ(out.attempt_trail.size(), 1u);
  EXPECT_EQ(out.attempt_trail[0].rfind("metis:invalid", 0), 0u)
      << out.attempt_trail[0];
  EXPECT_EQ(engine.stats().retries, 0u);
  EXPECT_EQ(engine.stats().failed, 1u);
}

}  // namespace
}  // namespace gp
