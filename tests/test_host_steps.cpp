// Tests for the host V-cycle steps written once over a block runner
// (core/host_steps.hpp): the blocked gain-cache build, the blocked cache
// projection and the coarse-row merge.  Each runs under metis's serial
// runner, mt-metis's pool runner (ThreadPool::block_range blocks) and
// parmetis's rank runner (Distribution::block blocks) at 1, 2, 3 and 8
// blocks and at more blocks than vertices, so some blocks are empty.
// Whatever the split, the result must equal the serial reference and the
// blocks' work must sum to the serial charge.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/distribution.hpp"
#include "core/gain_cache.hpp"
#include "core/host_steps.hpp"
#include "core/matching.hpp"
#include "core/partition.hpp"
#include "gen/generators.hpp"
#include "mt/mt_context.hpp"
#include "par/comm.hpp"
#include "serial/hem_matching.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gp {
namespace {

/// Forwards each step to `inner` and sums the work its blocks return.
class Tally final : public BlockRunner {
 public:
  explicit Tally(const BlockRunner& inner) : inner_(inner) {}
  [[nodiscard]] int blocks() const override { return inner_.blocks(); }
  void run(const std::string& label, vid_t n,
           const BlockBody& body) const override {
    inner_.run(label, n, [&](int blk, vid_t b, vid_t e) {
      const std::uint64_t w = body(blk, b, e);
      total += w;
      return w;
    });
  }
  mutable std::atomic<std::uint64_t> total{0};

 private:
  const BlockRunner& inner_;
};

enum class Cut { kSerial, kPool, kRanks };

struct Split {
  Cut cut;
  int blocks;
};

/// The fixture graph has 60 vertices, so 64 blocks leave some empty.
constexpr vid_t kWidth = 10, kHeight = 6;
const Split kSplits[] = {
    {Cut::kSerial, 1}, {Cut::kPool, 1},  {Cut::kPool, 2},  {Cut::kPool, 3},
    {Cut::kPool, 8},   {Cut::kPool, 64}, {Cut::kRanks, 1}, {Cut::kRanks, 2},
    {Cut::kRanks, 3},  {Cut::kRanks, 8}, {Cut::kRanks, 64}};

std::string describe(const Split& s) {
  const char* names[] = {"serial", "pool", "ranks"};
  return std::string(names[static_cast<int>(s.cut)]) + " x" +
         std::to_string(s.blocks);
}

/// Calls check(runner) with a runner for `s` over n items, wrapped in a
/// Tally; returns the work its blocks reported.
template <typename Check>
std::uint64_t with_runner(const Split& s, vid_t n, Check&& check) {
  ThreadPool pool(s.blocks);
  SimComm comm(s.blocks, pool, nullptr);
  const Distribution dist = Distribution::block(n, s.blocks);
  const SerialRunner serial(nullptr);
  const PoolRunner threads(MtContext{&pool, nullptr, 1});
  const RankRunner ranks(comm, dist);
  const BlockRunner* inner = &serial;
  if (s.cut == Cut::kPool) inner = &threads;
  if (s.cut == Cut::kRanks) inner = &ranks;
  EXPECT_EQ(inner->blocks(), s.blocks);
  const Tally tally(*inner);
  check(tally);
  return tally.total.load();
}

std::vector<part_t> random_where(vid_t n, part_t k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<part_t> where(static_cast<std::size_t>(n));
  for (auto& w : where) {
    w = static_cast<part_t>(rng() % static_cast<std::uint64_t>(k));
  }
  return where;
}

/// One coarsening step of the fixture grid: HEM with 2-hop pairs and the
/// serial cmap.
MatchResult fixture_match(const CsrGraph& g) {
  Rng rng(7);
  MatchResult m = hem_match_serial(g, rng);
  (void)two_hop_match(g, m.match, 0, g.num_vertices(),
                      two_hop_weight_cap(g, 4));
  auto [cmap, n_coarse] = build_cmap_serial(m.match);
  m.cmap = std::move(cmap);
  m.n_coarse = n_coarse;
  return m;
}

TEST(HostSteps, BuildMatchesGainCacheBuild) {
  const CsrGraph g = grid2d_graph(kWidth, kHeight);
  const part_t k = 4;
  const auto where = random_where(g.num_vertices(), k, 3);
  for (const Split& s : kSplits) {
    SCOPED_TRACE(describe(s));
    GainCache cache;
    const std::uint64_t work =
        with_runner(s, g.num_vertices(), [&](const BlockRunner& run) {
          build_gain_cache(run, "build", g, where, k, cache);
        });
    EXPECT_EQ(cache.compare_to_rebuild(g, where), "");
    EXPECT_EQ(cache.cut(), edge_cut(g, Partition{k, where}));
    EXPECT_EQ(work, static_cast<std::uint64_t>(g.num_arcs()) +
                        static_cast<std::uint64_t>(g.num_vertices()));
  }
}

TEST(HostSteps, ProjectionMatchesSerialProjection) {
  const CsrGraph fine = grid2d_graph(kWidth, kHeight);
  const MatchResult m = fixture_match(fine);
  const CsrGraph coarse =
      contract_serial(fine, m.match, m.cmap, m.n_coarse);
  // Two halves of the coarse ids: both the interior shortcut and the
  // boundary rescan of the projection run.
  const part_t k = 2;
  std::vector<part_t> coarse_where(static_cast<std::size_t>(m.n_coarse));
  for (vid_t c = 0; c < m.n_coarse; ++c) {
    coarse_where[static_cast<std::size_t>(c)] = 2 * c < m.n_coarse ? 0 : 1;
  }
  GainCache coarse_cache;
  coarse_cache.build(coarse, coarse_where, k);
  vid_t interior = 0;
  for (vid_t c = 0; c < m.n_coarse; ++c) {
    interior += coarse_cache.boundary(c) ? 0 : 1;
  }
  ASSERT_GT(interior, 0);
  ASSERT_LT(interior, m.n_coarse);
  const auto fine_where = project_partition(m.cmap, coarse_where);

  for (const Split& s : kSplits) {
    SCOPED_TRACE(describe(s));
    GainCache cache;
    const std::uint64_t work =
        with_runner(s, fine.num_vertices(), [&](const BlockRunner& run) {
          cache = project_gain_cache(run, "project", coarse_cache, fine,
                                     fine_where, m.cmap, k);
        });
    EXPECT_EQ(cache.compare_to_rebuild(fine, fine_where), "");
    // Either branch streams deg(v) + 1 per vertex.
    EXPECT_EQ(work, static_cast<std::uint64_t>(fine.num_arcs()) +
                        static_cast<std::uint64_t>(fine.num_vertices()));
  }
}

TEST(HostSteps, CoarseRowsMatchContractSerial) {
  const CsrGraph fine = grid2d_graph(kWidth, kHeight);
  const MatchResult m = fixture_match(fine);
  const CsrGraph ref = contract_serial(fine, m.match, m.cmap, m.n_coarse);
  for (const Split& s : kSplits) {
    SCOPED_TRACE(describe(s));
    CoarseRows rows(m.n_coarse, s.blocks);
    // metis's leader order: vertex order, each leader labelled by cmap.
    const std::uint64_t work =
        with_runner(s, fine.num_vertices(), [&](const BlockRunner& run) {
          run.run("contract", fine.num_vertices(),
                  [&](int blk, vid_t b, vid_t e) {
                    std::uint64_t w = 0;
                    for (vid_t v = b; v < e; ++v) {
                      const vid_t mv = m.match[static_cast<std::size_t>(v)];
                      if (v > mv) continue;
                      w += rows.merge(fine, m.cmap, blk, v, mv,
                                      m.cmap[static_cast<std::size_t>(v)]);
                    }
                    return w;
                  });
        });
    const CsrGraph coarse = rows.stitch();
    EXPECT_EQ(coarse.adjp(), ref.adjp());
    EXPECT_EQ(coarse.adjncy(), ref.adjncy());
    EXPECT_EQ(coarse.adjwgt(), ref.adjwgt());
    EXPECT_EQ(coarse.vwgt(), ref.vwgt());
    EXPECT_EQ(work, static_cast<std::uint64_t>(fine.num_arcs()));
  }
}

}  // namespace
}  // namespace gp
