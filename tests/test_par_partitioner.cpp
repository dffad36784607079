// Tests for src/par: the simulated message-passing layer and the
// ParMetis-like distributed partitioner, plus the block distribution,
// move replay and pass-committed loop it shares with gp-metis-multi.
#include <gtest/gtest.h>

#include <tuple>

#include "core/distribution.hpp"
#include "core/matching.hpp"
#include "core/partitioner.hpp"
#include "gen/generators.hpp"
#include "par/comm.hpp"
#include "par/parmetis_partitioner.hpp"

namespace gp {
namespace {

TEST(SimComm, MessagesDeliverNextSuperstep) {
  ThreadPool pool(4);
  SimComm comm(4, pool, nullptr);
  // Superstep 1: rank r sends {r*10} to rank (r+1)%4.
  comm.superstep("send", [&](int r, Mailbox& mb) -> std::uint64_t {
    EXPECT_TRUE(mb.inbox().empty());
    mb.send((r + 1) % 4, std::vector<int>{r * 10});
    return 1;
  });
  // Superstep 2: each rank sees exactly the message from its predecessor.
  comm.superstep("recv", [&](int r, Mailbox& mb) -> std::uint64_t {
    EXPECT_EQ(mb.inbox().size(), 1u);
    const auto data = mb.inbox()[0].as<int>();
    EXPECT_EQ(data.size(), 1u);
    EXPECT_EQ(data[0], ((r + 3) % 4) * 10);
    EXPECT_EQ(mb.inbox()[0].from, (r + 3) % 4);
    return 1;
  });
  EXPECT_EQ(comm.supersteps(), 2u);
}

TEST(SimComm, MessagesDeliveredExactlyOnce) {
  ThreadPool pool(3);
  SimComm comm(3, pool, nullptr);
  comm.superstep("send", [&](int r, Mailbox& mb) -> std::uint64_t {
    for (int dst = 0; dst < 3; ++dst) {
      if (dst != r) mb.send(dst, std::vector<int>{r});
    }
    return 1;
  });
  std::atomic<int> received{0};
  comm.superstep("recv", [&](int, Mailbox& mb) -> std::uint64_t {
    received += static_cast<int>(mb.inbox().size());
    return 1;
  });
  EXPECT_EQ(received.load(), 6);
  // Next superstep: inboxes are empty again (no re-delivery).
  comm.superstep("idle", [&](int, Mailbox& mb) -> std::uint64_t {
    EXPECT_TRUE(mb.inbox().empty());
    return 1;
  });
}

TEST(SimComm, LedgerChargedPerSuperstep) {
  ThreadPool pool(2);
  CostLedger ledger;
  SimComm comm(2, pool, &ledger);
  comm.superstep("w", [&](int r, Mailbox& mb) -> std::uint64_t {
    if (r == 0) mb.send(1, std::vector<double>(100, 1.0));
    return 1000;
  });
  EXPECT_GT(ledger.seconds_with_prefix("compute/w"), 0.0);
  EXPECT_EQ(ledger.bytes_with_prefix("comm/w"), 800u);
}

TEST(SimComm, PodRoundTrip) {
  struct Pod {
    int a;
    double b;
  };
  ThreadPool pool(2);
  SimComm comm(2, pool, nullptr);
  comm.superstep("send", [&](int r, Mailbox& mb) -> std::uint64_t {
    if (r == 0) mb.send(1, std::vector<Pod>{{1, 2.5}, {3, 4.5}});
    return 1;
  });
  comm.superstep("recv", [&](int r, Mailbox& mb) -> std::uint64_t {
    if (r == 1) {
      const auto v = mb.inbox()[0].as<Pod>();
      EXPECT_EQ(v.size(), 2u);
      EXPECT_EQ(v[0].a, 1);
      EXPECT_DOUBLE_EQ(v[1].b, 4.5);
    }
    return 1;
  });
}

class ParRanks : public ::testing::TestWithParam<int> {};

TEST_P(ParRanks, FullPipelineValid) {
  const auto g = delaunay_graph(5000, 3);
  PartitionOptions opts;
  opts.k = 8;
  opts.ranks = GetParam();
  const auto r = ParMetisPartitioner().run(g, opts);
  EXPECT_TRUE(validate_partition(g, r.partition).empty())
      << validate_partition(g, r.partition);
  EXPECT_EQ(r.cut, edge_cut(g, r.partition));
  for (const auto w : partition_weights(g, r.partition)) EXPECT_GT(w, 0);
  EXPECT_LE(r.balance, 1.35);
  EXPECT_GT(r.coarsen_levels, 1);

  // Paranoid audits re-validate every coarse graph, so a per-rank merge
  // buffer concatenated out of order fails the symmetry check.
  const auto road = road_network_graph(20000, 1);
  opts.audit_level = AuditLevel::kParanoid;
  const auto rr = ParMetisPartitioner().run(road, opts);
  EXPECT_TRUE(validate_partition(road, rr.partition).empty())
      << validate_partition(road, rr.partition);
  EXPECT_GT(rr.health.audits_run, 0u);
  EXPECT_EQ(rr.health.audits_failed, 0u);
  EXPECT_EQ(rr.health.fallbacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ranks, ParRanks, ::testing::Values(1, 2, 4, 8));

TEST(ParDriver, QualityComparableToSerial) {
  const auto g = grid2d_graph(64, 64);
  PartitionOptions opts;
  opts.k = 8;
  const auto serial = make_serial_partitioner()->run(g, opts);
  const auto par = ParMetisPartitioner().run(g, opts);
  EXPECT_LT(static_cast<double>(par.cut),
            1.7 * static_cast<double>(serial.cut) + 50.0);
}

TEST(ParDriver, CommCostsAreCharged) {
  const auto g = delaunay_graph(4000, 5);
  PartitionOptions opts;
  opts.k = 8;
  opts.ranks = 8;
  const auto r = ParMetisPartitioner().run(g, opts);
  // A distributed run must have metered ghost exchanges, match requests,
  // and the initial-partitioning broadcast.
  EXPECT_GT(r.ledger.seconds_with_prefix("comm/"), 0.0);
  EXPECT_GT(r.ledger.bytes_with_prefix("comm/ghost/"), 0u);
  EXPECT_GT(r.ledger.bytes_with_prefix("comm/initpart/broadcast"), 0u);
}

TEST(ParDriver, SingleRankHasNoPointToPointTraffic) {
  const auto g = grid2d_graph(40, 40);
  PartitionOptions opts;
  opts.k = 4;
  opts.ranks = 1;
  const auto r = ParMetisPartitioner().run(g, opts);
  EXPECT_TRUE(validate_partition(g, r.partition).empty());
  // With one rank there are no remote neighbours, hence no ghost bytes.
  EXPECT_EQ(r.ledger.bytes_with_prefix("comm/ghost/"), 0u);
}

TEST(ParDriver, ModeledSlowerThanMtButFasterThanSerial) {
  // Fig. 5's ordering: ParMetis beats serial Metis but loses to mt-metis
  // (message overhead).  A road network makes the gap structural — its
  // enormous boundary-to-size ratio keeps the ghost exchanges expensive.
  const auto g = road_network_graph(120000, 11);
  PartitionOptions opts;
  opts.k = 16;
  const auto serial = make_serial_partitioner()->run(g, opts);
  const auto par = ParMetisPartitioner().run(g, opts);
  const auto mt = make_mt_partitioner()->run(g, opts);
  EXPECT_LT(par.modeled_seconds, serial.modeled_seconds);
  EXPECT_GT(par.modeled_seconds, mt.modeled_seconds);
}

TEST(ParDriver, FactoryName) {
  EXPECT_EQ(make_par_partitioner()->name(), "parmetis");
}

/// A graph with the given vertex weights and no edges: the replay reads
/// vertex weights only.
CsrGraph weighted_vertices(const std::vector<wgt_t>& w) {
  GraphBuilder b(static_cast<vid_t>(w.size()));
  for (std::size_t v = 0; v < w.size(); ++v) {
    b.set_vertex_weight(static_cast<vid_t>(v), w[v]);
  }
  return b.build();
}

std::vector<vid_t> moved_vertices(const std::vector<MoveProposal>& moves) {
  std::vector<vid_t> out;
  for (const auto& mv : moves) out.push_back(mv.v);
  return out;
}

TEST(ReplayMoves, CommitsByGainThenVertex) {
  const auto g = weighted_vertices({1, 1, 1, 1});
  std::vector<wgt_t> pw = {4, 0};
  const auto committed = replay_moves(
      g.vwgt(), {{3, 0, 1, 5}, {1, 0, 1, 7}, {2, 0, 1, 5}, {0, 0, 1, -1}}, pw,
      /*max_pw=*/10, /*min_pw=*/0);
  EXPECT_EQ(moved_vertices(committed), (std::vector<vid_t>{1, 2, 3, 0}));
  EXPECT_EQ(pw, (std::vector<wgt_t>{0, 4}));
}

TEST(ReplayMoves, DestinationStaysAtOrBelowMax) {
  const auto g = weighted_vertices({1, 1, 1, 1});
  std::vector<wgt_t> pw = {2, 1, 1};
  // v0 fills part 1 exactly to max_pw; v1 would overfill it, while v2
  // still fits into part 2.
  const auto committed = replay_moves(
      g.vwgt(), {{0, 0, 1, 3}, {1, 0, 1, 2}, {2, 0, 2, 1}}, pw, /*max_pw=*/2,
      /*min_pw=*/0);
  EXPECT_EQ(moved_vertices(committed), (std::vector<vid_t>{0, 2}));
  EXPECT_EQ(pw, (std::vector<wgt_t>{0, 2, 2}));
}

TEST(ReplayMoves, SourceStaysAtOrAboveMin) {
  const auto g = weighted_vertices({1, 1, 1});
  std::vector<wgt_t> pw = {3, 1};
  // v0 drains part 0 exactly to min_pw; v1 and v2 would underfill it.
  const auto committed = replay_moves(
      g.vwgt(), {{0, 0, 1, 3}, {1, 0, 1, 2}, {2, 0, 1, 1}}, pw, /*max_pw=*/10,
      /*min_pw=*/2);
  EXPECT_EQ(moved_vertices(committed), (std::vector<vid_t>{0}));
  EXPECT_EQ(pw, (std::vector<wgt_t>{2, 2}));
}

TEST(ReplayMoves, OverweightSourceMayDrainBelowMin) {
  const auto g = weighted_vertices({3, 1});
  std::vector<wgt_t> pw = {5, 0};
  // Part 0 is over max_pw, so v0 may leave it below min_pw; once it is
  // no longer overweight, v1 may not drain it further.
  const auto committed = replay_moves(g.vwgt(), {{0, 0, 1, 2}, {1, 0, 1, 1}},
                                      pw, /*max_pw=*/4, /*min_pw=*/3);
  EXPECT_EQ(moved_vertices(committed), (std::vector<vid_t>{0}));
  EXPECT_EQ(pw, (std::vector<wgt_t>{2, 3}));
}

/// (v, from, to, gain) of each move, for comparing move lists.
std::vector<std::tuple<vid_t, part_t, part_t, wgt_t>> move_tuples(
    const std::vector<MoveProposal>& moves) {
  std::vector<std::tuple<vid_t, part_t, part_t, wgt_t>> out;
  for (const auto& mv : moves) out.emplace_back(mv.v, mv.from, mv.to, mv.gain);
  return out;
}

/// A fake proposer for refine_pass_committed: every vertex of `where`
/// proposes the next part in the pass's direction, cyclically, with gain
/// v.  It records each pass's direction and, from a copy of the loop's
/// part weights, the moves replay_moves must return for the pass.
struct CyclicProposer {
  const CsrGraph& g;
  std::vector<part_t>& where;
  const std::vector<wgt_t>& pw;
  part_t k;
  wgt_t max_pw, min_pw;
  std::vector<bool> upward_seen;
  std::vector<MoveProposal> expected;

  std::vector<MoveProposal> operator()(int pass, bool upward) {
    EXPECT_EQ(pass, std::ssize(upward_seen));
    upward_seen.push_back(upward);
    std::vector<MoveProposal> out;
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      const part_t from = where[static_cast<std::size_t>(v)];
      out.push_back({v, from, (from + (upward ? 1 : k - 1)) % k, v});
    }
    std::vector<wgt_t> pw_copy = pw;
    expected = replay_moves(g.vwgt(), out, pw_copy, max_pw, min_pw);
    return out;
  }
};

TEST(RefinePassCommitted, AlternatesDirectionsAndAppliesWhatReplayCommits) {
  const auto g = weighted_vertices({1, 2, 1, 3, 1, 2});
  Partition p{3, {0, 0, 1, 1, 2, 2}};
  std::vector<wgt_t> pw = partition_weights(g, p);
  // The bounds reject some proposals and admit others.
  CyclicProposer propose{g, p.where, pw, p.k, /*max_pw=*/5, /*min_pw=*/2,
                         {}, {}};
  int applied = 0;
  const int passes = refine_pass_committed(
      g.vwgt(), pw, 5, 2, /*max_passes=*/4, propose,
      [&](int pass, std::vector<MoveProposal> moves) {
        EXPECT_EQ(pass, applied++);
        EXPECT_EQ(move_tuples(moves), move_tuples(propose.expected));
        for (const auto& mv : moves) {
          p.where[static_cast<std::size_t>(mv.v)] = mv.to;
        }
      });
  EXPECT_EQ(passes, 4);
  EXPECT_EQ(applied, 4);
  EXPECT_EQ(propose.upward_seen, (std::vector<bool>{true, false, true, false}));
  EXPECT_EQ(pw, partition_weights(g, p));
}

TEST(RefinePassCommitted, StopsAtThePassBudget) {
  const auto g = weighted_vertices({1, 1, 1});
  Partition p{3, {0, 1, 2}};
  std::vector<wgt_t> pw = partition_weights(g, p);
  // Unbounded: every pass commits every proposal, so only the budget
  // stops the loop.
  CyclicProposer propose{g, p.where, pw, p.k, 10, 0, {}, {}};
  for (const int budget : {0, 1, 3}) {
    propose.upward_seen.clear();
    const int passes = refine_pass_committed(
        g.vwgt(), pw, 10, 0, budget, propose,
        [&](int, std::vector<MoveProposal> moves) {
          EXPECT_EQ(moves.size(), 3u);
          for (const auto& mv : moves) {
            p.where[static_cast<std::size_t>(mv.v)] = mv.to;
          }
        });
    EXPECT_EQ(passes, budget);
    EXPECT_EQ(std::ssize(propose.upward_seen), budget);
    EXPECT_EQ(pw, partition_weights(g, p));
  }
}

TEST(RefinePassCommitted, StopsAfterTwoIdlePassesInARow) {
  const auto g = weighted_vertices({1, 1});
  Partition p{2, {0, 0}};
  std::vector<wgt_t> pw = partition_weights(g, p);
  // Pass 0 commits nothing, pass 1 commits, passes 2 and 3 commit
  // nothing: pass 3's proposal would overfill part 1.
  std::vector<int> proposed_at;
  std::vector<std::size_t> committed;
  const int passes = refine_pass_committed(
      g.vwgt(), pw, /*max_pw=*/1, /*min_pw=*/0, /*max_passes=*/10,
      [&](int pass, bool) {
        proposed_at.push_back(pass);
        std::vector<MoveProposal> out;
        if (pass == 1) out.push_back({0, 0, 1, 1});
        if (pass == 3) out.push_back({1, 0, 1, 1});
        return out;
      },
      [&](int, std::vector<MoveProposal> moves) {
        committed.push_back(moves.size());
        for (const auto& mv : moves) {
          p.where[static_cast<std::size_t>(mv.v)] = mv.to;
        }
      });
  EXPECT_EQ(passes, 4);
  EXPECT_EQ(proposed_at, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1, 0, 0}));
  EXPECT_EQ(pw, partition_weights(g, p));
}

TEST(Distribution, OwnerFindsEachVertexBlock) {
  const auto d = Distribution::block(10, 3);
  EXPECT_EQ(d.vtxdist, (std::vector<vid_t>{0, 3, 6, 10}));
  for (vid_t v = 0; v < 10; ++v) {
    const int r = d.owner(v);
    EXPECT_LE(d.begin(r), v);
    EXPECT_LT(v, d.end(r));
  }
  EXPECT_EQ(d.owner(2), 0);
  EXPECT_EQ(d.owner(3), 1);
  EXPECT_EQ(d.owner(9), 2);
}

TEST(Distribution, FromCountsKeepsEmptyBlocks) {
  const auto d = Distribution::from_counts({2, 0, 3, 0});
  EXPECT_EQ(d.vtxdist, (std::vector<vid_t>{0, 2, 2, 5, 5}));
  EXPECT_EQ(d.begin(1), d.end(1));
  EXPECT_EQ(d.owner(1), 0);
  EXPECT_EQ(d.owner(2), 2);
  EXPECT_EQ(d.owner(4), 2);
}

TEST(Distribution, MoreBlocksThanVertices) {
  // More devices than vertices, as on the coarse levels of
  // MultiGpu.MoreDevicesThanWorkStillValid: most blocks are empty and
  // every vertex is owned by the one non-empty block holding it.
  const auto d = Distribution::block(3, 8);
  EXPECT_EQ(d.vtxdist, (std::vector<vid_t>{0, 0, 0, 1, 1, 1, 2, 2, 3}));
  EXPECT_EQ(d.owner(0), 2);
  EXPECT_EQ(d.owner(1), 5);
  EXPECT_EQ(d.owner(2), 7);
  std::vector<vid_t> counts;
  for (int r = 0; r < 8; ++r) counts.push_back(d.end(r) - d.begin(r));
  EXPECT_EQ(Distribution::from_counts(counts).vtxdist, d.vtxdist);
}

}  // namespace
}  // namespace gp
