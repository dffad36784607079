// The shared commit kernel of buffered refinement (core/partition.hpp)
// driven directly under contention: every part is at once a destination
// (its owner commits into it) and a source (other owners drain it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/partition.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gp {
namespace {

TEST(RefineCommit, ContendedCommitKeepsBoundsLabelsAndSinkExact) {
  constexpr part_t k = 16;
  constexpr vid_t n = 20000;
  constexpr int rounds = 4;
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("pool size " + std::to_string(threads));
    ThreadPool pool(threads);
    Rng rng(2026);
    std::vector<wgt_t> vw(n);
    std::vector<part_t> where(n);
    std::vector<wgt_t> pw(k, 0);
    for (vid_t v = 0; v < n; ++v) {
      vw[v] = 1 + static_cast<wgt_t>(rng.next_below(5));
      where[v] = static_cast<part_t>(v % k);
      pw[where[v]] += vw[v];
    }
    const wgt_t total = std::accumulate(pw.begin(), pw.end(), wgt_t{0});
    // Tight bounds just outside the starting weights, so both the
    // destination and the source bound reject requests.
    const wgt_t max_pw = *std::max_element(pw.begin(), pw.end()) + 40;
    const wgt_t min_pw = *std::min_element(pw.begin(), pw.end()) - 40;

    for (int round = 0; round < rounds; ++round) {
      // Every vertex requests at most once, into its destination's buffer.
      std::vector<std::vector<MoveProposal>> buffers(k);
      std::uint64_t requested = 0;
      for (vid_t v = 0; v < n; ++v) {
        if (rng.next_below(3) == 0) continue;
        const auto to = static_cast<part_t>(
            (where[v] + 1 + rng.next_below(k - 1)) % k);
        const auto gain = static_cast<wgt_t>(rng.next_below(41)) - 10;
        buffers[to].push_back({v, where[v], to, gain});
        ++requested;
      }
      const std::vector<part_t> before = where;
      // The owner of part q is the only writer of sunk[q] and tallies[q].
      std::vector<std::vector<MoveProposal>> sunk(k);
      std::vector<CommitTally> tallies(k);
      pool.parallel_for_blocked(k, [&](int, std::int64_t b, std::int64_t e) {
        for (std::int64_t q = b; q < e; ++q) {
          auto& buf = buffers[q];
          tallies[q] = commit_requests(
              buf.data(), buf.data() + buf.size(), static_cast<part_t>(q),
              pw.data(), where.data(), max_pw, min_pw,
              [&](const MoveProposal& r) { return vw[r.v]; },
              [&](const MoveProposal& r) { sunk[q].push_back(r); });
        }
      });

      // Weight conserved, every part inside both bounds.
      EXPECT_EQ(std::accumulate(pw.begin(), pw.end(), wgt_t{0}), total);
      for (part_t q = 0; q < k; ++q) {
        EXPECT_LE(pw[q], max_pw) << "part " << q;
        EXPECT_GE(pw[q], min_pw) << "part " << q;
      }
      // Labels agree with a recount of the part weights.
      std::vector<wgt_t> recount(k, 0);
      for (vid_t v = 0; v < n; ++v) recount[where[v]] += vw[v];
      EXPECT_EQ(recount, pw);

      // The sink saw exactly the committed requests, in gain order.
      std::uint64_t scanned = 0, committed = 0, rejected = 0;
      std::set<vid_t> sunk_v;
      for (part_t q = 0; q < k; ++q) {
        scanned += tallies[q].scanned;
        committed += tallies[q].committed;
        rejected += tallies[q].rejected;
        EXPECT_EQ(tallies[q].committed, sunk[q].size());
        for (std::size_t i = 0; i < sunk[q].size(); ++i) {
          const MoveProposal& r = sunk[q][i];
          EXPECT_EQ(r.to, q);
          EXPECT_EQ(where[r.v], q);
          if (i > 0) {
            EXPECT_GE(sunk[q][i - 1].gain, r.gain);
          }
          sunk_v.insert(r.v);
        }
      }
      EXPECT_EQ(scanned, requested);
      EXPECT_EQ(committed + rejected, scanned);
      EXPECT_EQ(sunk_v.size(), committed);
      for (vid_t v = 0; v < n; ++v) {
        EXPECT_EQ(where[v] != before[v], sunk_v.count(v) == 1) << "v " << v;
      }
      EXPECT_GT(committed, 0u);
      EXPECT_GT(rejected, 0u);
    }
  }
}

}  // namespace
}  // namespace gp
