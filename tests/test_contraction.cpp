// Tests for the CPU contraction paths: merge_coarse_row (core/matching),
// the dense row merge every CPU contraction shares, and agreement of
// contract_serial with mt_contract at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/matching.hpp"
#include "gen/generators.hpp"
#include "mt/mt_contract.hpp"
#include "serial/hem_matching.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gp {
namespace {

using Row = std::vector<std::pair<vid_t, wgt_t>>;

bool all_unused(const std::vector<vid_t>& slot) {
  return std::all_of(slot.begin(), slot.end(),
                     [](vid_t s) { return s == kInvalidVid; });
}

/// Six vertices.  Pair {0, 1} has an internal arc (weight 3) and reaches
/// vertices 2 and 3 of pair {2, 3} through three arcs (2 + 5 + 4).
/// The cmap is deliberately not monotone, so the pair's row is appended
/// out of label order and has to be sorted.
struct RowFixture {
  CsrGraph g;
  std::vector<vid_t> cmap{2, 2, 1, 1, 0, 3};
  std::vector<vid_t> slot = std::vector<vid_t>(4, kInvalidVid);
  RowFixture() {
    GraphBuilder b(6);
    b.add_edge(0, 1, 3);
    b.add_edge(0, 2, 2);
    b.add_edge(1, 2, 5);
    b.add_edge(1, 3, 4);
    b.add_edge(0, 4, 1);
    b.add_edge(4, 5, 6);
    g = b.build();
  }
};

TEST(Contraction, MergeCoarseRowMergesPair) {
  RowFixture f;
  Row row;
  const std::uint64_t arcs =
      merge_coarse_row(f.g, f.cmap, 0, 1, 2, f.slot, row);
  EXPECT_EQ(arcs, static_cast<std::uint64_t>(f.g.degree(0) + f.g.degree(1)));
  // Label 2 (the pair itself) is gone; labels ascend; 2 + 5 + 4 merged.
  EXPECT_EQ(row, (Row{{0, 1}, {1, 11}}));
  EXPECT_TRUE(all_unused(f.slot));
}

TEST(Contraction, MergeCoarseRowSingleton) {
  RowFixture f;
  Row row{{7, 7}};  // stale content is replaced
  const std::uint64_t arcs =
      merge_coarse_row(f.g, f.cmap, 4, 4, 0, f.slot, row);
  EXPECT_EQ(arcs, static_cast<std::uint64_t>(f.g.degree(4)));
  EXPECT_EQ(row, (Row{{2, 1}, {3, 6}}));
  EXPECT_TRUE(all_unused(f.slot));
}

TEST(Contraction, MergeCoarseRowReusesSlotAcrossRows) {
  RowFixture f;
  Row row;
  (void)merge_coarse_row(f.g, f.cmap, 0, 1, 2, f.slot, row);
  (void)merge_coarse_row(f.g, f.cmap, 2, 3, 1, f.slot, row);
  // Pair {2, 3} sees pair {0, 1} through the same three arcs.
  EXPECT_EQ(row, (Row{{2, 11}}));
  (void)merge_coarse_row(f.g, f.cmap, 5, 5, 3, f.slot, row);
  EXPECT_EQ(row, (Row{{0, 6}}));
  EXPECT_TRUE(all_unused(f.slot));
}

/// HEM plus 2-hop matching over the whole graph, so the fixture holds
/// adjacent pairs, non-adjacent (2-hop) pairs and singletons.
MatchResult match_with_two_hop(const CsrGraph& g, std::uint64_t seed) {
  Rng rng(seed);
  MatchResult m = hem_match_serial(g, rng);
  (void)two_hop_match(g, m.match, 0, g.num_vertices(),
                      two_hop_weight_cap(g, 100));
  auto [cmap, n_coarse] = build_cmap_serial(m.match);
  m.cmap = std::move(cmap);
  m.n_coarse = n_coarse;
  return m;
}

struct PairKinds {
  vid_t singletons = 0;
  vid_t two_hop_pairs = 0;
};

PairKinds count_pair_kinds(const CsrGraph& g, const MatchResult& m) {
  PairKinds k;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const vid_t u = m.match[static_cast<std::size_t>(v)];
    if (u == v) {
      ++k.singletons;
    } else if (v < u) {
      const auto nbrs = g.neighbors(v);
      if (std::find(nbrs.begin(), nbrs.end(), u) == nbrs.end()) {
        ++k.two_hop_pairs;
      }
    }
  }
  return k;
}

void expect_cpu_paths_agree(const CsrGraph& g, const MatchResult& m,
                            const std::string& what) {
  ASSERT_TRUE(validate_match(m.match).empty()) << what;
  ASSERT_TRUE(validate_cmap(m.match, m.cmap, m.n_coarse).empty()) << what;
  const CsrGraph ser = contract_serial(g, m.match, m.cmap, m.n_coarse);
  ASSERT_TRUE(ser.validate().empty()) << what << ": " << ser.validate();
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    const MtContext ctx{&pool, nullptr, 1};
    const CsrGraph par = mt_contract(g, m, ctx, 0);
    EXPECT_EQ(par.adjp(), ser.adjp()) << what << " threads " << threads;
    EXPECT_EQ(par.adjncy(), ser.adjncy()) << what << " threads " << threads;
    EXPECT_EQ(par.adjwgt(), ser.adjwgt()) << what << " threads " << threads;
    EXPECT_EQ(par.vwgt(), ser.vwgt()) << what << " threads " << threads;
  }
}

TEST(Contraction, CpuPathsAgree) {
  {
    const CsrGraph g = fem_slab_graph(10, 12, 4);
    expect_cpu_paths_agree(g, match_with_two_hop(g, 5), "fem_slab");
  }
  {
    const CsrGraph g = road_network_graph(6000, 7);
    const MatchResult m = match_with_two_hop(g, 3);
    const PairKinds k = count_pair_kinds(g, m);
    EXPECT_GT(k.singletons, 0);
    EXPECT_GT(k.two_hop_pairs, 0);
    expect_cpu_paths_agree(g, m, "road_network");
  }
  {
    const CsrGraph g = rmat_graph(12, 40000, 11);
    eid_t max_degree = 0;
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      max_degree = std::max(max_degree, g.degree(v));
    }
    EXPECT_GT(max_degree, 200) << "rmat fixture should have hubs";
    expect_cpu_paths_agree(g, match_with_two_hop(g, 9), "rmat");
  }
}

}  // namespace
}  // namespace gp
