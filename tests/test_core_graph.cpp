// Unit tests for src/core: CSR graph, builder, partition metrics, graph ops,
// matching/cmap/contraction reference implementations.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/csr_graph.hpp"
#include "core/graph_ops.hpp"
#include "core/matching.hpp"
#include "core/partition.hpp"
#include "util/rng.hpp"

namespace gp {
namespace {

/// Path graph 0-1-2-...-(n-1), unit weights.
CsrGraph make_path(vid_t n) {
  GraphBuilder b(n);
  for (vid_t v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

/// Complete graph K_n.
CsrGraph make_complete(vid_t n) {
  GraphBuilder b(n);
  for (vid_t u = 0; u < n; ++u)
    for (vid_t v = u + 1; v < n; ++v) b.add_edge(u, v);
  return b.build();
}

TEST(GraphBuilder, BuildsValidPath) {
  const auto g = make_path(5);
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.num_arcs(), 8);
  EXPECT_TRUE(g.validate().empty()) << g.validate();
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(2), 2);
}

TEST(GraphBuilder, MergesDuplicateEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 2);
  b.add_edge(1, 0, 3);  // duplicate, reversed
  b.add_edge(1, 2, 1);
  const auto g = b.build();
  EXPECT_TRUE(g.validate().empty()) << g.validate();
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.neighbor_weights(0)[0], 5);  // 2 + 3 merged
}

TEST(GraphBuilder, DropsSelfLoops) {
  GraphBuilder b(2);
  b.add_edge(0, 0, 7);
  b.add_edge(0, 1, 1);
  const auto g = b.build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_TRUE(g.validate().empty());
}

TEST(GraphBuilder, VertexWeights) {
  GraphBuilder b(2);
  b.set_vertex_weight(0, 10);
  b.add_edge(0, 1);
  const auto g = b.build();
  EXPECT_EQ(g.vertex_weight(0), 10);
  EXPECT_EQ(g.vertex_weight(1), 1);
  EXPECT_EQ(g.total_vertex_weight(), 11);
}

TEST(CsrGraph, ValidateCatchesAsymmetry) {
  // Hand-built broken graph: arc 0->1 but no 1->0.
  CsrGraph g({0, 1, 1}, {1}, {1}, {1, 1});
  EXPECT_FALSE(g.validate().empty());
}

TEST(CsrGraph, ValidateCatchesOutOfRange) {
  CsrGraph g({0, 1, 2}, {5, 0}, {1, 1}, {1, 1});
  EXPECT_FALSE(g.validate().empty());
}

/// Two vertices, one edge, written out arc by arc.
CsrGraph two_vertex_graph(std::vector<vid_t> adjncy, std::vector<wgt_t> adjwgt,
                          std::vector<eid_t> adjp = {0, 1, 2}) {
  return CsrGraph(std::move(adjp), std::move(adjncy), std::move(adjwgt),
                  {1, 1});
}

TEST(CsrGraph, ValidateCatchesDuplicateNeighbour) {
  const auto g = two_vertex_graph({1, 1, 0, 0}, {1, 1, 1, 1}, {0, 2, 4});
  EXPECT_EQ(g.validate(), "duplicate neighbour 1 at vertex 0");
}

TEST(CsrGraph, ValidateCatchesAsymmetricWeight) {
  const auto g = two_vertex_graph({1, 0}, {2, 3});
  // Which endpoint the message names first is not part of the contract.
  EXPECT_EQ(g.validate().rfind("asymmetric weight on edge {", 0), 0u)
      << g.validate();
}

TEST(CsrGraph, ValidateCatchesMissingReverseArc) {
  const auto g = two_vertex_graph({1}, {1}, {0, 1, 1});
  EXPECT_EQ(g.validate(), "asymmetric arc 0->1");
}

TEST(CsrGraph, ValidateCatchesSelfLoop) {
  const auto g = two_vertex_graph({0, 1, 0}, {1, 1, 1}, {0, 2, 3});
  EXPECT_EQ(g.validate(), "self loop at vertex 0");
}

TEST(CsrGraph, ValidateCatchesNonPositiveArcWeight) {
  const auto g = two_vertex_graph({1, 0}, {0, 0});
  EXPECT_EQ(g.validate(), "non-positive arc weight at vertex 0");
}

TEST(CsrGraph, ValidateAcceptsLargeStar) {
  // A 2,000-leaf hub: the checks must not depend on the hub's degree.
  const vid_t leaves = 2000;
  GraphBuilder b(leaves + 1);
  for (vid_t leaf = 1; leaf <= leaves; ++leaf) b.add_edge(0, leaf, leaf);
  const auto g = b.build();
  EXPECT_EQ(g.validate(), "");
  // Breaking one leaf's reverse weight is still caught.
  auto broken = g;
  broken.mutable_adjwgt().back() += 1;
  EXPECT_EQ(broken.validate().rfind("asymmetric weight on edge {", 0), 0u)
      << broken.validate();
}

TEST(CsrGraph, EmptyGraphIsValid) {
  CsrGraph g({0}, {}, {}, {});
  EXPECT_TRUE(g.validate().empty());
  EXPECT_EQ(g.num_vertices(), 0);
}

TEST(PartitionMetrics, EdgeCutOnPath) {
  const auto g = make_path(4);  // edges {0,1},{1,2},{2,3}
  Partition p{2, {0, 0, 1, 1}};
  EXPECT_EQ(edge_cut(g, p), 1);
  Partition q{2, {0, 1, 0, 1}};
  EXPECT_EQ(edge_cut(g, q), 3);
}

TEST(PartitionMetrics, WeightsAndBalance) {
  const auto g = make_path(4);
  Partition p{2, {0, 0, 1, 1}};
  const auto w = partition_weights(g, p);
  EXPECT_EQ(w[0], 2);
  EXPECT_EQ(w[1], 2);
  EXPECT_DOUBLE_EQ(partition_balance(g, p), 1.0);
  Partition q{2, {0, 0, 0, 1}};
  EXPECT_DOUBLE_EQ(partition_balance(g, q), 1.5);
}

TEST(PartitionMetrics, CommunicationVolumeAndBoundary) {
  const auto g = make_path(4);
  Partition p{2, {0, 0, 1, 1}};
  EXPECT_EQ(communication_volume(g, p), 2);  // vertices 1 and 2
  EXPECT_EQ(boundary_size(g, p), 2);
}

TEST(PartitionMetrics, ValidatePartition) {
  const auto g = make_path(3);
  Partition ok{2, {0, 1, 1}};
  EXPECT_TRUE(validate_partition(g, ok).empty());
  Partition bad_size{2, {0, 1}};
  EXPECT_FALSE(validate_partition(g, bad_size).empty());
  Partition bad_range{2, {0, 1, 2}};
  EXPECT_FALSE(validate_partition(g, bad_range).empty());
}

TEST(PartitionMetrics, MaxMinPartWeight) {
  EXPECT_EQ(max_part_weight(100, 4, 0.03), 26);  // ceil(25 * 1.03)
  EXPECT_EQ(min_part_weight(100, 4, 0.03), 24);  // floor(25 * 0.97)
}

TEST(GraphOps, Components) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const auto g = b.build();
  EXPECT_EQ(count_components(g), 3);  // {0,1} {2,3} {4}
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(make_path(10)));
}

TEST(GraphOps, PermutePreservesStructure) {
  const auto g = make_path(4);
  std::vector<vid_t> perm = {3, 2, 1, 0};  // reverse
  const auto h = permute(g, perm);
  EXPECT_TRUE(h.validate().empty()) << h.validate();
  EXPECT_EQ(h.num_edges(), g.num_edges());
  // Old edge {0,1} becomes {3,2}.
  bool found = false;
  for (const vid_t u : h.neighbors(3)) found |= (u == 2);
  EXPECT_TRUE(found);
}

TEST(GraphOps, InducedSubgraph) {
  const auto g = make_complete(4);
  std::vector<char> mask = {1, 1, 1, 0};
  std::vector<vid_t> map;
  const auto h = induced_subgraph(g, mask, &map);
  EXPECT_TRUE(h.validate().empty());
  EXPECT_EQ(h.num_vertices(), 3);
  EXPECT_EQ(h.num_edges(), 3);  // K3
  EXPECT_EQ(map[3], kInvalidVid);
}

TEST(GraphOps, ExtractPart) {
  const auto g = make_path(6);
  Partition p{2, {0, 0, 0, 1, 1, 1}};
  const auto h = extract_part(g, p, 1, nullptr);
  EXPECT_EQ(h.num_vertices(), 3);
  EXPECT_EQ(h.num_edges(), 2);
}

TEST(GraphOps, DegreeStats) {
  const auto s = degree_stats(make_path(4));
  EXPECT_EQ(s.min_degree, 1);
  EXPECT_EQ(s.max_degree, 2);
  EXPECT_DOUBLE_EQ(s.avg_degree, 1.5);
}

// --- matching / cmap / contraction reference ---

TEST(Matching, ValidateMatch) {
  EXPECT_TRUE(validate_match({1, 0, 2}).empty());      // pair + self
  EXPECT_FALSE(validate_match({1, 2, 0}).empty());     // 3-cycle, not involutive
  EXPECT_FALSE(validate_match({5, 0}).empty());        // out of range
}

TEST(Matching, BuildCmapSerial) {
  // match: (0,1) pair, 2 self, (3,4) pair.
  const std::vector<vid_t> match = {1, 0, 2, 4, 3};
  const auto [cmap, nc] = build_cmap_serial(match);
  EXPECT_EQ(nc, 3);
  EXPECT_EQ(cmap, (std::vector<vid_t>{0, 0, 1, 2, 2}));
  EXPECT_TRUE(validate_cmap(match, cmap, nc).empty());
}

TEST(Matching, ValidateCmapCatchesBadLabelOrder) {
  const std::vector<vid_t> match = {1, 0, 2};
  // Leaders 0 and 2 must get labels 0 and 1; swap them.
  EXPECT_FALSE(validate_cmap(match, {1, 1, 0}, 2).empty());
}

TEST(Contraction, PathPairs) {
  const auto g = make_path(4);
  const std::vector<vid_t> match = {1, 0, 3, 2};
  const auto [cmap, nc] = build_cmap_serial(match);
  const auto c = contract_serial(g, match, cmap, nc);
  EXPECT_TRUE(c.validate().empty()) << c.validate();
  EXPECT_EQ(c.num_vertices(), 2);
  EXPECT_EQ(c.num_edges(), 1);
  EXPECT_EQ(c.vertex_weight(0), 2);
  EXPECT_EQ(c.vertex_weight(1), 2);
  // The edge {1,2} survives with weight 1.
  EXPECT_EQ(c.neighbor_weights(0)[0], 1);
}

TEST(Contraction, MergesParallelCoarseArcs) {
  // Square 0-1-2-3-0 plus diagonal-ish weights; match (0,1) and (2,3):
  // coarse vertices A={0,1}, B={2,3}; fine edges 1-2 and 3-0 both become
  // A-B and must merge with summed weight.
  GraphBuilder b(4);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 2, 2);
  b.add_edge(2, 3, 7);
  b.add_edge(3, 0, 4);
  const auto g = b.build();
  const std::vector<vid_t> match = {1, 0, 3, 2};
  const auto [cmap, nc] = build_cmap_serial(match);
  const auto c = contract_serial(g, match, cmap, nc);
  EXPECT_EQ(c.num_vertices(), 2);
  EXPECT_EQ(c.num_edges(), 1);
  EXPECT_EQ(c.neighbor_weights(0)[0], 6);  // 2 + 4
}

TEST(Contraction, ConservesVertexWeight) {
  Rng r(5);
  GraphBuilder b(50);
  for (int i = 0; i < 150; ++i) {
    const auto u = static_cast<vid_t>(r.next_below(50));
    const auto v = static_cast<vid_t>(r.next_below(50));
    if (u != v) b.add_edge(u, v, 1 + static_cast<wgt_t>(r.next_below(5)));
  }
  const auto g = b.build();
  // Greedy valid matching: pair consecutive unmatched neighbours.
  std::vector<vid_t> match(50);
  for (vid_t v = 0; v < 50; ++v) match[static_cast<std::size_t>(v)] = v;
  for (vid_t v = 0; v < 50; ++v) {
    if (match[static_cast<std::size_t>(v)] != v) continue;
    for (const vid_t u : g.neighbors(v)) {
      if (u > v && match[static_cast<std::size_t>(u)] == u) {
        match[static_cast<std::size_t>(v)] = u;
        match[static_cast<std::size_t>(u)] = v;
        break;
      }
    }
  }
  ASSERT_TRUE(validate_match(match).empty());
  const auto [cmap, nc] = build_cmap_serial(match);
  const auto c = contract_serial(g, match, cmap, nc);
  EXPECT_TRUE(c.validate().empty()) << c.validate();
  EXPECT_EQ(c.total_vertex_weight(), g.total_vertex_weight());
  // Total arc weight shrinks exactly by twice the matched-edge weight.
  wgt_t matched_w2 = 0;
  for (vid_t v = 0; v < 50; ++v) {
    const vid_t m = match[static_cast<std::size_t>(v)];
    if (m == v) continue;
    const auto nbrs = g.neighbors(v);
    const auto wts = g.neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] == m) matched_w2 += wts[i];
    }
  }
  EXPECT_EQ(c.total_arc_weight(), g.total_arc_weight() - matched_w2);
}

TEST(Contraction, ProjectPartitionRoundTrip) {
  const auto g = make_path(6);
  const std::vector<vid_t> match = {1, 0, 3, 2, 5, 4};
  const auto [cmap, nc] = build_cmap_serial(match);
  const std::vector<part_t> coarse_where = {0, 1, 0};
  const auto fine = project_partition(cmap, coarse_where);
  EXPECT_EQ(fine, (std::vector<part_t>{0, 0, 1, 1, 0, 0}));
}

}  // namespace
}  // namespace gp
