// Remaining edge-case coverage: coalescing analyzer corner cases, CSR
// memory accounting, graph ops on empty inputs, prefix sums of wgt_t,
// device buffer with zero elements, METIS format torture cases.
#include <gtest/gtest.h>

#include <sstream>

#include "core/graph_ops.hpp"
#include "gen/generators.hpp"
#include "gpu/coalescing.hpp"
#include "gpu/device_buffer.hpp"
#include "gpu/scan.hpp"
#include "io/metis_io.hpp"
#include "util/prefix_sum.hpp"

namespace gp {
namespace {

TEST(Coalescing, EmptyAccessList) {
  const auto s = analyze_coalescing({});
  EXPECT_EQ(s.warps, 0u);
  EXPECT_EQ(s.transactions, 0u);
  EXPECT_DOUBLE_EQ(s.transactions_per_warp(), 0.0);
}

TEST(Coalescing, CustomWarpAndTransactionSizes) {
  // 8-thread warps, 32-byte transactions: 8 consecutive 4-byte loads span
  // exactly one 32-byte block.
  std::vector<std::uint64_t> addr(8);
  for (std::size_t i = 0; i < 8; ++i) addr[i] = i * 4;
  const auto s = analyze_coalescing(addr, 8, 32);
  EXPECT_EQ(s.warps, 1u);
  EXPECT_EQ(s.transactions, 1u);
}

TEST(Coalescing, MisalignedAccessStraddlesBlocks) {
  // 32 consecutive ints starting at byte 64 straddle two 128-byte blocks.
  std::vector<std::uint64_t> addr(32);
  for (std::size_t i = 0; i < 32; ++i) addr[i] = 64 + i * 4;
  const auto s = analyze_coalescing(addr);
  EXPECT_EQ(s.transactions, 2u);
}

TEST(CsrGraph, MemoryBytesMatchesArraySizes) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const auto g = b.build();
  const std::size_t expect = 4 * sizeof(eid_t)        // adjp: n+1
                             + 4 * sizeof(vid_t)      // adjncy: 2|E|
                             + 4 * sizeof(wgt_t)      // adjwgt
                             + 3 * sizeof(wgt_t);     // vwgt
  EXPECT_EQ(g.memory_bytes(), expect);
}

TEST(GraphOps, EmptyGraphOps) {
  CsrGraph g({0}, {}, {}, {});
  EXPECT_EQ(count_components(g), 0);
  EXPECT_TRUE(is_connected(g));
  const auto s = degree_stats(g);
  EXPECT_EQ(s.max_degree, 0);
}

TEST(GraphOps, PermuteIdentity) {
  const auto g = delaunay_graph(300, 1);
  std::vector<vid_t> id(static_cast<std::size_t>(g.num_vertices()));
  for (vid_t v = 0; v < g.num_vertices(); ++v) id[static_cast<std::size_t>(v)] = v;
  const auto h = permute(g, id);
  EXPECT_EQ(h.adjp(), g.adjp());
  EXPECT_EQ(h.adjncy(), g.adjncy());
}

TEST(PrefixSum, WorksForWeightType) {
  std::vector<wgt_t> a = {1'000'000'000'000LL, 2, 3};
  inclusive_scan_serial(a);
  EXPECT_EQ(a[2], 1'000'000'000'005LL);  // no overflow at wgt_t width
}

TEST(DeviceBuffer, ZeroElements) {
  Device dev;
  DeviceBuffer<int> empty(dev, 0, "e");
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(dev.allocated_bytes(), 0u);
  const auto v = empty.d2h_vector();
  EXPECT_TRUE(v.empty());
}

TEST(DeviceScan, SingleElement) {
  Device dev;
  auto buf = to_device(dev, std::vector<std::int64_t>{41}, "one");
  EXPECT_EQ(device_inclusive_scan(dev, buf, "scan", GpuScanMode::kBlocked),
            41);
  EXPECT_EQ(buf.d2h_vector()[0], 41);
}

TEST(MetisIo, SkipsCommentAndBlankLines) {
  std::istringstream in(
      "% header comment\n"
      "\n"
      "3 2\n"
      "% mid comment\n"
      "2\n"
      "1 3\n"
      "\n"
      "2\n");
  const auto g = read_metis_graph(in);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(MetisIo, IsolatedVertexLines) {
  // Vertex 2 has no neighbours: its line is empty but must be consumed.
  std::istringstream in("3 1\n2\n1\n \n");
  // Note: a line holding a single space is "blank" and skipped — so this
  // stream is one data line short and must be rejected, which guards
  // against silently mis-shifting adjacency lines.
  EXPECT_THROW(read_metis_graph(in), std::invalid_argument);
}

TEST(MetisIo, WeightedRoundTripThroughFile) {
  GraphBuilder b(4);
  b.set_vertex_weight(2, 9);
  b.add_edge(0, 1, 4);
  b.add_edge(2, 3, 2);
  const auto g = b.build();
  const std::string path = "/tmp/gp_weighted_roundtrip.graph";
  write_metis_graph_file(path, g);
  const auto h = read_metis_graph_file(path);
  EXPECT_EQ(h.vwgt(), g.vwgt());
  EXPECT_EQ(h.adjwgt(), g.adjwgt());
}

}  // namespace
}  // namespace gp
