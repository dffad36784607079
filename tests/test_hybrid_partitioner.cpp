// Tests for src/hybrid: the GPU matching / cmap / contraction / projection
// / refinement kernels and the full GP-metis driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/matching.hpp"
#include "gpu/kernel_chain.hpp"
#include "core/partitioner.hpp"
#include "gen/generators.hpp"
#include "hybrid/gp_partitioner.hpp"
#include "hybrid/gpu_contract.hpp"
#include "hybrid/gpu_gain_cache.hpp"
#include "hybrid/gpu_matching.hpp"
#include "hybrid/gpu_refine.hpp"
#include "hybrid/multi_gpu_partitioner.hpp"
#include "serial/rb_partition.hpp"

namespace gp {
namespace {

TEST(GpuGraph, CompactUploadRoundTrips) {
  // The device CSR is 32-bit throughout (Metis 5's idx_t): the upload
  // moves exactly four bytes per offset, arc, arc weight and vertex
  // weight, and the widened download is the 64-bit host graph again.
  const CsrGraph graphs[] = {fem_slab_graph(10, 8, 6),
                             road_network_graph(3000, 2),
                             rmat_graph(11, 16000, 3)};
  for (const CsrGraph& g : graphs) {
    Device dev;
    const GpuGraph gg = GpuGraph::upload(dev, g, "t");
    const auto n = static_cast<std::uint64_t>(g.num_vertices());
    const auto m = static_cast<std::uint64_t>(g.num_arcs());
    EXPECT_EQ(dev.total_h2d_bytes(), 4 * (n + 1) + 4 * m + 4 * m + 4 * n);
    EXPECT_EQ(gg.total_vwgt, g.total_vertex_weight());
    const CsrGraph back = gg.download();
    EXPECT_EQ(back.adjp(), g.adjp());
    EXPECT_EQ(back.adjncy(), g.adjncy());
    EXPECT_EQ(back.adjwgt(), g.adjwgt());
    EXPECT_EQ(back.vwgt(), g.vwgt());
  }
}

TEST(GpuGraph, MaxDegreeIsHostKnown) {
  // upload() computes the max degree while staging and every contraction
  // reduces it in its build dispatch: through a chain of levels it must
  // equal the downloaded graph's, with no kernel or read-back spent.
  auto max_degree = [](const CsrGraph& h) {
    eid_t d = 0;
    for (vid_t v = 0; v < h.num_vertices(); ++v) d = std::max(d, h.degree(v));
    return static_cast<idx_t>(d);
  };
  const CsrGraph graphs[] = {fem_slab_graph(10, 8, 6),
                             road_network_graph(3000, 2),
                             rmat_graph(11, 16000, 3)};
  for (const GpuScanMode mode :
       {GpuScanMode::kBlocked, GpuScanMode::kLookback}) {
    for (const CsrGraph& g : graphs) {
      Device dev;
      std::vector<GpuGraph> levels;
      levels.push_back(GpuGraph::upload(dev, g, "t"));
      EXPECT_EQ(levels.back().max_degree, max_degree(g));
      for (int lvl = 0; lvl < 4 && levels.back().n > 64; ++lvl) {
        const GpuGraph& fine = levels.back();
        auto m = gpu_match(dev, fine, lvl, 1, 1024, mode);
        GpuGraph coarse = gpu_contract(dev, fine, m.match, m.cmap,
                                       m.n_coarse, lvl, 1024, true, mode);
        EXPECT_EQ(coarse.max_degree, max_degree(coarse.download()))
            << "level " << lvl + 1;
        levels.push_back(std::move(coarse));
      }
      EXPECT_GT(levels.size(), 1u);
    }
  }

  // Both slab shapes, chosen from the host-known max degree: rmat at k 4
  // has degrees above k (offsets built by the capacity scan); the road
  // network at k 64 has none (the slab aliases the graph's adjp).
  struct Shape {
    const CsrGraph& g;
    part_t k;
    bool aliased;
  };
  for (const Shape& s :
       {Shape{graphs[2], 4, false}, Shape{graphs[1], 64, true}}) {
    Device dev;
    CostLedger ledger;
    dev.set_ledger(&ledger);
    const GpuGraph gg = GpuGraph::upload(dev, s.g, "t");
    std::vector<part_t> where(static_cast<std::size_t>(s.g.num_vertices()));
    for (std::size_t v = 0; v < where.size(); ++v) {
      where[v] = static_cast<part_t>(v % static_cast<std::size_t>(s.k));
    }
    DeviceBuffer<part_t> dw(dev, where.size(), "w");
    dw.h2d(where);
    const GpuGainCache cache =
        GpuGainCache::build(dev, gg, dw, s.k, "uncoarsen/gaincache", 1024);
    EXPECT_EQ(cache.off_alias != nullptr, s.aliased) << "k " << s.k;
    EXPECT_EQ(cache.compare_to_host(s.g, where), "") << "k " << s.k;
    for (const CostEntry& e : ledger.entries()) {
      EXPECT_EQ(e.label.find("maxdeg"), std::string::npos) << e.label;
    }
  }
}

class GpuMatchThreads : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(GpuMatchThreads, InvolutionAndCmapAfterConflictResolution) {
  Device dev;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto g = delaunay_graph(3000, seed);
    auto gg = GpuGraph::upload(dev, g, "t");
    auto m = gpu_match(dev, gg, 0, seed + 1, GetParam(),
                       GpuScanMode::kBlocked);
    const auto match = m.match.d2h_vector();
    const auto cmap = m.cmap.d2h_vector();
    ASSERT_TRUE(validate_match(match).empty()) << validate_match(match);
    ASSERT_TRUE(validate_cmap(match, cmap, m.n_coarse).empty())
        << validate_cmap(match, cmap, m.n_coarse);
    EXPECT_LT(m.n_coarse, static_cast<vid_t>(0.75 * 3000));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, GpuMatchThreads,
                         ::testing::Values(1, 32, 1024, 16384));

TEST(GpuMatch, CmapPipelineMatchesSerialReference) {
  // The 4-kernel prefix-sum cmap must agree exactly with the canonical
  // serial construction for the same match array.
  Device dev;
  const auto g = grid2d_graph(50, 50);
  auto gg = GpuGraph::upload(dev, g, "t");
  auto m = gpu_match(dev, gg, 0, 9, 4096, GpuScanMode::kBlocked);
  const auto match = m.match.d2h_vector();
  const auto [ref_cmap, ref_nc] = build_cmap_serial(match);
  EXPECT_EQ(m.cmap.d2h_vector(), ref_cmap);
  EXPECT_EQ(m.n_coarse, ref_nc);
}

/// One contraction configuration: merge strategy x scan mode.
struct ContractCase {
  bool use_hash;
  GpuScanMode mode;
};

std::string contract_case_name(
    const ::testing::TestParamInfo<ContractCase>& info) {
  return std::string(info.param.use_hash ? "hash" : "sort") +
         (info.param.mode == GpuScanMode::kLookback ? "_lookback"
                                                    : "_blocked");
}

const auto kContractCases = ::testing::Values(
    ContractCase{true, GpuScanMode::kBlocked},
    ContractCase{true, GpuScanMode::kLookback},
    ContractCase{false, GpuScanMode::kBlocked},
    ContractCase{false, GpuScanMode::kLookback});

/// Work units the compaction copy charges: thread t of `T` owns the
/// contiguous block of coarse vertices the contraction assigns it, and
/// moves its arcs in 128-byte transactions of (adjncy, adjwgt) pairs plus
/// one for the unaligned start.
std::uint64_t expected_copy_work(const CsrGraph& coarse, std::int64_t T) {
  const std::int64_t n = coarse.num_vertices();
  const std::int64_t chunk = n / T, rem = n % T;
  std::uint64_t work = 0;
  for (std::int64_t t = 0; t < T; ++t) {
    const std::int64_t b = t * chunk + std::min<std::int64_t>(t, rem);
    const std::int64_t e = b + chunk + (t < rem ? 1 : 0);
    const auto cnt = static_cast<std::uint64_t>(
        coarse.adjp()[static_cast<std::size_t>(e)] -
        coarse.adjp()[static_cast<std::size_t>(b)]);
    if (cnt > 0) {
      work += (cnt * (sizeof(vid_t) + sizeof(idx_t)) + 127) / 128 + 1;
    }
  }
  return work;
}

class GpuContractMode : public ::testing::TestWithParam<ContractCase> {};

TEST_P(GpuContractMode, MatchesSerialReference) {
  // Both merge strategies (hash table and sort-merge) must reproduce the
  // serial contraction bit-for-bit in both scan modes.
  const ContractCase c = GetParam();
  Device dev;
  CostLedger ledger;
  dev.set_ledger(&ledger);
  const auto g = delaunay_graph(2500, 4);
  auto gg = GpuGraph::upload(dev, g, "t");
  auto m = gpu_match(dev, gg, 0, 5, 2048, c.mode);
  const auto match = m.match.d2h_vector();
  const auto cmap = m.cmap.d2h_vector();
  ASSERT_TRUE(validate_match(match).empty());

  GpuContractStats st;
  const std::uint64_t launches_before = dev.kernels_launched();
  const GpuGraph coarse_dev = gpu_contract(dev, gg, m.match, m.cmap,
                                           m.n_coarse, 0, 2048, c.use_hash,
                                           c.mode, &st);
  const std::uint64_t launches = dev.kernels_launched() - launches_before;
  const auto coarse = coarse_dev.download();
  const auto ref = contract_serial(g, match, cmap, m.n_coarse);
  EXPECT_TRUE(coarse.validate().empty()) << coarse.validate();
  EXPECT_EQ(coarse.adjp(), ref.adjp());
  EXPECT_EQ(coarse.adjncy(), ref.adjncy());
  EXPECT_EQ(coarse.adjwgt(), ref.adjwgt());
  EXPECT_EQ(coarse.vwgt(), ref.vwgt());
  // The temporary arrays hold exactly the fine arcs.
  EXPECT_EQ(st.temp_entries, static_cast<std::uint64_t>(g.num_arcs()));
  EXPECT_EQ(st.final_entries, static_cast<std::uint64_t>(ref.num_arcs()));
  if (c.mode == GpuScanMode::kLookback) {
    // The build chain and the compaction copy.
    EXPECT_EQ(launches, 2u);
  }
  // The copy is charged per 128-byte transaction of each segment.
  const std::int64_t T = std::min<std::int64_t>(2048, m.n_coarse);
  const CostEntry* copy = nullptr;
  for (const CostEntry& e : ledger.entries()) {
    if (e.label == "kernel/coarsen/contract/copy/L0") copy = &e;
  }
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->work_units, expected_copy_work(ref, T));
}

INSTANTIATE_TEST_SUITE_P(Merge, GpuContractMode, kContractCases,
                         contract_case_name);

TEST(GpuContractMerge, ChargesAbsorbedArcs) {
  // The host runs one dense row merge for both strategies; only the
  // charge differs: a unit per absorbed arc (one not internal to its
  // pair) for the hash merge, one more per arc for sort-merge's sorting
  // pass.  Pinned on an 8x8 grid, whose 224 arcs lose 2 per matched pair.
  const auto g = grid2d_graph(8, 8);
  for (const ContractCase c :
       {ContractCase{true, GpuScanMode::kBlocked},
        ContractCase{false, GpuScanMode::kBlocked},
        ContractCase{true, GpuScanMode::kLookback},
        ContractCase{false, GpuScanMode::kLookback}}) {
    SCOPED_TRACE(contract_case_name(::testing::TestParamInfo<ContractCase>(c, 0)));
    Device::Config cfg;
    cfg.host_workers = 1;
    Device dev(cfg);
    CostLedger ledger;
    dev.set_ledger(&ledger);
    const GpuGraph gg = GpuGraph::upload(dev, g, "t");
    auto m = gpu_match(dev, gg, 0, 3, 64, c.mode);
    const auto cmap = m.cmap.d2h_vector();
    std::uint64_t absorbed = 0;
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      for (const vid_t u : g.neighbors(v)) {
        absorbed += cmap[static_cast<std::size_t>(u)] !=
                    cmap[static_cast<std::size_t>(v)];
      }
    }
    EXPECT_EQ(absorbed, 160u);  // 32 pairs
    (void)gpu_contract(dev, gg, m.match, m.cmap, m.n_coarse, 0, 64,
                       c.use_hash, c.mode);
    const std::string label = c.mode == GpuScanMode::kLookback
                                  ? "kernel/coarsen/contract/build/L0/merge"
                                  : "kernel/coarsen/contract/merge/L0";
    const CostEntry* merge = nullptr;
    for (const CostEntry& e : ledger.entries()) {
      if (e.label == label) merge = &e;
    }
    ASSERT_NE(merge, nullptr);
    EXPECT_EQ(merge->work_units, c.use_hash ? absorbed : 2 * absorbed);
  }
}

class GpuContract : public ::testing::TestWithParam<ContractCase> {};

TEST_P(GpuContract, TempArraysFreedAfterContraction) {
  const ContractCase c = GetParam();
  Device dev;
  const auto g = grid2d_graph(40, 40);
  const auto before = dev.allocated_bytes();
  auto gg = GpuGraph::upload(dev, g, "t");
  auto m = gpu_match(dev, gg, 0, 7, 1024, c.mode);
  auto coarse = gpu_contract(dev, gg, m.match, m.cmap, m.n_coarse, 0, 1024,
                             c.use_hash, c.mode, nullptr);
  // Only the fine graph, match/cmap, and the coarse graph remain.
  const auto expected = before + gg.bytes() + coarse.bytes() +
                        2 * static_cast<std::size_t>(g.num_vertices()) *
                            sizeof(vid_t);
  EXPECT_EQ(dev.allocated_bytes(), expected);
}

INSTANTIATE_TEST_SUITE_P(Merge, GpuContract, kContractCases,
                         contract_case_name);

TEST(GpuContractGuard, InconsistentCmapThrowsBeforeTheMerge) {
  // A leader relabelled into another coarse vertex leaves one coarse
  // vertex without a leader and gives another two candidates.  The first
  // scan's total then differs from the fine arc count, and the
  // contraction must refuse before its merge writes a temporary slot.
  const auto g = grid2d_graph(30, 30);
  for (const GpuScanMode mode :
       {GpuScanMode::kBlocked, GpuScanMode::kLookback}) {
    Device::Config cfg;
    cfg.host_workers = 1;
    Device dev(cfg);
    CostLedger ledger;
    dev.set_ledger(&ledger);
    {
      const GpuGraph gg = GpuGraph::upload(dev, g, "t");
      auto m = gpu_match(dev, gg, 0, 3, 256, mode);
      const auto match = m.match.d2h_vector();
      auto cmap = m.cmap.d2h_vector();
      // Per coarse vertex: its leader and the arcs of its pair.  An
      // unwritten leader slot reads 0 (pool memory is zero-filled), so
      // pick two coarse vertices whose arc sums differ from vertex 0's
      // pair: the corrupted total is then off whichever leader wins.
      std::vector<vid_t> leader(static_cast<std::size_t>(m.n_coarse));
      std::vector<eid_t> arcs(static_cast<std::size_t>(m.n_coarse), 0);
      for (vid_t v = 0; v < g.num_vertices(); ++v) {
        const auto sv = static_cast<std::size_t>(v);
        const auto c = static_cast<std::size_t>(cmap[sv]);
        if (v <= match[sv]) leader[c] = v;
        arcs[c] += g.degree(v);
      }
      std::vector<vid_t> picks;
      for (vid_t c = 1; c < m.n_coarse && picks.size() < 2; ++c) {
        if (arcs[static_cast<std::size_t>(c)] != arcs[0]) picks.push_back(c);
      }
      ASSERT_EQ(picks.size(), 2u);
      cmap[static_cast<std::size_t>(
          leader[static_cast<std::size_t>(picks[0])])] = picks[1];
      m.cmap.h2d(cmap);

      const std::int64_t outstanding = dev.pool_outstanding_blocks();
      EXPECT_THROW((void)gpu_contract(dev, gg, m.match, m.cmap, m.n_coarse,
                                      0, 256, true, mode),
                   std::logic_error);
      // Every temporary of the aborted contraction went back to the pool.
      EXPECT_EQ(dev.pool_outstanding_blocks(), outstanding);
      for (const CostEntry& e : ledger.entries()) {
        EXPECT_EQ(e.label.find("/merge"), std::string::npos) << e.label;
      }
    }
    EXPECT_EQ(dev.pool_outstanding_blocks(), 0);
  }
}

TEST(GpuProject, ProjectsThroughCmap) {
  Device dev;
  const auto g = grid2d_graph(30, 30);
  auto gg = GpuGraph::upload(dev, g, "t");
  auto m = gpu_match(dev, gg, 0, 3, 512, GpuScanMode::kBlocked);
  const auto cmap = m.cmap.d2h_vector();
  std::vector<part_t> coarse_where(static_cast<std::size_t>(m.n_coarse));
  for (std::size_t i = 0; i < coarse_where.size(); ++i) {
    coarse_where[i] = static_cast<part_t>(i % 4);
  }
  DeviceBuffer<part_t> dcw(dev, coarse_where.size(), "cw");
  dcw.h2d(coarse_where);
  DeviceBuffer<part_t> dfw(dev, static_cast<std::size_t>(g.num_vertices()),
                           "fw");
  gpu_project(dev, m.cmap, dcw, dfw, 0, 512);
  const auto fw = dfw.d2h_vector();
  const auto expect = project_partition(cmap, coarse_where);
  EXPECT_EQ(fw, expect);
}

TEST(GpuRefine, ImprovesPerturbedPartition) {
  Device dev;
  const auto g = grid2d_graph(32, 32);
  Rng rng(2);
  Partition p = recursive_bisection(g, 8, 0.03, rng);
  for (vid_t v = 200; v < 260; ++v) p.where[static_cast<std::size_t>(v)] = 0;
  const wgt_t perturbed = edge_cut(g, p);

  auto gg = GpuGraph::upload(dev, g, "t");
  DeviceBuffer<part_t> dw(dev, p.where.size(), "w");
  dw.h2d(p.where);
  auto st = gpu_refine(dev, gg, dw, 8, 0.08, 8, 0, 1024, nullptr, nullptr,
                       GpuScanMode::kBlocked);
  Partition q{8, dw.d2h_vector()};
  EXPECT_TRUE(validate_partition(g, q).empty());
  EXPECT_LT(edge_cut(g, q), perturbed);
  EXPECT_GT(st.committed, 0u);
  const wgt_t maxw = max_part_weight(g.total_vertex_weight(), 8, 0.08);
  for (const auto w : partition_weights(g, q)) EXPECT_LE(w, maxw);
}

TEST(GpuRefine, RequestSlotsAreExclusive) {
  // Stress the atomic-counter buffer under heavy concurrency: every
  // committed move must be consistent (validated partition, conserved
  // vertex count per part).
  Device dev;
  const auto g = delaunay_graph(4000, 6);
  Rng rng(3);
  Partition p = recursive_bisection(g, 16, 0.05, rng);
  auto gg = GpuGraph::upload(dev, g, "t");
  DeviceBuffer<part_t> dw(dev, p.where.size(), "w");
  dw.h2d(p.where);
  (void)gpu_refine(dev, gg, dw, 16, 0.05, 6, 0, 1 << 14, nullptr, nullptr,
                   GpuScanMode::kBlocked);
  Partition q{16, dw.d2h_vector()};
  EXPECT_TRUE(validate_partition(g, q).empty());
}

TEST(GpuRefine, DeviceStopTestMatchesHostLoop) {
  // The lookback dispatch keeps the pass loop's stop test on the device —
  // a metered stop stage per pass — and reads its counters back once per
  // call.  The blocked launches read the commit counts back every pass.
  // Both run the same loop, so they must agree move for move.  Part 0
  // starts overweight, so the pass budget stretches too.
  const auto g = delaunay_graph(4000, 6);
  Rng rng(3);
  Partition p = recursive_bisection(g, 16, 0.05, rng);
  for (vid_t v = 0; v < 400; ++v) p.where[static_cast<std::size_t>(v)] = 0;
  const int kPasses = 2;

  struct Run {
    std::vector<part_t> where;
    std::vector<GpuRefineStats> stats;
    std::vector<std::vector<std::string>> d2h;  ///< per call
  };
  auto run = [&](GpuScanMode mode) {
    Device::Config cfg;
    cfg.host_workers = 1;  // deterministic commit order
    Device dev(cfg);
    CostLedger ledger;
    dev.set_ledger(&ledger);
    const GpuGraph gg = GpuGraph::upload(dev, g, "t");
    DeviceBuffer<part_t> dw(dev, p.where.size(), "w");
    dw.h2d(p.where);
    GpuGainCache cache = GpuGainCache::build(dev, gg, dw, 16, "t", 1024, mode);
    DeviceBuffer<wgt_t> pw;
    Run out;
    for (int call = 0; call < 2; ++call) {
      const std::size_t before = ledger.entries().size();
      out.stats.push_back(gpu_refine(dev, gg, dw, 16, 0.05, kPasses, call,
                                     1024, &cache, &pw, mode));
      out.d2h.emplace_back();
      for (std::size_t i = before; i < ledger.entries().size(); ++i) {
        const std::string& label = ledger.entries()[i].label;
        if (label.rfind("transfer/d2h/", 0) == 0) out.d2h.back().push_back(label);
      }
    }
    out.where = dw.d2h_vector();
    return out;
  };
  const Run lookback = run(GpuScanMode::kLookback);
  const Run blocked = run(GpuScanMode::kBlocked);

  EXPECT_EQ(lookback.where, blocked.where);
  ASSERT_EQ(lookback.stats.size(), blocked.stats.size());
  for (std::size_t c = 0; c < lookback.stats.size(); ++c) {
    const GpuRefineStats& a = lookback.stats[c];
    const GpuRefineStats& b = blocked.stats[c];
    EXPECT_EQ(a.proposed, b.proposed) << "call " << c;
    EXPECT_EQ(a.committed, b.committed) << "call " << c;
    EXPECT_EQ(a.passes, b.passes) << "call " << c;
    EXPECT_EQ(a.dropped_full_buffer, b.dropped_full_buffer) << "call " << c;
    // One packed read-back per lookback call, no per-pass commit counts.
    EXPECT_EQ(lookback.d2h[c], std::vector<std::string>{
                                   "transfer/d2h/refine/L" + std::to_string(c)});
    EXPECT_GE(blocked.d2h[c].size(), static_cast<std::size_t>(b.passes) + 1);
  }
  EXPECT_GT(lookback.stats[0].passes, kPasses) << "budget never stretched";
  EXPECT_GT(lookback.stats[0].committed, 0u);
  Partition q{16, lookback.where};
  EXPECT_TRUE(validate_partition(g, q).empty());
}

TEST(GpuFrontier, ListMatchesHostRecomputeInThreadOrder) {
  // The propose kernel's worklist holds exactly the vertices a pass can
  // act on — moved-dirty entries (whatever their stale ed) and boundary
  // vertices (lazy ones included) — in the kernel's own visiting order,
  // logical thread t of T visiting t, t+T, ..., threads in order.  Entries
  // are poked into every dirty state so each arm of the predicate shows.
  const CsrGraph g = delaunay_graph(4000, 6);
  Rng rng(4);
  const Partition p = recursive_bisection(g, 8, 0.05, rng);
  const auto n = static_cast<std::int64_t>(g.num_vertices());
  for (const GpuScanMode mode :
       {GpuScanMode::kBlocked, GpuScanMode::kLookback}) {
    for (const std::int64_t n_threads : {n, std::int64_t{1000}, std::int64_t{256}}) {
      Device::Config cfg;
      cfg.host_workers = 1;
      Device dev(cfg);
      const GpuGraph gg = GpuGraph::upload(dev, g, "t");
      DeviceBuffer<part_t> dw(dev, p.where.size(), "w");
      dw.h2d(p.where);
      GpuGainCache cache = GpuGainCache::build(dev, gg, dw, 8, "t", 1024, mode);
      char* dirty = cache.dirty.data();
      for (std::int64_t v = 0; v < n; v += 5) dirty[v] = kDirtyMoved;
      for (std::int64_t v = 2; v < n; v += 5) dirty[v] = kDirtyLazy;
      const auto ed = cache.ed.d2h_vector();
      const auto flags = cache.dirty.d2h_vector();
      const std::int64_t T = std::min(n_threads, n);
      std::vector<vid_t> expect;
      std::size_t moved_interior = 0, lazy_boundary = 0;
      for (std::int64_t t = 0; t < T; ++t) {
        for (std::int64_t v = t; v < n; v += T) {
          const auto sv = static_cast<std::size_t>(v);
          if (flags[sv] == kDirtyMoved || ed[sv] != 0) {
            expect.push_back(static_cast<vid_t>(v));
          }
          moved_interior += flags[sv] == kDirtyMoved && ed[sv] == 0;
          lazy_boundary += flags[sv] == kDirtyLazy && ed[sv] != 0;
        }
      }
      ASSERT_GT(moved_interior, 0u);
      ASSERT_GT(lazy_boundary, 0u);
      ASSERT_LT(expect.size(), static_cast<std::size_t>(n));

      CostLedger ledger;
      dev.set_ledger(&ledger);
      DeviceBuffer<vid_t> out(dev, static_cast<std::size_t>(n), "out");
      std::int64_t len = -1;
      run_chain(dev, mode, "t", [&](KernelChain& c) {
        len = gpu_frontier(c, "frontier", cache.view(),
                           static_cast<vid_t>(n), n_threads, out.data());
      });
      dev.set_ledger(nullptr);
      std::vector<vid_t> got = out.d2h_vector();
      ASSERT_EQ(len, static_cast<std::int64_t>(expect.size()));
      got.resize(static_cast<std::size_t>(len));
      EXPECT_EQ(got, expect) << "T " << T;

      if (mode == GpuScanMode::kLookback) {
        // One coalesced sweep of the T x J grid reading ed and dirty, plus
        // the look-back's 4 descriptor units per tile of whole threads.
        const std::int64_t J = (n + T - 1) / T;
        const std::int64_t per_tile =
            std::max<std::int64_t>(1, scan_detail::scan_tile(n) / J);
        const std::int64_t tiles = (T + per_tile - 1) / per_tile;
        const auto bytes = static_cast<std::uint64_t>(T * J) *
                           (sizeof(wgt_t) + 1);
        std::uint64_t work = 0;
        bool found = false;
        for (const CostEntry& e : ledger.entries()) {
          if (e.label == "kernel/t/frontier") {
            work = e.work_units;
            found = true;
          }
        }
        ASSERT_TRUE(found);
        EXPECT_EQ(work, (bytes + 127) / 128 +
                            static_cast<std::uint64_t>(tiles) * 4)
            << "T " << T;
        EXPECT_EQ(ledger.launches_with_prefix("kernel/t"), 1u);
      } else {
        // count, the blocked scan of the tile counts (1 or 3), emit.
        EXPECT_GE(ledger.launches_with_prefix("kernel/t/frontier/"), 3u);
      }
    }
  }
}

/// Runs one multi-pass gpu_uncoarsen_level of delaunay_graph(4000, 6) at
/// k 8 and, after every pass's frontier stage, checks the worklist kept
/// from the explore deltas against a full gpu_frontier sweep of the same
/// cache, in the kernel's visiting order.  Returns the passes checked.
int check_kept_frontier(GpuScanMode mode, std::int64_t n_threads,
                        int host_workers) {
  const CsrGraph g = delaunay_graph(4000, 6);
  const part_t k = 8;
  Device::Config cfg;
  cfg.host_workers = host_workers;
  Device dev(cfg);
  const GpuGraph fine = GpuGraph::upload(dev, g, "G0");
  auto m = gpu_match(dev, fine, 0, 1, 1024, mode);
  const GpuGraph coarse = gpu_contract(dev, fine, m.match, m.cmap,
                                       m.n_coarse, 0, 1024, true, mode);
  Rng rng(5);
  const Partition cp = recursive_bisection(coarse.download(), k, 0.05, rng);
  DeviceBuffer<part_t> wc(dev, cp.where.size(), "wc");
  wc.h2d(cp.where);
  GpuGainCache cache = GpuGainCache::build(dev, coarse, wc, k, "t", 1024, mode);
  DeviceBuffer<wgt_t> pw;
  (void)gpu_refine(dev, coarse, wc, k, 0.05, 3, 1, 1024, &cache, &pw, mode);

  DeviceBuffer<part_t> wf(dev, static_cast<std::size_t>(fine.n), "wf");
  DeviceBuffer<vid_t> full(dev, static_cast<std::size_t>(fine.n), "full");
  int passes = 0;
  std::int64_t longest = 0;
  const GpuFrontierProbe probe = [&](int pass, const GpuGainCacheView& cv,
                                     const vid_t* list, std::int64_t len) {
    EXPECT_EQ(pass, passes);
    ++passes;
    std::int64_t expect_len = -1;
    run_chain(dev, mode, "check", [&](KernelChain& c) {
      expect_len = gpu_frontier(c, "frontier", cv, fine.n, n_threads,
                                full.data());
    });
    const vid_t* want = full.data();
    ASSERT_EQ(len, expect_len) << "pass " << pass;
    EXPECT_TRUE(std::equal(list, list + len, want)) << "pass " << pass;
    longest = std::max(longest, len);
  };
  const GpuRefineStats st =
      gpu_uncoarsen_level(dev, fine, m.cmap, wc, wf, cache, pw, k, 0.05, 4, 0,
                          n_threads, mode, probe);
  EXPECT_EQ(passes, st.passes);
  EXPECT_GT(st.committed, 0u);
  EXPECT_GT(longest, 0);
  return passes;
}

TEST(GpuFrontier, KeptListMatchesFullSweepEveryPass) {
  // A pass changes `dirty` and `ed` only at its own frontier (propose's
  // rebuilds) and at moved vertices and their neighbours (explore's
  // deltas), so the candidates carried from pass to pass must give
  // exactly the list a full sweep of every vertex gives.
  const std::int64_t n = 4000;
  for (const GpuScanMode mode :
       {GpuScanMode::kBlocked, GpuScanMode::kLookback}) {
    for (const std::int64_t T : {n, std::int64_t{1000}, std::int64_t{256}}) {
      SCOPED_TRACE(std::string(mode == GpuScanMode::kBlocked ? "blocked"
                                                             : "lookback") +
                   " T " + std::to_string(T));
      EXPECT_GE(check_kept_frontier(mode, T, /*host_workers=*/1), 2);
    }
  }
}

TEST(GpuFrontier, KeptListMatchesFullSweepWithConcurrentExplore) {
  // Four host workers: explore threads add candidates concurrently and
  // the compaction's tiles prune shared words concurrently.
  for (const std::int64_t T : {std::int64_t{4000}, std::int64_t{256}}) {
    SCOPED_TRACE("T " + std::to_string(T));
    EXPECT_GE(check_kept_frontier(GpuScanMode::kLookback, T, 4), 2);
  }
}

TEST(GpuUncoarsenLevel, MatchesProjectBuildRefine) {
  // The fused level (projection, cache projection with lazy interior
  // vertices and compacted rebuilds, frontier-driven refinement) must give
  // exactly what the separate steps give: the same labels, the same
  // refinement stats, and a cache that a host recompute accepts.
  struct Case {
    const char* name;
    CsrGraph g;
  };
  const Case cases[] = {{"road", road_network_graph(3000, 2)},
                        {"rmat", rmat_graph(11, 16000, 3)},
                        {"fem", fem_slab_graph(10, 8, 6)}};
  std::size_t lazy_seen = 0;
  std::uint64_t proposed_seen = 0;
  for (const GpuScanMode mode :
       {GpuScanMode::kBlocked, GpuScanMode::kLookback}) {
    for (const Case& cs : cases) {
      for (const part_t k : {part_t{8}, part_t{64}}) {
        SCOPED_TRACE(std::string(cs.name) + " k " + std::to_string(k) +
                     (mode == GpuScanMode::kBlocked ? " blocked" : " lookback"));
        Device::Config cfg;
        cfg.host_workers = 1;  // deterministic commit order
        Device dev(cfg);
        const GpuGraph fine = GpuGraph::upload(dev, cs.g, "G0");
        auto m = gpu_match(dev, fine, 0, 1, 1024, mode);
        const GpuGraph coarse = gpu_contract(dev, fine, m.match, m.cmap,
                                             m.n_coarse, 0, 1024, true, mode);
        Rng rng(5);
        const Partition cp = recursive_bisection(coarse.download(), k, 0.05, rng);
        DeviceBuffer<part_t> wc(dev, cp.where.size(), "wc");
        wc.h2d(cp.where);
        // Refine the coarse level first, so its cache hands moved-dirty
        // entries and carried part weights to the projection.
        GpuGainCache cache =
            GpuGainCache::build(dev, coarse, wc, k, "t", 1024, mode);
        DeviceBuffer<wgt_t> pw;
        (void)gpu_refine(dev, coarse, wc, k, 0.05, 3, 1, 1024, &cache, &pw,
                         mode);
        const auto n = static_cast<std::size_t>(fine.n);
        const std::int64_t T = 1024;

        DeviceBuffer<part_t> wb(dev, n, "wb");
        gpu_project(dev, m.cmap, wc, wb, 0, T);
        GpuGainCache built = GpuGainCache::build(dev, fine, wb, k, "t", T, mode);
        const GpuRefineStats sb =
            gpu_refine(dev, fine, wb, k, 0.05, 4, 0, T, &built, nullptr, mode);

        DeviceBuffer<part_t> wa(dev, n, "wa");
        const GpuRefineStats sa = gpu_uncoarsen_level(
            dev, fine, m.cmap, wc, wa, cache, pw, k, 0.05, 4, 0, T, mode);

        const auto where = wa.d2h_vector();
        EXPECT_EQ(where, wb.d2h_vector());
        EXPECT_EQ(sa.proposed, sb.proposed);
        EXPECT_EQ(sa.committed, sb.committed);
        EXPECT_EQ(sa.dropped_full_buffer, sb.dropped_full_buffer);
        EXPECT_EQ(sa.passes, sb.passes);
        proposed_seen += sa.proposed;
        ASSERT_EQ(cache.n, fine.n);
        EXPECT_EQ(cache.compare_to_host(cs.g, where), "");
        for (const char d : cache.dirty.d2h_vector()) lazy_seen += d == kDirtyLazy;
      }
    }
  }
  EXPECT_GT(lazy_seen, 0u) << "no level projected a lazy vertex";
  EXPECT_GT(proposed_seen, 0u) << "no level proposed a move";
}

// ---- full driver ----

TEST(GpMetis, OversizedWeightsRunOnCpu) {
  // Vertex weights of 2^23 on a 20x20 grid sum past INT32_MAX, so the
  // graph cannot take the 32-bit device CSR.  Both GPU drivers note it and
  // go straight to the pure-CPU rung: a valid, degraded result, no throw.
  const CsrGraph unit = grid2d_graph(20, 20);
  const CsrGraph g(unit.adjp(), unit.adjncy(), unit.adjwgt(),
                   std::vector<wgt_t>(static_cast<std::size_t>(
                                          unit.num_vertices()),
                                      wgt_t{1} << 23));
  ASSERT_GT(g.total_vertex_weight(), std::numeric_limits<idx_t>::max());
  PartitionOptions opts;
  opts.k = 4;
  opts.gpu_cpu_threshold = 64;
  for (const auto make : {&make_hybrid_partitioner,
                          &make_multi_gpu_partitioner}) {
    const auto sys = make();
    const auto r = sys->run(g, opts);
    EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty())
        << sys->name();
    EXPECT_TRUE(r.health.degraded) << sys->name();
    EXPECT_EQ(r.health.fallbacks, 1u) << sys->name();
    EXPECT_EQ(r.health.gpu_retries, 0u) << sys->name();
    EXPECT_TRUE(std::any_of(r.health.events.begin(), r.health.events.end(),
                            [](const std::string& e) {
                              return e.find("total vertex weight exceeds the "
                                            "32-bit device CSR") !=
                                     std::string::npos;
                            }))
        << sys->name();
  }
  // Metis never touches the device: no note, and the uniform weights
  // partition the grid exactly as unit weights do.
  const auto metis = make_serial_partitioner()->run(g, opts);
  EXPECT_FALSE(metis.health.degraded);
  EXPECT_TRUE(metis.health.events.empty());
  EXPECT_EQ(metis.partition.where,
            make_serial_partitioner()->run(unit, opts).partition.where);
}

TEST(GpMetis, FullPipelineValidOnAllPaperGraphShapes) {
  for (const auto& info : paper_graphs()) {
    const auto g = make_paper_graph(info.name, 1.0 / 512.0, 3);
    PartitionOptions opts;
    opts.k = 8;
    opts.gpu_cpu_threshold = 2000;
    GpPhaseLog log;
    const auto r = gp_metis_run(g, opts, &log);
    EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty()) << info.name;
    EXPECT_EQ(r.cut, edge_cut(g, r.partition)) << info.name;
    for (const auto w : partition_weights(g, r.partition))
      EXPECT_GT(w, 0) << info.name;
  }
}

TEST(GpMetis, HybridPhaseStructure) {
  const auto g = delaunay_graph(40000, 5);
  PartitionOptions opts;
  opts.k = 16;
  opts.gpu_cpu_threshold = 4000;
  GpPhaseLog log;
  const auto r = gp_metis_run(g, opts, &log);
  // The Fig. 1 structure: some levels on the GPU, some on the CPU, with
  // transfers in both directions.
  EXPECT_GT(log.gpu_coarsen_levels, 0);
  EXPECT_GT(log.cpu_levels, 0);
  EXPECT_LE(log.handoff_vertices, 4000 + 4000 / 2);
  EXPECT_GT(log.h2d_bytes, 0u);
  EXPECT_GT(log.d2h_bytes, 0u);
  EXPECT_GT(r.phases.transfer, 0.0);
  EXPECT_GT(r.phases.coarsen, 0.0);
  EXPECT_GT(r.phases.initpart, 0.0);
  EXPECT_GT(r.phases.uncoarsen, 0.0);
}

TEST(GpMetis, QualityComparableToSerial) {
  const auto g = grid2d_graph(80, 80);
  PartitionOptions opts;
  opts.k = 8;
  opts.gpu_cpu_threshold = 1000;
  const auto serial = make_serial_partitioner()->run(g, opts);
  const auto gpm = make_hybrid_partitioner()->run(g, opts);
  EXPECT_LT(static_cast<double>(gpm.cut),
            1.7 * static_cast<double>(serial.cut) + 50.0);
  EXPECT_LE(gpm.balance, 1.35);
}

TEST(GpMetis, ModeledFasterThanSerialAndParMetis) {
  // Fig. 5's headline: GP-metis outperforms Metis and ParMetis on all
  // tested inputs.  Use a road network, where the gap is structural
  // (ParMetis drowns in boundary ghost exchanges) and large enough to
  // leave the GPU's low-occupancy regime — the margin on small delaunay
  // instances is within run-to-run noise of the racy refiners.
  const auto g = road_network_graph(150000, 8);
  PartitionOptions opts;
  opts.k = 16;
  opts.gpu_cpu_threshold = 4000;
  const auto serial = make_serial_partitioner()->run(g, opts);
  const auto par = make_par_partitioner()->run(g, opts);
  const auto gpm = make_hybrid_partitioner()->run(g, opts);
  EXPECT_LT(gpm.modeled_seconds, serial.modeled_seconds);
  EXPECT_LT(gpm.modeled_seconds, par.modeled_seconds);
}

TEST(GpMetis, OneUncoarsenDispatchPerGpuLevel) {
  // Each GPU uncoarsening level is one dispatch (projection, cache
  // projection and refinement fused); the only other uncoarsening
  // dispatch is the cache build on the handoff graph, whose max degree
  // stays under k here, so it needs no offset scan.
  const CsrGraph g = road_network_graph(20000, 3);
  PartitionOptions opts;
  opts.k = 64;
  opts.gpu_cpu_threshold = 2000;
  GpPhaseLog log;
  const auto r = gp_metis_run(g, opts, &log);
  ASSERT_GT(log.gpu_coarsen_levels, 1);
  const auto levels = static_cast<std::uint64_t>(log.gpu_coarsen_levels);
  EXPECT_EQ(r.ledger.launches_with_prefix("kernel/uncoarsen/level/"), levels);
  EXPECT_EQ(r.ledger.launches_with_prefix("kernel/uncoarsen/gaincache/handoff/build"),
            1u);
  EXPECT_EQ(r.ledger.launches_with_prefix("kernel/uncoarsen/"), levels + 1);
  EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty());
}

TEST(GpMetis, SmallGraphSkipsGpuCoarsening) {
  // Below the threshold everything runs on the CPU; the driver must still
  // produce a valid partition (and no GPU coarsening levels).
  const auto g = grid2d_graph(20, 20);
  PartitionOptions opts;
  opts.k = 4;
  GpPhaseLog log;
  const auto r = gp_metis_run(g, opts, &log);
  EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty());
  EXPECT_EQ(log.gpu_coarsen_levels, 0);
}

TEST(GpMetis, FactoryName) {
  EXPECT_EQ(make_hybrid_partitioner()->name(), "gp-metis");
}

TEST(GpuRefine, FullBuffersDropRequestsButStayCorrect) {
  // With k large relative to n/k the per-partition buffer capacity is
  // tiny; overflowing requests must be dropped (counted), never written
  // out of bounds, and the partition must stay valid.
  Device dev;
  const auto g = delaunay_graph(3000, 8);
  Rng rng(4);
  Partition p = recursive_bisection(g, 64, 0.10, rng);
  // Heavy perturbation generates a flood of requests.
  for (vid_t v = 0; v < g.num_vertices(); v += 3) {
    p.where[static_cast<std::size_t>(v)] =
        static_cast<part_t>((p.where[static_cast<std::size_t>(v)] + 1) % 64);
  }
  auto gg = GpuGraph::upload(dev, g, "t");
  DeviceBuffer<part_t> dw(dev, p.where.size(), "w");
  dw.h2d(p.where);
  const auto st = gpu_refine(dev, gg, dw, 64, 0.10, 4, 0, 1 << 13, nullptr,
                             nullptr, GpuScanMode::kBlocked);
  Partition q{64, dw.d2h_vector()};
  EXPECT_TRUE(validate_partition(g, q).empty());
  EXPECT_GT(st.proposed, 0u);
  // dropped may be zero on lucky runs; the invariant under test is
  // bounded-buffer safety, which validate_partition confirms.
}

TEST(GpMetis, DegradesToCpuWhenDeviceMemoryTooSmall) {
  // An absurdly small device capacity makes the very first upload OOM.
  // The driver must not surface the exception: it degrades to the pure
  // mt-metis path and still returns a valid balanced partition, with the
  // health record flagging the run as degraded.
  const auto g = grid2d_graph(50, 50);
  PartitionOptions opts;
  opts.k = 4;
  opts.gpu_memory_bytes = 400;
  const auto r = make_hybrid_partitioner()->run(g, opts);
  EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty());
  EXPECT_GT(r.cut, 0);
  EXPECT_LE(r.balance, 1.0 + opts.eps + 0.05);
  EXPECT_TRUE(r.health.degraded);
  EXPECT_GE(r.health.gpu_retries, 1u);
  EXPECT_EQ(r.health.fallbacks, 1u);
}

TEST(GpMetis, SortMergeContractionVariantWorksEndToEnd) {
  const auto g = delaunay_graph(8000, 2);
  PartitionOptions opts;
  opts.k = 8;
  opts.gpu_cpu_threshold = 1000;
  opts.gpu_hash_contraction = false;  // quicksort+remove path
  const auto r = make_hybrid_partitioner()->run(g, opts);
  EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty());
}

}  // namespace
}  // namespace gp
