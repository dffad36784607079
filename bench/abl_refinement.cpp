// Ablation: refinement strategies.  Compares
//   * the GPU lock-free buffered refinement (per-partition request
//     buffers + atomic counters + explore kernel),
//   * the mt buffered refinement, and
//   * serial greedy k-way refinement,
// on the same perturbed partition, reporting cut improvement as counters.
#include <benchmark/benchmark.h>

#include "core/gain_cache.hpp"
#include "gen/generators.hpp"
#include "hybrid/gpu_refine.hpp"
#include "mt/mt_refine.hpp"
#include "serial/kway_refine.hpp"
#include "serial/rb_partition.hpp"

namespace {

struct Fixture {
  gp::CsrGraph g = gp::delaunay_graph(60000, 4);
  gp::Partition base;

  Fixture() {
    gp::Rng rng(2);
    base = gp::recursive_bisection(g, 64, 0.03, rng);
    // Perturb to give every refiner real work.
    for (gp::vid_t v = 0; v < g.num_vertices(); v += 37) {
      base.where[static_cast<std::size_t>(v)] =
          static_cast<gp::part_t>((base.where[static_cast<std::size_t>(v)] + 1) %
                                  64);
    }
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_SerialKwayRefine(benchmark::State& state) {
  auto& f = fixture();
  gp::wgt_t cut_after = 0;
  for (auto _ : state) {
    gp::Partition p = f.base;
    auto st = gp::kway_refine_serial(f.g, p, 0.05, 8);
    cut_after = st.cut_after;
    benchmark::DoNotOptimize(p.where.data());
  }
  state.counters["cut_after"] =
      benchmark::Counter(static_cast<double>(cut_after));
}
BENCHMARK(BM_SerialKwayRefine)->Unit(benchmark::kMillisecond);

void BM_MtBufferedRefine(benchmark::State& state) {
  auto& f = fixture();
  gp::ThreadPool pool(8);
  gp::MtContext ctx{&pool, nullptr, 1};
  gp::wgt_t cut_after = 0;
  for (auto _ : state) {
    gp::Partition p = f.base;
    auto st = gp::mt_refine(f.g, p, 0.05, 8, ctx, 0);
    cut_after = st.cut_after;
    benchmark::DoNotOptimize(p.where.data());
  }
  state.counters["cut_after"] =
      benchmark::Counter(static_cast<double>(cut_after));
}
BENCHMARK(BM_MtBufferedRefine)->Unit(benchmark::kMillisecond);

void BM_GpuBufferedRefine(benchmark::State& state) {
  auto& f = fixture();
  gp::Device dev;
  auto gg = gp::GpuGraph::upload(dev, f.g, "bench");
  gp::wgt_t cut_after = 0;
  for (auto _ : state) {
    gp::DeviceBuffer<gp::part_t> dw(dev, f.base.where.size(), "w");
    dw.h2d(f.base.where);
    (void)gp::gpu_refine(dev, gg, dw, 64, 0.05, 8, 0, 1 << 14, nullptr,
                         nullptr, gp::GpuScanMode::kBlocked);
    gp::Partition p{64, dw.d2h_vector()};
    cut_after = gp::edge_cut(f.g, p);
    benchmark::DoNotOptimize(p.where.data());
  }
  state.counters["cut_after"] =
      benchmark::Counter(static_cast<double>(cut_after));
}
BENCHMARK(BM_GpuBufferedRefine)->Unit(benchmark::kMillisecond);

// gain_eval ablation: cost of evaluating one proposed move.  The
// historical code path scans the vertex's whole adjacency to accumulate
// per-part connectivity; the incremental cache (DESIGN.md §3.6) answers
// from the per-vertex sparse table.  The `gain_eval` counter is the
// per-proposal cost (kInvert: printed in ns per proposed move).
void BM_GainEvalFullScan(benchmark::State& state) {
  auto& f = fixture();
  const gp::vid_t n = f.g.num_vertices();
  std::vector<gp::wgt_t> conn(64, 0);
  std::vector<gp::part_t> parts;
  for (auto _ : state) {
    gp::wgt_t acc = 0;
    for (gp::vid_t v = 0; v < n; ++v) {
      const gp::wgt_t internal =
          gp::vertex_connectivity(f.g, f.base.where, v, conn, parts);
      gp::wgt_t best = internal;
      gp::part_t best_q = gp::kInvalidPart;
      for (const gp::part_t q : parts) {
        const gp::wgt_t c = conn[static_cast<std::size_t>(q)];
        if (c > best) {
          best = c;
          best_q = q;
        }
        conn[static_cast<std::size_t>(q)] = 0;
      }
      acc += best + best_q;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.counters["gain_eval"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate |
                                  benchmark::Counter::kInvert);
}
BENCHMARK(BM_GainEvalFullScan)->Unit(benchmark::kMillisecond);

void BM_GainEvalCached(benchmark::State& state) {
  auto& f = fixture();
  const gp::vid_t n = f.g.num_vertices();
  gp::GainCache cache;
  cache.build(f.g, f.base.where, 64);
  const auto allowed = [](gp::part_t) { return true; };
  for (auto _ : state) {
    gp::wgt_t acc = 0;
    for (gp::vid_t v = 0; v < n; ++v) {
      if (!cache.boundary(v)) continue;  // interior: rejected in O(1)
      const auto best = cache.best_destination(
          f.g, f.base.where, v,
          f.base.where[static_cast<std::size_t>(v)], cache.internal(v),
          allowed);
      acc += best.conn + best.part;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.counters["gain_eval"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate |
                                  benchmark::Counter::kInvert);
}
BENCHMARK(BM_GainEvalCached)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
