// Ablation: the lock-free matching scheme (Fig. 3's mechanism).
//
//   * two-round GPU matching at different logical-thread counts with the
//     measured conflict rate as a counter, vs serial HEM as reference.
//
// Reading the sweep: on the simulated device, 8 host workers execute the
// logical threads in blocked chunks, so FEW logical threads mean each
// worker's vertices interleave finely with its neighbours' (the regime a
// real GPU's warp-strided ownership is always in -> highest conflict
// rate), while MANY logical threads give each worker a spatially compact
// slice (the mt-metis blocked-ownership regime -> fewest conflicts).
// The paper's Table III explanation — finer-grained ownership raises the
// conflict rate — is the left-to-right *decrease* in this sweep.
#include <benchmark/benchmark.h>

#include "gen/generators.hpp"
#include "hybrid/gpu_matching.hpp"
#include "serial/hem_matching.hpp"

namespace {

const gp::CsrGraph& test_graph() {
  static const gp::CsrGraph g = gp::delaunay_graph(100000, 42);
  return g;
}

void BM_SerialHem(benchmark::State& state) {
  const auto& g = test_graph();
  for (auto _ : state) {
    gp::Rng rng(1);
    auto m = gp::hem_match_serial(g, rng);
    benchmark::DoNotOptimize(m.n_coarse);
  }
  state.counters["conflict_rate"] = 0;
}
BENCHMARK(BM_SerialHem)->Unit(benchmark::kMillisecond);

void BM_GpuLockFreeMatch(benchmark::State& state) {
  const auto& g = test_graph();
  gp::Device dev;
  auto gg = gp::GpuGraph::upload(dev, g, "bench");
  const auto threads = state.range(0);
  std::uint64_t conflicts = 0, runs = 0;
  for (auto _ : state) {
    auto m = gp::gpu_match(dev, gg, 0, 1 + runs, threads,
                           gp::GpuScanMode::kBlocked);
    benchmark::DoNotOptimize(m.n_coarse);
    conflicts += m.conflicts;
    ++runs;
  }
  state.counters["conflicts_per_vertex"] = benchmark::Counter(
      static_cast<double>(conflicts) /
      (static_cast<double>(runs) * static_cast<double>(g.num_vertices())));
  state.counters["logical_threads"] =
      benchmark::Counter(static_cast<double>(threads));
}
BENCHMARK(BM_GpuLockFreeMatch)
    ->Arg(32)
    ->Arg(256)
    ->Arg(2048)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
