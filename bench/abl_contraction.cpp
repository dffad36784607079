// Ablation: the two GPU contraction merge strategies the paper compares —
// quicksort+remove versus the clustered hash table ("the hash table
// approach is faster than the sorting").  The host runs one dense row
// merge for both (DESIGN.md §3.1), so wall time is the same; the strategies
// differ in their charge, which the counter reports in modeled seconds.
#include <benchmark/benchmark.h>

#include "gen/generators.hpp"
#include "hybrid/gpu_contract.hpp"
#include "hybrid/gpu_matching.hpp"

namespace {

struct Fixture {
  gp::Device dev;
  gp::CsrGraph g = gp::fem_slab_graph(24, 36, 8);  // high degree: merge-heavy
  gp::GpuGraph gg = gp::GpuGraph::upload(dev, g, "bench");
  gp::GpuMatchResult m =
      gp::gpu_match(dev, gg, 0, 1, 4096, gp::GpuScanMode::kBlocked);
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void run_contract(benchmark::State& state, bool use_hash) {
  auto& f = fixture();
  gp::CostLedger ledger;
  f.dev.set_ledger(&ledger);
  for (auto _ : state) {
    gp::GpuContractStats st;
    auto coarse = gp::gpu_contract(f.dev, f.gg, f.m.match, f.m.cmap,
                                   f.m.n_coarse, 0, 4096, use_hash,
                                   gp::GpuScanMode::kBlocked, &st);
    benchmark::DoNotOptimize(coarse.m);
  }
  f.dev.set_ledger(nullptr);
  state.counters["modeled_merge_work"] = benchmark::Counter(
      static_cast<double>(ledger.seconds_with_prefix("kernel/coarsen/contract/merge")) /
          static_cast<double>(state.iterations()),
      benchmark::Counter::kDefaults);
}

void BM_ContractHashTable(benchmark::State& state) {
  run_contract(state, true);
}
void BM_ContractSortMerge(benchmark::State& state) {
  run_contract(state, false);
}
BENCHMARK(BM_ContractHashTable)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ContractSortMerge)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
