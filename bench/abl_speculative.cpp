// Ablation: speculative (Galois/Gmetis-style) matching vs the lock-free
// two-round scheme (mt-metis/GP-metis) — the central synchronization
// design choice the paper argues for: "using atomics or locks for
// synchronization imposes high overheads".  Reports abort/conflict rates
// and the resulting coarse sizes.
#include <benchmark/benchmark.h>

#include "galois/gmetis_match.hpp"
#include "gen/generators.hpp"
#include "mt/mt_matching.hpp"

namespace {

const gp::CsrGraph& test_graph() {
  static const gp::CsrGraph g = gp::delaunay_graph(100000, 42);
  return g;
}

void BM_SpeculativeMatch(benchmark::State& state) {
  const auto& g = test_graph();
  gp::ThreadPool pool(8);
  gp::GmetisMatchStats st;
  std::uint64_t seed = 1;
  gp::vid_t nc = 0;
  for (auto _ : state) {
    const auto m = gp::gmetis_match(g, pool, seed++, &st);
    nc = m.n_coarse;
    benchmark::DoNotOptimize(nc);
  }
  state.counters["abort_rate"] = benchmark::Counter(st.spec.abort_rate());
  state.counters["lock_acquisitions"] =
      benchmark::Counter(static_cast<double>(st.spec.lock_acquisitions));
  state.counters["coarse_vertices"] = benchmark::Counter(static_cast<double>(nc));
}
BENCHMARK(BM_SpeculativeMatch)->Unit(benchmark::kMillisecond);

void BM_LockFreeTwoRoundMatch(benchmark::State& state) {
  const auto& g = test_graph();
  gp::ThreadPool pool(8);
  gp::MtContext ctx{&pool, nullptr, 1};
  gp::MtMatchStats st;
  gp::vid_t nc = 0;
  for (auto _ : state) {
    ctx.seed++;
    const auto m = gp::mt_match(g, ctx, 0, &st);
    nc = m.n_coarse;
    benchmark::DoNotOptimize(nc);
  }
  state.counters["conflicts"] =
      benchmark::Counter(static_cast<double>(st.conflicts));
  state.counters["lock_acquisitions"] = benchmark::Counter(0);
  state.counters["coarse_vertices"] = benchmark::Counter(static_cast<double>(nc));
}
BENCHMARK(BM_LockFreeTwoRoundMatch)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
