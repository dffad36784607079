// Ablation: the multi-GPU extension (the paper's future work).  Sweeps
// the device count and reports modeled time, per-device peak memory, and
// halo-exchange traffic — the scaling trade the extension buys.  gp-metis
// is the D = 1 reference row: gp-metis-multi on one device runs the same
// backend and must match it.
#include <benchmark/benchmark.h>

#include "gen/generators.hpp"
#include "hybrid/gp_partitioner.hpp"
#include "hybrid/multi_gpu_partitioner.hpp"

namespace {

const gp::CsrGraph& test_graph() {
  static const gp::CsrGraph g = gp::bubble_mesh_graph(250000, 16, 3);
  return g;
}

/// Runs `run` on the test graph at `devices` and reports its counters.
template <typename Run>
void sweep(benchmark::State& state, int devices, Run&& run) {
  const auto& g = test_graph();
  gp::GpPhaseLog log;
  gp::PartitionResult r;
  for (auto _ : state) {
    gp::PartitionOptions opts;
    opts.k = 64;
    opts.gpu_devices = devices;
    opts.gpu_cpu_threshold = 4096;
    r = run(g, opts, &log);
    benchmark::DoNotOptimize(r.cut);
  }
  state.counters["modeled_seconds"] = benchmark::Counter(r.modeled_seconds);
  state.counters["cut"] = benchmark::Counter(static_cast<double>(r.cut));
  state.counters["peak_device_MB"] = benchmark::Counter(
      static_cast<double>(r.exec.peak_device_bytes) / 1.0e6);
  state.counters["halo_MB"] = benchmark::Counter(
      static_cast<double>(log.halo_exchange_bytes) / 1.0e6);
}

void BM_GpMetisReference(benchmark::State& state) {
  sweep(state, 1, gp::gp_metis_run);
}
BENCHMARK(BM_GpMetisReference)->Unit(benchmark::kMillisecond);

void BM_MultiGpuSweep(benchmark::State& state) {
  sweep(state, static_cast<int>(state.range(0)), gp::multi_gpu_run);
}
BENCHMARK(BM_MultiGpuSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(
    benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
