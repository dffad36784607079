// Example: partitioning a graph that does NOT fit on one GPU — the
// motivating scenario of the paper's future work, served by the
// multi-GPU extension.  Sweeps the device count and prints per-device
// peak memory, halo traffic, modeled time, and quality.
#include <cstdio>

#include "gen/generators.hpp"
#include "gpu/device.hpp"
#include "hybrid/multi_gpu_partitioner.hpp"

int main(int argc, char** argv) {
  using namespace gp;
  vid_t n = 200000;
  if (argc > 1) n = std::atoi(argv[1]);

  const CsrGraph g = bubble_mesh_graph(n, 12, 5);
  std::printf("mesh: %d vertices, %lld edges (%.1f MB as CSR)\n",
              g.num_vertices(), static_cast<long long>(g.num_edges()),
              static_cast<double>(g.memory_bytes()) / 1.0e6);

  PartitionOptions opts;
  opts.k = 64;
  opts.gpu_cpu_threshold = 4096;

  std::printf("\n%8s %16s %12s %12s %10s %10s\n", "devices", "peak MB/device",
              "halo MB", "modeled s", "cut", "balance");
  for (const int d : {1, 2, 4, 8}) {
    opts.gpu_devices = d;
    GpPhaseLog log;
    const auto r = multi_gpu_run(g, opts, &log);
    std::printf("%8d %16.2f %12.3f %12.4f %10lld %10.4f\n", d,
                static_cast<double>(r.exec.peak_device_bytes) / 1.0e6,
                static_cast<double>(log.halo_exchange_bytes) / 1.0e6,
                r.modeled_seconds, static_cast<long long>(r.cut), r.balance);
  }

  // The punchline: cap the device at less memory than the graph needs
  // and show the sweep still works with enough devices.
  const std::size_t cap = g.memory_bytes();  // < graph + working arrays
  std::printf("\nwith a %.1f MB per-device cap (graph alone needs more "
              "once working arrays are added):\n",
              static_cast<double>(cap) / 1.0e6);
  opts.gpu_memory_bytes = cap;
  for (const int d : {1, 4}) {
    opts.gpu_devices = d;
    try {
      const auto r = multi_gpu_run(g, opts, nullptr);
      std::printf("  %d device(s): ok, cut %lld, peak %.2f MB/device\n", d,
                  static_cast<long long>(r.cut),
                  static_cast<double>(r.exec.peak_device_bytes) / 1.0e6);
    } catch (const DeviceOutOfMemory& e) {
      std::printf("  %d device(s): DeviceOutOfMemory (%s)\n", d, e.what());
    }
  }
  return 0;
}
