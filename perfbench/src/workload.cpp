#include "workload.hpp"

#include <stdexcept>

#include "gen/generators.hpp"

namespace pb {

namespace {

/// The graph instances are fixed stand-ins, as the paper's matrices are
/// fixed (the seed bench_e2e uses).  --seed drives everything the
/// program randomizes: matching orders, bisection trials, fault seeds and
/// the request stream.  Seeded instances would swing the metrics with the
/// instance instead (the hugebubble stand-in's size varies by 8% with
/// its generator seed).
constexpr std::uint64_t kGraphSeed = 1;

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"mesh-k64", "sparse-k64",
                                                 "service-mix"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  Workload w;
  w.name = name;
  w.base.eps = 0.03;
  w.base.seed = seed;
  if (name == "mesh-k64" || name == "sparse-k64") {
    const double scale = smoke ? 1.0 / 512.0 : 1.0 / 64.0;
    const bool mesh = name == "mesh-k64";
    for (const char* g : mesh ? std::vector<const char*>{"ldoor", "delaunay"}
                              : std::vector<const char*>{"hugebubble",
                                                         "usa-roads"}) {
      // Serial metis has no rebalance pass: at k = 64 it leaves delaunay
      // up to 1.7% and the low-degree graphs up to 14% over eps plus
      // granularity.  Smoke graphs are 8x smaller and get 8x fewer parts.
      const double slack = mesh ? 0.05 : 0.15;
      w.graphs.push_back({g, gp::make_paper_graph(g, scale, kGraphSeed),
                          slack, {smoke ? 8 : 64}});
    }
    w.base.threads = 4;
    w.base.ranks = 4;
    w.base.gpu_host_workers = 4;
    w.base.gpu_cpu_threshold = smoke ? 1024 : 4096;
    return w;
  }
  if (name == "service-mix") {
    // Request graphs are small already; smoke runs keep them.  At k = 64
    // a part holds ~30 vertices, so a two-vertex overshoot is 6%: the
    // meshes get 0.05 of slack, the power-law graph 0.10.
    const gp::vid_t n = 2000;
    const gp::vid_t side = 45;
    w.service = true;
    w.graphs.push_back(
        {"delaunay", gp::delaunay_graph(n, kGraphSeed), 0.05, {8, 64}});
    w.graphs.push_back(
        {"grid2d", gp::grid2d_graph(side, side), 0.05, {8, 64}});
    // Power-law graph at k = 8 only: at k = 64 (32 vertices a part) serial
    // metis overshoots the phase audit's corruption threshold and the
    // request fails on every ladder rung.
    w.graphs.push_back(
        {"rmat", gp::rmat_graph(11, 4 * n, kGraphSeed), 0.10, {8}});
    w.graphs.push_back(
        {"ldoor",
         gp::make_paper_graph("ldoor", 1.0 / 512.0, kGraphSeed),
         0.05, {8, 64}});
    w.base.threads = 2;
    w.base.ranks = 2;
    w.base.gpu_host_workers = 2;
    w.base.gpu_cpu_threshold = 1024;
    return w;
  }
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

}  // namespace pb
