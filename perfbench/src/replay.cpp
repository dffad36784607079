#include "replay.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/audit.hpp"
#include "core/matching.hpp"
#include "gpu/device.hpp"
#include "hybrid/gpu_contract.hpp"
#include "hybrid/gpu_matching.hpp"
#include "hybrid/gpu_refine.hpp"
#include "mt/mt_contract.hpp"
#include "mt/mt_initpart.hpp"
#include "mt/mt_matching.hpp"
#include "mt/mt_refine.hpp"
#include "serial/hem_matching.hpp"
#include "serial/kway_refine.hpp"
#include "serial/rb_partition.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pb {

namespace {

using gp::AuditLevel;

/// Runs `f` inside a "layer" span, adding its wall time to `acc`.
template <typename F>
auto timed(Tracer& tracer, const char* name, double& acc, F&& f) {
  Scope span(tracer, name, "layer");
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
    f();
    acc += seconds_since(t0);
  } else {
    auto r = f();
    acc += seconds_since(t0);
    return r;
  }
}

std::string level_name(int lvl) {
  std::string s = "L";
  s += std::to_string(lvl);
  return s;
}

/// Final check of a replay's partition (same rules as a driver result).
std::string check_partition(const Input& in, gp::part_t k, double eps,
                            gp::Partition p) {
  const gp::CsrGraph& g = in.graph;
  gp::PartitionResult r;
  r.partition = std::move(p);
  r.cut = gp::edge_cut(g, r.partition);
  r.balance = gp::partition_balance(g, r.partition);
  return check_result(g, k, eps, r, in.balance_slack);
}

std::string replay_serial(const Input& in, const gp::PartitionOptions& opts,
                          SerialLayers& L, Tracer& tracer) {
  const gp::CsrGraph& g = in.graph;
  std::string err;
  auto audit = [&](auto&& f) {
    const gp::AuditFailure a = timed(tracer, "audit", L.audit_s, f);
    if (err.empty() && !a.ok()) err = a.to_string();
  };
  gp::Rng rng(opts.seed);
  struct Level {
    gp::CsrGraph graph;
    std::vector<gp::vid_t> cmap;
  };
  std::vector<Level> levels;
  const gp::CsrGraph* cur = &g;
  while (cur->num_vertices() > opts.coarsen_target()) {
    Scope level(tracer, level_name(static_cast<int>(levels.size())), "level");
    gp::MatchResult m = timed(tracer, "hem_match_serial", L.match_s,
                              [&] { return gp::hem_match_serial(*cur, rng); });
    if (static_cast<double>(m.n_coarse) >
        opts.min_shrink * static_cast<double>(cur->num_vertices())) {
      break;
    }
    gp::CsrGraph coarse =
        timed(tracer, "contract_serial", L.contract_s, [&] {
          return gp::contract_serial(*cur, m.match, m.cmap, m.n_coarse);
        });
    audit([&] { return gp::audit_matching(m.match, AuditLevel::kPhase); });
    audit([&] {
      return gp::audit_contraction(*cur, coarse, m.match, m.cmap,
                                   AuditLevel::kPhase);
    });
    audit([&] { return gp::audit_csr(coarse, AuditLevel::kPhase); });
    levels.push_back({std::move(coarse), std::move(m.cmap)});
    cur = &levels.back().graph;
  }
  gp::Partition p = timed(tracer, "recursive_bisection", L.initpart_s, [&] {
    return gp::recursive_bisection(*cur, opts.k, opts.eps, rng);
  });
  audit([&] {
    return gp::audit_partition(*cur, p, opts.k, 0.0, -1, AuditLevel::kPhase);
  });
  gp::GainCache cache;
  gp::KwayWorkspace ws;
  auto refine = [&](const gp::CsrGraph& graph) {
    const auto st = timed(tracer, "kway_refine_serial", L.refine_s, [&] {
      cache.build(graph, p.where, opts.k);
      return gp::kway_refine_serial(graph, p, opts.eps, opts.refine_passes,
                                    &cache, &ws);
    });
    L.refine_moves += st.moves;
  };
  refine(*cur);
  for (std::size_t i = levels.size(); i-- > 0;) {
    Scope level(tracer, level_name(static_cast<int>(i)), "level");
    const gp::CsrGraph& fine = i == 0 ? g : levels[i - 1].graph;
    p.where = timed(tracer, "project_partition", L.refine_s, [&] {
      return gp::project_partition(levels[i].cmap, p.where);
    });
    refine(fine);
    audit([&] {
      return gp::audit_partition(fine, p, opts.k, 0.0, -1,
                                 AuditLevel::kPhase);
    });
  }
  if (err.empty()) err = check_partition(in, opts.k, opts.eps, std::move(p));
  return err;
}

std::string replay_mt(const Input& in, const gp::PartitionOptions& opts,
                      MtLayers& L, Tracer& tracer) {
  const gp::CsrGraph& g = in.graph;
  gp::ThreadPool pool(opts.threads);
  const gp::MtContext ctx{&pool, nullptr, opts.seed};
  struct Level {
    gp::CsrGraph graph;
    std::vector<gp::vid_t> cmap;
  };
  std::vector<Level> levels;
  const gp::CsrGraph* cur = &g;
  while (cur->num_vertices() > opts.coarsen_target()) {
    const int lvl = static_cast<int>(levels.size());
    Scope level(tracer, level_name(lvl), "level");
    gp::MatchResult m = timed(tracer, "mt_match", L.match_s,
                              [&] { return gp::mt_match(*cur, ctx, lvl); });
    if (static_cast<double>(m.n_coarse) >
        opts.min_shrink * static_cast<double>(cur->num_vertices())) {
      break;
    }
    L.n_fine += cur->num_vertices();
    L.n_coarse += m.n_coarse;
    gp::CsrGraph coarse = timed(tracer, "mt_contract", L.contract_s, [&] {
      return gp::mt_contract(*cur, m, ctx, lvl);
    });
    levels.push_back({std::move(coarse), std::move(m.cmap)});
    cur = &levels.back().graph;
  }
  const int coarsest = static_cast<int>(levels.size());
  gp::Partition p = timed(tracer, "mt_initial_partition", L.initpart_s, [&] {
    return gp::mt_initial_partition(*cur, opts.k, opts.eps, ctx,
                                    opts.init_trials);
  });
  auto refine = [&](const gp::CsrGraph& graph, int lvl) {
    const auto st = timed(tracer, "mt_refine", L.refine_s, [&] {
      return gp::mt_refine(graph, p, opts.eps, opts.refine_passes, ctx, lvl,
                           /*cut_stats=*/false);
    });
    L.proposed += static_cast<double>(st.proposed);
    L.committed += static_cast<double>(st.committed);
  };
  refine(*cur, coarsest);
  for (std::size_t i = levels.size(); i-- > 0;) {
    Scope level(tracer, level_name(static_cast<int>(i)), "level");
    const gp::CsrGraph& fine = i == 0 ? g : levels[i - 1].graph;
    p.where = timed(tracer, "project_partition", L.refine_s, [&] {
      return gp::project_partition(levels[i].cmap, p.where);
    });
    refine(fine, static_cast<int>(i));
  }
  return check_partition(in, opts.k, opts.eps, std::move(p));
}

std::string replay_hybrid(const Input& in, const gp::PartitionOptions& opts,
                          HybridLayers& L, Tracer& tracer) {
  const gp::CsrGraph& g = in.graph;
  gp::Device::Config cfg;
  cfg.host_workers = opts.gpu_host_workers;
  gp::Device dev(cfg);
  struct Level {
    gp::GpuGraph graph;
    gp::DeviceBuffer<gp::vid_t> cmap;
    gp::vid_t fine_n = 0;
  };
  std::vector<Level> levels;
  const gp::GpuGraph g0 = timed(tracer, "GpuGraph::upload", L.upload_s, [&] {
    return gp::GpuGraph::upload(dev, g, "G0");
  });
  const gp::GpuGraph* cur = &g0;
  std::int64_t T = opts.gpu_threads;
  while (cur->n > opts.gpu_cpu_threshold) {
    const int lvl = static_cast<int>(levels.size());
    Scope level(tracer, level_name(lvl), "level");
    auto m = timed(tracer, "gpu_match", L.match_s, [&] {
      return gp::gpu_match(dev, *cur, lvl, opts.seed, T, opts.gpu_scan);
    });
    L.conflicts += static_cast<double>(m.conflicts);
    if (static_cast<double>(m.n_coarse) >
        opts.min_shrink * static_cast<double>(cur->n)) {
      break;
    }
    gp::GpuGraph coarse = timed(tracer, "gpu_contract", L.contract_s, [&] {
      return gp::gpu_contract(dev, *cur, m.match, m.cmap, m.n_coarse, lvl, T,
                              opts.gpu_hash_contraction, opts.gpu_scan);
    });
    levels.push_back({std::move(coarse), std::move(m.cmap), cur->n});
    cur = &levels.back().graph;
    T = std::max<std::int64_t>(256, T / 2);
  }
  // The CPU middle belongs to the mt layer; it is run here untimed.
  const gp::CsrGraph handoff = cur->download();
  gp::Partition p;
  {
    gp::ThreadPool pool(opts.threads);
    const gp::MtContext ctx{&pool, nullptr, opts.seed};
    p = gp::mt_initial_partition(handoff, opts.k, opts.eps, ctx,
                                 opts.init_trials);
  }
  gp::DeviceBuffer<gp::part_t> where(
      dev, static_cast<std::size_t>(handoff.num_vertices()), "where");
  timed(tracer, "DeviceBuffer::h2d", L.upload_s, [&] { where.h2d(p.where); });
  for (std::size_t i = levels.size(); i-- > 0;) {
    const int lvl = static_cast<int>(i);
    Scope level(tracer, level_name(lvl), "level");
    const gp::vid_t fine_n = levels[i].fine_n;
    const gp::GpuGraph& fine = i == 0 ? g0 : levels[i - 1].graph;
    gp::DeviceBuffer<gp::part_t> where_fine(
        dev, static_cast<std::size_t>(fine_n), "where/" + level_name(lvl));
    const std::int64_t Tl = std::min<std::int64_t>(
        opts.gpu_threads, std::max<std::int64_t>(256, fine_n));
    timed(tracer, "gpu_project", L.project_s, [&] {
      gp::gpu_project(dev, levels[i].cmap, where, where_fine, lvl, Tl);
    });
    const auto st = timed(tracer, "gpu_refine", L.refine_s, [&] {
      return gp::gpu_refine(dev, fine, where_fine, opts.k, opts.eps,
                            opts.refine_passes, lvl, Tl, nullptr, nullptr,
                            opts.gpu_scan);
    });
    L.proposed += static_cast<double>(st.proposed);
    L.committed += static_cast<double>(st.committed);
    where = std::move(where_fine);
  }
  p.where = where.d2h_vector();
  return check_partition(in, opts.k, opts.eps, std::move(p));
}

}  // namespace

std::vector<Metric> LayerReplay::metrics() const {
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  return {
      {"serial.match_s", serial.match_s, "s"},
      {"serial.contract_s", serial.contract_s, "s"},
      {"serial.initpart_s", serial.initpart_s, "s"},
      {"serial.refine_s", serial.refine_s, "s"},
      {"serial.refine_moves", serial.refine_moves, "count"},
      {"mt.match_s", mt.match_s, "s"},
      {"mt.contract_s", mt.contract_s, "s"},
      {"mt.initpart_s", mt.initpart_s, "s"},
      {"mt.refine_s", mt.refine_s, "s"},
      {"mt.shrink_ratio", ratio(mt.n_coarse, mt.n_fine), "ratio"},
      {"mt.refine_commit_ratio", ratio(mt.committed, mt.proposed), "ratio"},
      {"hybrid.upload_s", hybrid.upload_s, "s"},
      {"hybrid.match_s", hybrid.match_s, "s"},
      {"hybrid.contract_s", hybrid.contract_s, "s"},
      {"hybrid.project_s", hybrid.project_s, "s"},
      {"hybrid.refine_s", hybrid.refine_s, "s"},
      {"hybrid.match_conflicts", hybrid.conflicts, "count"},
      {"hybrid.refine_commit_ratio", ratio(hybrid.committed, hybrid.proposed),
       "ratio"},
      {"core.audit_s", serial.audit_s, "s"},
  };
}

LayerReplay replay_layers(const Workload& w, Report& report, Tracer& tracer) {
  LayerReplay out;
  for (const auto& in : w.graphs) {
    for (const gp::part_t k : in.ks) {
      const gp::PartitionOptions opts = w.options(k);
      const std::string tag = in.name + "/k" + std::to_string(k);
      auto run = [&](const char* sys, auto&& body) {
        Scope span(tracer, std::string("replay ") + sys + " " + tag,
                   "replay");
        std::string err;
        try {
          err = body();
        } catch (const std::exception& e) {
          err = std::string("threw: ") + e.what();
        }
        report.check(w.name + " replay " + sys + " " + tag, err);
      };
      run("serial", [&] { return replay_serial(in, opts, out.serial, tracer); });
      run("mt", [&] { return replay_mt(in, opts, out.mt, tracer); });
      run("hybrid", [&] { return replay_hybrid(in, opts, out.hybrid, tracer); });
    }
  }
  return out;
}

PoolCosts measure_pool(int threads, int reps) {
  std::vector<double> spawn, dispatch;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    { gp::ThreadPool a(2); }
    { gp::ThreadPool b(4); }
    spawn.push_back(seconds_since(t0));
  }
  gp::ThreadPool pool(threads);
  for (int r = 0; r < 10 * reps; ++r) {
    const auto t0 = Clock::now();
    pool.run_on_all([](int) {});
    dispatch.push_back(seconds_since(t0));
  }
  return {median(spawn), median(dispatch)};
}

}  // namespace pb
