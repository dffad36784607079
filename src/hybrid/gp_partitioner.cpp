#include "hybrid/gp_partitioner.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/audit.hpp"
#include "core/vcycle.hpp"
#include "hybrid/gpu_contract.hpp"
#include "hybrid/gpu_gain_cache.hpp"
#include "hybrid/gpu_matching.hpp"
#include "hybrid/gpu_refine.hpp"
#include "mt/mt_partitioner.hpp"
#include "serial/metis_partitioner.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace gp {

namespace {

/// Modeled cost of recovering from a device fault before a retry: the
/// driver tears the context down and re-establishes it (cudaDeviceReset +
/// re-init is milliseconds on real hardware).
constexpr double kDeviceResetSeconds = 2e-3;

/// Bounded GPU retries before degrading to a pure mt-metis run.
constexpr int kMaxGpuAttempts = 3;

DeviceExecStats device_exec_stats(const Device& dev) {
  return {dev.kernels_launched(), dev.pool_hits(), dev.pool_misses(),
          dev.pool_recycled_bytes()};
}

/// One full GPU-coarsen / CPU-middle / GPU-uncoarsen attempt.  Throws
/// DeviceOutOfMemory / DeviceFailure when the device gives out and
/// AuditError when a phase-boundary invariant audit fails; the driver
/// below owns the retry/escalation ladder.  `handoff` is the level size
/// at which the GPU hands the graph to the CPU engine; `force_sort_merge`
/// is the ladder's second rung (the hash contraction is the suspect).
void gp_metis_attempt(const CsrGraph& g, const PartitionOptions& opts,
                      GpPhaseLog* log, vid_t handoff, bool force_sort_merge,
                      FaultInjector* injector, const Watchdog& watchdog,
                      PartitionResult& res) {
  Device::Config dev_config;  // GTX-Titan-like simulated device
  if (opts.gpu_memory_bytes > 0) {
    dev_config.memory_bytes = opts.gpu_memory_bytes;
  }
  if (opts.gpu_host_workers > 0) {
    dev_config.host_workers = opts.gpu_host_workers;
  }
  Device dev(dev_config);
  dev.set_ledger(&res.ledger);
  dev.set_fault_injector(injector, 0);
  dev.set_cancel_token(opts.cancel);
  dev.set_leak_sink(&res.exec.pool_leaked_blocks);

  const AuditLevel audit = opts.audit_level;

  struct GpuLevel {
    GpuGraph graph;              // coarse graph at this level (device)
    DeviceBuffer<vid_t> cmap;    // fine->coarse map producing it (device)
    vid_t fine_n = 0;
  };
  std::vector<GpuLevel> gpu_levels;

  // ---- 1. copy the graph to GPU global memory ----
  // Seed the device pool from the level-0 footprint first: every buffer
  // any level allocates (coarse graphs, cmaps, request buffers, the gain
  // cache's slabs) is bounded by the level-0 arrays, so pre-sizing the
  // buckets turns the V-cycle's first-touch allocations — including this
  // upload's own — into pool hits.
  dev.pool_presize(sizeof(eid_t) * (static_cast<std::size_t>(g.num_vertices()) + 1) +
                       sizeof(vid_t) * static_cast<std::size_t>(g.num_arcs()) +
                       sizeof(wgt_t) * static_cast<std::size_t>(g.num_arcs()) +
                       sizeof(wgt_t) * static_cast<std::size_t>(g.num_vertices()),
                   /*copies=*/2);
  GpuGraph g0 = GpuGraph::upload(dev, g, "G0");
  if (audit != AuditLevel::kOff) {
    // Transfer-integrity audit: the kernels index through the device copy
    // of the structure arrays, so a flipped bit there must be caught
    // BEFORE any kernel consumes it — afterwards it is an out-of-bounds
    // access, not a wrong answer.
    const bool clean = g0.adjp.d2h_vector() == g.adjp() &&
                       g0.adjncy.d2h_vector() == g.adjncy() &&
                       g0.adjwgt.d2h_vector() == g.adjwgt() &&
                       g0.vwgt.d2h_vector() == g.vwgt();
    AuditFailure f;
    if (!clean) {
      f.kind = AuditFailure::Kind::kCsr;
      f.invariant = "transfer-integrity";
      f.detail = "device copy of the input graph differs from the host "
                 "source after upload";
    }
    if (!record_audit(&res.health, f)) throw AuditError(std::move(f));
  }

  // ---- 2. GPU coarsening until the threshold level ----
  const GpuGraph* cur = &g0;
  int lvl = 0;
  std::uint64_t total_conflicts = 0;
  std::int64_t launch_threads = opts.gpu_threads;
  while (cur->n > handoff) {
    check_cancelled(opts, "gp/gpu-coarsen");
    auto m = gpu_match(dev, *cur, lvl, opts.seed, launch_threads,
                       opts.gpu_scan);
    total_conflicts += m.conflicts;
    if (static_cast<double>(m.n_coarse) >
        opts.min_shrink * static_cast<double>(cur->n)) {
      break;
    }
    // Corruption site: one cmap entry perturbed in device memory on the
    // single-threaded host path between matching and contraction.
    corrupt_cmap_site(injector, m.cmap.data(), static_cast<std::size_t>(cur->n),
                      m.n_coarse);
    if (audit != AuditLevel::kOff) {
      // Phase-boundary audit of the level's matching artifacts.  The
      // d2h copies are metered like any transfer (and are themselves
      // flip-corruption sites — an audit that reads through a faulty bus
      // can misfire, which the ladder absorbs like any other failure).
      const auto host_match = m.match.d2h_vector();
      const auto host_cmap = m.cmap.d2h_vector();
      AuditFailure f = audit_matching(host_match, audit);
      if (f.ok()) {
        std::string err = validate_cmap(host_match, host_cmap, m.n_coarse);
        if (!err.empty()) {
          f.kind = AuditFailure::Kind::kContraction;
          f.invariant = "cmap-consistency";
          f.detail = "gpu level " + std::to_string(lvl) + ": " + err;
        }
      }
      if (!record_audit(&res.health, f)) throw AuditError(std::move(f));
    }
    GpuContractStats cst;
    GpuGraph coarse =
        gpu_contract(dev, *cur, m.match, m.cmap, m.n_coarse, lvl,
                     launch_threads,
                     opts.gpu_hash_contraction && !force_sort_merge,
                     opts.gpu_scan, &cst);
    if (audit == AuditLevel::kParanoid) {
      // Full conservation audit of the device contraction against the
      // fine graph (both sides downloaded; paranoid is allowed to pay).
      AuditFailure f = audit_contraction(
          cur->download(), coarse.download(), m.match.d2h_vector(),
          m.cmap.d2h_vector(), audit);
      if (!record_audit(&res.health, f)) throw AuditError(std::move(f));
    }
    gpu_levels.push_back(
        {std::move(coarse), std::move(m.cmap), cur->n});
    cur = &gpu_levels.back().graph;
    ++lvl;
    // The paper reduces the launched threads as the graph shrinks to
    // avoid underutilized kernels (Section III-D's non-persistent data
    // ownership; the fixed-width alternative exists for the ablation).
    if (opts.gpu_shrink_launch) {
      launch_threads = std::max<std::int64_t>(256, launch_threads / 2);
    }
  }
  const int gpu_lvls = static_cast<int>(gpu_levels.size());

  // ---- 3. transfer the coarse graph to the CPU; finish coarsening +
  // initial partitioning + first refinements with the mt-metis engine ----
  const CsrGraph cpu_graph = cur->download();
  if (audit != AuditLevel::kOff) {
    // Handoff audit: the graph crossing the PCIe boundary must be
    // well-formed and conserve the original total vertex weight (GPU
    // contraction only merges vertices).
    AuditFailure f = audit_csr(cpu_graph, audit);
    if (f.ok() &&
        cpu_graph.total_vertex_weight() != g.total_vertex_weight()) {
      f.kind = AuditFailure::Kind::kContraction;
      f.invariant = "vertex-weight-conservation";
      f.detail = "handoff graph total vertex weight " +
                 std::to_string(cpu_graph.total_vertex_weight()) +
                 " != input total " +
                 std::to_string(g.total_vertex_weight());
    }
    if (!record_audit(&res.health, f)) throw AuditError(std::move(f));
  }
  check_cancelled(opts, "gp/cpu-middle");
  ThreadPool pool(opts.threads);
  pool.set_cancel_token(opts.cancel);
  pool.set_fault_injector(injector);
  MtBackend mt_backend(opts, MtContext{&pool, &res.ledger, opts.seed});
  const auto mt_out =
      vcycle_pipeline(cpu_graph, opts, mt_backend, gpu_lvls,
                      VcycleControl{injector, &res.health, &watchdog});

  // ---- 4. transfer the partitioned graph back; GPU uncoarsening ----
  DeviceBuffer<part_t> where_coarse(
      dev, static_cast<std::size_t>(cpu_graph.num_vertices()), "where");
  where_coarse.h2d(mt_out.partition.where);
  if (audit != AuditLevel::kOff) {
    // The refinement kernels index part-weight tables with these labels:
    // verify the upload before any kernel dereferences a flipped label.
    AuditFailure f;
    if (where_coarse.d2h_vector() != mt_out.partition.where) {
      f.kind = AuditFailure::Kind::kPartition;
      f.invariant = "transfer-integrity";
      f.detail = "device copy of the coarse labels differs from the host "
                 "source after upload";
    }
    if (!record_audit(&res.health, f)) throw AuditError(std::move(f));
  }

  // Device-resident gain cache (DESIGN.md §3.6): built once on the
  // handoff graph (whose labels just arrived from the CPU middle),
  // projected — not rebuilt — down each uncoarsening level, and kept
  // exact-or-dirty by the refine kernels' deltas in between.
  GpuGainCache gcache;
  bool gcache_valid = false;
  // Partition weights ride along: projection preserves per-part weight
  // sums exactly, so the k-entry table survives level transitions and the
  // per-level recount kernel runs only once (inside the first refine).
  DeviceBuffer<wgt_t> gpw;
  if (!gpu_levels.empty() && !watchdog.expired()) {
    const std::int64_t T0 = std::min<std::int64_t>(
        opts.gpu_threads, std::max<std::int64_t>(256, cur->n));
    gcache = GpuGainCache::build(dev, *cur, where_coarse, opts.k,
                                 "uncoarsen/gaincache/handoff", T0,
                                 opts.gpu_scan);
    gcache_valid = true;
  }

  bool shed_noted = false;
  for (std::size_t i = gpu_levels.size(); i-- > 0;) {
    check_cancelled(opts, "gp/gpu-uncoarsen");
    const vid_t fine_n = gpu_levels[i].fine_n;
    const GpuGraph& fine = (i == 0) ? g0 : gpu_levels[i - 1].graph;
    DeviceBuffer<part_t> where_fine(
        dev, static_cast<std::size_t>(fine_n), "where/L" + std::to_string(i));
    const std::int64_t T = std::min<std::int64_t>(
        opts.gpu_threads, std::max<std::int64_t>(256, fine_n));
    gpu_project(dev, gpu_levels[i].cmap, where_coarse, where_fine,
                static_cast<int>(i), T);
    if (watchdog.expired()) {
      // Deadline: keep the (valid) projected partition, shed the level's
      // refinement passes, finish degraded rather than overrun.
      if (!shed_noted) {
        res.health.note(
            "watchdog: time budget exceeded, shedding gpu refinement");
        ++res.health.fallbacks;
        res.health.degraded = true;
        shed_noted = true;
      }
      gcache_valid = false;  // later levels shed too; stop maintaining it
    } else {
      const std::string tag = "uncoarsen/gaincache/L" + std::to_string(i);
      if (gcache_valid) {
        GpuGainCache fine_cache = GpuGainCache::project(
            dev, gcache, fine, where_fine, gpu_levels[i].cmap, tag, T,
            opts.gpu_scan);
        gcache = std::move(fine_cache);
      } else {
        gcache = GpuGainCache::build(dev, fine, where_fine, opts.k, tag, T,
                                     opts.gpu_scan);
        gcache_valid = true;
      }
      auto rst = gpu_refine(dev, fine, where_fine, opts.k, opts.eps,
                            opts.refine_passes, static_cast<int>(i), T,
                            &gcache, &gpw, opts.gpu_scan);
      if (log) log->refine_committed += rst.committed;
      if (audit == AuditLevel::kParanoid) {
        // Cache-vs-recompute cross-check: the refine kernels both read
        // and delta-updated the device cache, so corruption there skews
        // every later move — audit it at the same boundary as the labels.
        AuditFailure f;
        const std::string err = gcache.compare_to_host(
            fine.download(), where_fine.d2h_vector());
        if (!err.empty()) {
          f.kind = AuditFailure::Kind::kGainCache;
          f.invariant = "recompute";
          f.detail = "gpu level " + std::to_string(i) + ": " + err;
        }
        if (!record_audit(&res.health, f)) throw AuditError(std::move(f));
      }
    }
    where_coarse = std::move(where_fine);
  }

  // ---- 5. final partition back to the host ----
  res.partition.k = opts.k;
  res.partition.where = where_coarse.d2h_vector();

  if (audit != AuditLevel::kOff) {
    AuditFailure f = audit_partition(g, res.partition, opts.k, opts.eps,
                                     /*expected_cut=*/-1, audit);
    if (!record_audit(&res.health, f)) throw AuditError(std::move(f));
  }

  res.cut = edge_cut(g, res.partition);
  res.balance = partition_balance(g, res.partition);
  res.coarsen_levels = gpu_lvls + mt_out.levels;
  res.coarsest_vertices = mt_out.coarsest_vertices;
  res.exec += device_exec_stats(dev);

  if (log) {
    log->gpu_coarsen_levels = gpu_lvls;
    log->cpu_levels = mt_out.levels;
    log->handoff_vertices = cpu_graph.num_vertices();
    log->h2d_bytes = dev.total_h2d_bytes();
    log->d2h_bytes = dev.total_d2h_bytes();
    log->match_conflicts = total_conflicts;
  }
}

/// Third rung of the ladder: the whole multilevel pipeline on the CPU
/// engine (exactly what GP-metis already does below the threshold level,
/// applied to the entire graph).  Charges land in the same ledger, after
/// whatever the failed GPU attempts already spent.
void pure_cpu_fallback(const CsrGraph& g, const PartitionOptions& opts,
                       GpPhaseLog* log, const VcycleControl& control,
                       PartitionResult& res) {
  ThreadPool pool(opts.threads);
  pool.set_cancel_token(opts.cancel);
  pool.set_fault_injector(control.injector);
  MtBackend backend(opts, MtContext{&pool, &res.ledger, opts.seed});
  vcycle_attempt(g, opts, backend, control, res);
  if (log) {
    log->gpu_coarsen_levels = 0;
    log->cpu_levels = res.coarsen_levels;
    log->handoff_vertices = g.num_vertices();
  }
}

}  // namespace

PartitionResult gp_metis_run(const CsrGraph& g, const PartitionOptions& opts,
                             GpPhaseLog* log) {
  validate_options(g, opts);
  WallTimer wall;
  PartitionResult res;
  const std::unique_ptr<FaultInjector> injector = opts.make_fault_injector();
  const Watchdog watchdog(opts.time_budget_seconds);

  vid_t handoff = std::max<vid_t>(opts.gpu_cpu_threshold,
                                  opts.coarsen_target());
  bool gpu_ok = false;
  bool force_sort_merge = false;
  int audit_failures = 0;
  int attempts = 0;
  while (!gpu_ok && attempts < kMaxGpuAttempts) {
    if (log) {
      const int kept_attempts = attempts;
      *log = GpPhaseLog{};  // a failed attempt's partial trail is stale
      log->attempts = kept_attempts;
    }
    ++attempts;
    try {
      gp_metis_attempt(g, opts, log, handoff, force_sort_merge,
                       injector.get(), watchdog, res);
      gpu_ok = true;
    } catch (const DeviceOutOfMemory& e) {
      res.health.gpu_retries += 1;
      res.health.degraded = true;
      res.ledger.charge_raw("fault/device-reset", kDeviceResetSeconds);
      // Shrink the device working set by handing off to the CPU earlier.
      // Once the handoff covers the whole graph the GPU does no level at
      // all, so further retries cannot help — degrade to pure CPU.
      if (handoff >= g.num_vertices()) {
        res.health.note(std::string("gp-metis: OOM with nothing left on the "
                                    "GPU (") + e.what() + ")");
        break;
      }
      const vid_t raised = handoff > g.num_vertices() / 4
                               ? g.num_vertices()
                               : handoff * 4;
      res.health.note("gp-metis: OOM (" + std::string(e.what()) +
                      "); retrying with CPU handoff at " +
                      std::to_string(raised) + " vertices");
      log_warn("gp-metis: device OOM, raising CPU handoff %d -> %d",
               handoff, raised);
      handoff = raised;
    } catch (const DeviceFailure& e) {
      res.health.gpu_retries += 1;
      res.health.degraded = true;
      res.ledger.charge_raw("fault/device-reset", kDeviceResetSeconds);
      res.health.note("gp-metis: device failure (" + std::string(e.what()) +
                      "); retrying");
      log_warn("gp-metis: device failure, retrying (attempt %d): %s",
               attempts, e.what());
    } catch (const ThreadPoolTaskError& e) {
      // A CPU-phase task threw (injected `task` fault).  The attempt's
      // buffers unwound cleanly, so retry the whole attempt like a
      // transient device failure; occurrence counters keep advancing, so
      // a one-shot rule cannot refire.
      res.health.gpu_retries += 1;
      res.health.degraded = true;
      res.ledger.charge_raw("fault/task-restart", kDeviceResetSeconds);
      res.health.note("gp-metis: pool task fault (" + std::string(e.what()) +
                      "); retrying");
      log_warn("gp-metis: pool task fault, retrying (attempt %d): %s",
               attempts, e.what());
    } catch (const AuditError& e) {
      // Escalation ladder for silent corruption: re-execute, then swap
      // the hash contraction for sort-merge, then leave the GPU.
      ++audit_failures;
      res.health.rollbacks += 1;
      res.health.gpu_retries += 1;
      res.health.degraded = true;
      res.ledger.charge_raw("fault/device-reset", kDeviceResetSeconds);
      if (watchdog.expired()) {
        res.health.note(std::string("gp-metis: audit failed (") + e.what() +
                        ") with the time budget exhausted; leaving the GPU");
        break;
      }
      if (audit_failures == 1) {
        res.health.note(std::string("gp-metis: audit failed (") + e.what() +
                        "); rolling the attempt back and retrying");
      } else if (opts.gpu_hash_contraction && !force_sort_merge) {
        force_sort_merge = true;
        res.health.note(std::string("gp-metis: audit failed again (") +
                        e.what() +
                        "); escalating to sort-merge contraction");
      } else {
        res.health.note(std::string("gp-metis: audit failed on the "
                                    "sort-merge rung (") +
                        e.what() + "); leaving the GPU");
        break;
      }
    }
  }
  if (!gpu_ok) {
    res.health.fallbacks += 1;
    res.health.degraded = true;
    res.health.note("gp-metis: GPU attempts exhausted; degrading to a pure "
                    "mt-metis run");
    log_warn("gp-metis: degrading to pure mt-metis after %d GPU attempts",
             attempts);
    if (log) *log = GpPhaseLog{};
    const VcycleControl control{injector.get(), &res.health, &watchdog};
    try {
      pure_cpu_fallback(g, opts, log, control, res);
    } catch (const AuditError& e) {
      // Terminal rung: whole-run serial fallback with corruption
      // injection suppressed, so convergence is guaranteed even under
      // probabilistic corruption rules.
      serial_fallback(g, opts, injector.get(), "gp-metis: CPU phase", e, res);
      if (log) {
        *log = GpPhaseLog{};
        log->cpu_levels = res.coarsen_levels;
        log->handoff_vertices = g.num_vertices();
        log->cpu_fallback = true;
      }
    }
  }
  if (injector) injector->report_into(res.health);
  if (log) {
    log->attempts = attempts;
    log->cpu_fallback = !gpu_ok;
  }
  // Retried attempts' charges stay in the ledger, so degraded runs show
  // their wasted work in the phase roll-up.
  fill_phase_seconds(res);
  res.modeled_seconds = res.ledger.total_seconds();
  res.wall_seconds = wall.seconds();
  return res;
}

PartitionResult GpMetisPartitioner::run(const CsrGraph& g,
                                        const PartitionOptions& opts) const {
  return gp_metis_run(g, opts, nullptr);
}

std::unique_ptr<Partitioner> make_hybrid_partitioner() {
  return std::make_unique<GpMetisPartitioner>();
}

}  // namespace gp
