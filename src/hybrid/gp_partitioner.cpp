#include "hybrid/gp_partitioner.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "hybrid/gpu_contract.hpp"
#include "hybrid/gpu_driver.hpp"
#include "hybrid/gpu_gain_cache.hpp"
#include "hybrid/gpu_matching.hpp"
#include "hybrid/gpu_refine.hpp"
#include "mt/mt_partitioner.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace gp {

namespace {

/// Bounded GPU retries before degrading to a pure mt-metis run.
constexpr int kMaxGpuAttempts = 3;

/// Handoff guard: the graph downloaded for the CPU engine must be
/// well-formed and conserve the input's total vertex weight, since GPU
/// contraction only merges vertices.
void audit_handoff(const BusGuard& guard, const CsrGraph& handoff,
                   wgt_t input_weight) {
  if (!guard.on()) return;
  AuditFailure f = audit_csr(handoff, std::max(guard.level,
                                               AuditLevel::kPhase));
  if (f.ok() && handoff.total_vertex_weight() != input_weight) {
    f = {AuditFailure::Kind::kContraction, "vertex-weight-conservation",
         "handoff graph total vertex weight " +
             std::to_string(handoff.total_vertex_weight()) +
             " != input total " + std::to_string(input_weight)};
  }
  guard.require(std::move(f));
}

/// One full GPU-coarsen / CPU-middle / GPU-uncoarsen attempt.  Throws
/// DeviceOutOfMemory / DeviceFailure when the device gives out and
/// AuditError when a phase-boundary invariant audit fails; the driver
/// below owns the retry/escalation ladder.  `handoff` is the level size
/// at which the GPU hands the graph to the CPU engine; `force_sort_merge`
/// is the ladder's second rung (the hash contraction is the suspect).
void gp_metis_attempt(const CsrGraph& g, const PartitionOptions& opts,
                      GpPhaseLog* log, vid_t handoff, bool force_sort_merge,
                      FaultInjector* injector, RefinementShed& shed,
                      PartitionResult& res) {
  const std::unique_ptr<Device> device =
      make_device(opts, &res.ledger, injector, 0, res);
  Device& dev = *device;

  const AuditLevel audit = opts.audit_level;
  const BusGuard guard{audit, injector, &res.health};

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
  dev.pool_presize(
      GpuGraph::footprint(static_cast<std::size_t>(g.num_vertices()),
                          static_cast<std::size_t>(g.num_arcs())),
      /*copies=*/2);
  GpuGraph g0 = GpuGraph::upload(dev, g, "G0");
  audit_transfer(guard, g0, HostCsr(g), AuditFailure::Kind::kCsr,
                 "device copy of the input graph differs from the host "
                 "source after upload");

  // ---- 2. GPU coarsening until the threshold level ----
  PhaseScope phase(&res.ledger, Phase::kCoarsen);
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
      require_audit(&res.health, std::move(f));
    }
    GpuGraph coarse;
    try {
      coarse = gpu_contract(dev, *cur, m.match, m.cmap, m.n_coarse, lvl,
                            launch_threads,
                            opts.gpu_hash_contraction && !force_sort_merge,
                            opts.gpu_scan);
    } catch (const std::logic_error& e) {
      // The contraction's own invariants caught an inconsistent (match,
      // cmap) before writing past a buffer: the verdict the cmap audit
      // gives when audits are on, so the same ladder rolls back.
      throw AuditError({AuditFailure::Kind::kContraction,
                        "contraction-invariant",
                        "gpu level " + std::to_string(lvl) + ": " + e.what()});
    }
    if (audit == AuditLevel::kParanoid) {
      // Full conservation audit of the device contraction against the
      // fine graph (both sides downloaded; paranoid is allowed to pay).
      require_audit(&res.health,
                    audit_contraction(cur->download(), coarse.download(),
                                      m.match.d2h_vector(),
                                      m.cmap.d2h_vector(), audit));
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
  audit_handoff(guard, cpu_graph, g.total_vertex_weight());
  check_cancelled(opts, "gp/cpu-middle");
  ThreadPool pool(opts.threads);
  pool.set_cancel_token(opts.cancel);
  pool.set_fault_injector(injector);
  MtBackend mt(opts, MtContext{&pool, &res.ledger, opts.seed});
  const auto mt_out = vcycle_pipeline(
      cpu_graph, opts, mt, gpu_lvls,
      VcycleControl{injector, &res.health, &shed});

  // ---- 4. transfer the partitioned graph back; GPU uncoarsening ----
  phase.enter(Phase::kUncoarsen);
  DeviceBuffer<part_t> where_coarse(
      dev, static_cast<std::size_t>(cpu_graph.num_vertices()), "where");
  where_coarse.h2d(mt_out.partition.where);
  // The refinement kernels index part-weight tables with these labels.
  audit_transfer(guard, where_coarse, mt_out.partition.where,
                 AuditFailure::Kind::kPartition,
                 "device copy of the coarse labels differs from the host "
                 "source after upload");

  // Device-resident gain cache (DESIGN.md §3.6): built once on the
  // handoff graph (whose labels just arrived from the CPU middle),
  // projected — not rebuilt — down each uncoarsening level, and kept
  // exact-or-dirty by the refine kernels' deltas in between.  A deadline
  // that has passed stays passed, so once one level sheds its refinement
  // every later level sheds too and the cache is never needed again.
  GpuGainCache gcache;
  // Partition weights ride along: projection preserves per-part weight
  // sums exactly, so the k-entry table survives level transitions and the
  // recount runs only once (inside the first level).
  DeviceBuffer<wgt_t> gpw;
  if (!gpu_levels.empty() && !shed.expired()) {
    const std::int64_t T0 = std::min<std::int64_t>(
        opts.gpu_threads, std::max<std::int64_t>(256, cur->n));
    gcache = GpuGainCache::build(dev, *cur, where_coarse, opts.k,
                                 "uncoarsen/gaincache/handoff", T0,
                                 opts.gpu_scan);
  }

  for (std::size_t i = gpu_levels.size(); i-- > 0;) {
    check_cancelled(opts, "gp/gpu-uncoarsen");
    const vid_t fine_n = gpu_levels[i].fine_n;
    const GpuGraph& fine = (i == 0) ? g0 : gpu_levels[i - 1].graph;
    DeviceBuffer<part_t> where_fine(
        dev, static_cast<std::size_t>(fine_n), "where/L" + std::to_string(i));
    const std::int64_t T = std::min<std::int64_t>(
        opts.gpu_threads, std::max<std::int64_t>(256, fine_n));
    if (shed.expired()) {
      // Deadline: keep the (valid) projected partition, shed the level's
      // refinement passes, finish degraded rather than overrun.
      gpu_project(dev, gpu_levels[i].cmap, where_coarse, where_fine,
                  static_cast<int>(i), T);
    } else {
      // One dispatch: projection, cache projection and refinement.
      const auto rst = gpu_uncoarsen_level(
          dev, fine, gpu_levels[i].cmap, where_coarse, where_fine, gcache,
          gpw, opts.k, opts.eps, opts.refine_passes, static_cast<int>(i), T,
          opts.gpu_scan);
      if (log) log->refine_committed += rst.committed;
      if (audit == AuditLevel::kParanoid) {
        // Cache-vs-recompute cross-check: the refine kernels both read
        // and delta-updated the device cache, so corruption there skews
        // every later move — audit it at the same boundary as the labels.
        const std::string err = gcache.compare_to_host(
            fine.download(), where_fine.d2h_vector());
        require_audit(&res.health,
                      err.empty() ? AuditFailure{}
                                  : AuditFailure{AuditFailure::Kind::kGainCache,
                                                 "recompute",
                                                 "gpu level " +
                                                     std::to_string(i) +
                                                     ": " + err});
      }
    }
    where_coarse = std::move(where_fine);
  }

  // ---- 5. final partition back to the host ----
  res.partition.k = opts.k;
  res.partition.where = where_coarse.d2h_vector();

  if (guard.on()) {  // edge_cut indexes with labels that crossed the bus
    guard.require(audit_partition(g, res.partition, opts.k, opts.eps,
                                  /*expected_cut=*/-1,
                                  std::max(audit, AuditLevel::kPhase)));
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

}  // namespace

PartitionResult gp_metis_run(const CsrGraph& g, const PartitionOptions& opts,
                             GpPhaseLog* log) {
  validate_options(g, opts);
  WallTimer wall;
  PartitionResult res;
  const std::unique_ptr<FaultInjector> injector = opts.make_fault_injector();
  const Watchdog watchdog(opts.time_budget_seconds);
  RefinementShed shed(watchdog, res.health);

  vid_t handoff = std::max<vid_t>(opts.gpu_cpu_threshold,
                                  opts.coarsen_target());
  bool gpu_ok = false;
  bool force_sort_merge = false;
  int audit_failures = 0;
  int attempts = 0;
  const bool fits = device_csr_fits(g, "gp-metis", res.health);
  while (fits && !gpu_ok && attempts < kMaxGpuAttempts) {
    if (log) {
      const int kept_attempts = attempts;
      *log = GpPhaseLog{};  // a failed attempt's partial trail is stale
      log->attempts = kept_attempts;
    }
    ++attempts;
    try {
      gp_metis_attempt(g, opts, log, handoff, force_sort_merge,
                       injector.get(), shed, res);
      gpu_ok = true;
    } catch (const DeviceOutOfMemory& e) {
      count_gpu_restart(res, "fault/device-reset");
      // Once the handoff covers the whole graph the GPU does no level at
      // all, so further retries cannot help — degrade to pure CPU.
      if (handoff >= g.num_vertices()) {
        res.health.note(std::string("gp-metis: OOM with nothing left on the "
                                    "GPU (") + e.what() + ")");
        break;
      }
      raise_handoff_after_oom("gp-metis", e, g.num_vertices(), handoff,
                              res.health);
    } catch (const DeviceFailure& e) {
      count_gpu_restart(res, "fault/device-reset");
      res.health.note("gp-metis: device failure (" + std::string(e.what()) +
                      "); retrying");
      log_warn("gp-metis: device failure, retrying (attempt %d): %s",
               attempts, e.what());
    } catch (const ThreadPoolTaskError& e) {
      // A CPU-phase task threw (injected `task` fault).  The attempt's
      // buffers unwound cleanly, so retry the whole attempt like a
      // transient device failure; occurrence counters keep advancing, so
      // a one-shot rule cannot refire.
      count_gpu_restart(res, "fault/task-restart");
      res.health.note("gp-metis: pool task fault (" + std::string(e.what()) +
                      "); retrying");
      log_warn("gp-metis: pool task fault, retrying (attempt %d): %s",
               attempts, e.what());
    } catch (const AuditError& e) {
      // Escalation ladder for silent corruption: re-execute, then swap
      // the hash contraction for sort-merge, then leave the GPU.
      ++audit_failures;
      res.health.rollbacks += 1;
      count_gpu_restart(res, "fault/device-reset");
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
    // Third rung: the whole multilevel pipeline on the CPU engine (what
    // GP-metis already does below the threshold level, applied to the
    // entire graph).  Charges land after whatever the failed GPU attempts
    // already spent.
    res.health.note("gp-metis: GPU attempts exhausted; degrading to a pure "
                    "mt-metis run");
    log_warn("gp-metis: degrading to pure mt-metis after %d GPU attempts",
             attempts);
    pure_cpu_rung(g, opts, injector.get(), shed, "gp-metis: CPU phase", res);
    if (log) {
      *log = GpPhaseLog{};
      log->cpu_levels = res.coarsen_levels;
      log->handoff_vertices = g.num_vertices();
    }
  }
  // Retried attempts' charges stay in the ledger, so degraded runs show
  // their wasted work in the phase roll-up.
  finish_run(res, injector.get());
  if (log) {
    log->attempts = attempts;
    log->cpu_fallback = !gpu_ok;
  }
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
