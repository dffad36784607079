#include "core/vcycle.hpp"

#include <utility>

#include "util/thread_pool.hpp"

namespace gp {

namespace {

/// Records an audit outcome in `health` (nullable); returns ok().
bool record_audit(RunHealth* health, const AuditFailure& f) {
  if (health) {
    ++health->audits_run;
    if (!f.ok()) {
      ++health->audits_failed;
      health->note("audit: " + f.to_string());
    }
  }
  return f.ok();
}

}  // namespace

void require_audit(RunHealth* health, AuditFailure f) {
  if (!record_audit(health, f)) throw AuditError(std::move(f));
}

void corrupt_cmap_site(FaultInjector* injector, vid_t* cmap, std::size_t n,
                       vid_t n_coarse) {
  std::uint64_t material = 0;
  if (!injector || n_coarse <= 1 || !injector->corrupt_cmap(&material)) return;
  auto& slot = cmap[static_cast<std::size_t>(material % n)];
  slot = static_cast<vid_t>(
      (static_cast<std::uint64_t>(slot) + 1 +
       (material >> 32) % static_cast<std::uint64_t>(n_coarse - 1)) %
      static_cast<std::uint64_t>(n_coarse));
}

CsrGraph contract_reference(const CsrGraph& fine, const MatchResult& m,
                            int level, CostLedger* ledger) {
  CsrGraph coarse = contract_serial(fine, m.match, m.cmap, m.n_coarse);
  if (ledger) {
    ledger->charge_serial(
        "coarsen/contract/L" + std::to_string(level),
        static_cast<std::uint64_t>(fine.num_arcs() + coarse.num_arcs()));
  }
  return coarse;
}

bool RefinementShed::expired() {
  if (!watchdog_.expired()) return false;
  if (!noted_) {
    health_.note("watchdog: time budget exceeded, shedding refinement");
    ++health_.fallbacks;
    health_.degraded = true;
    noted_ = true;
  }
  return true;
}

void finish_run(PartitionResult& res, const FaultInjector* injector) {
  if (injector) injector->report_into(res.health);
  res.modeled_seconds = res.ledger.total_seconds();
  res.phases.transfer = res.ledger.seconds_in(Phase::kTransfer);
  res.phases.coarsen = res.ledger.seconds_in(Phase::kCoarsen);
  res.phases.initpart = res.ledger.seconds_in(Phase::kInitpart);
  res.phases.uncoarsen = res.ledger.seconds_in(Phase::kUncoarsen);
}

VcycleResult vcycle_pipeline(const CsrGraph& g, const PartitionOptions& opts,
                             VcycleBackend& backend, int level_offset,
                             const VcycleControl& control) {
  const VcycleBackend::Traits& traits = backend.traits();
  const AuditLevel audit = opts.audit_level;
  RunHealth* health = control.health;
  auto watchdog_expired = [&]() {
    return control.shed && control.shed->expired();
  };
  backend.begin(g);

  // Gain cache carried across the V-cycle (DESIGN.md §3.6): built on the
  // coarsest graph, kept exact by the refiner's deltas, projected (not
  // rebuilt) at each uncoarsening level.  `cache_valid` tracks whether it
  // matches the labels; rollbacks and watchdog sheds invalidate it.
  GainCache cache;
  bool cache_valid = false;
  auto ensure_cache = [&](const CsrGraph& graph, const Partition& part,
                          RefineSite site) {
    if (cache_valid || !backend.caches_gains(site.level)) return;
    backend.build_cache(graph, part.where, cache, site);
    cache_valid = true;
  };

  /// Refine with a pre-refine checkpoint: a failed partition audit rolls
  /// the level back to the checkpoint and retries up to the backend's
  /// attempt count, then keeps the (already audited) checkpoint and drops
  /// the level's refinement.
  auto guarded_refine = [&](const CsrGraph& graph, Partition& part,
                            RefineSite site) {
    if (watchdog_expired()) {
      cache_valid = false;  // later levels shed too; stop maintaining it
      return;
    }
    // Audits off: no checkpoint copy, no audit call.
    std::vector<part_t> checkpoint;
    if (audit != AuditLevel::kOff) checkpoint = part.where;
    for (int attempt = 0; attempt < traits.refine_attempts; ++attempt) {
      ensure_cache(graph, part, site);
      backend.refine(graph, part, cache, site);
      if (audit == AuditLevel::kOff) return;
      bool ok = record_audit(
          health, audit_partition(graph, part, opts.k, /*eps=*/0.0,
                                  /*expected_cut=*/-1, audit));
      if (ok && audit == AuditLevel::kParanoid &&
          backend.caches_gains(site.level)) {
        // Cache-vs-recompute cross-check at the same boundary as the
        // partition audit: the cache fed every gain this level.
        ok = record_audit(health,
                          audit_gain_cache(graph, part.where, cache, audit));
      }
      if (ok) return;
      if (health) {
        ++health->rollbacks;
        health->degraded = true;
        health->note("rollback: " + backend.refine_name(site) +
                     (attempt + 1 < traits.refine_attempts
                          ? " restored from checkpoint, retrying"
                          : " dropped, keeping checkpoint"));
      }
      part.where = checkpoint;
      cache_valid = false;  // rebuilt against the restored labels
    }
  };

  struct Level {
    CsrGraph graph;           // coarse graph produced at this level
    std::vector<vid_t> cmap;  // fine->coarse map that produced it
  };
  std::vector<Level> levels;
  VcycleResult out;

  // --- Coarsening ---
  PhaseScope phase(backend.ledger(), Phase::kCoarsen);
  const vid_t target = backend.coarsen_target(opts);
  const CsrGraph* cur = &g;
  out.trace.push_back({g.num_vertices(), g.num_edges()});
  int lvl = level_offset;
  while (cur->num_vertices() > target) {
    check_cancelled(opts, traits.cancel_coarsen);
    MatchResult m = backend.match(*cur, lvl);
    if (static_cast<double>(m.n_coarse) >
        opts.min_shrink * static_cast<double>(cur->num_vertices())) {
      break;  // matching stalled (e.g. star graphs); stop coarsening
    }
    corrupt_cmap_site(control.injector, m.cmap.data(), m.cmap.size(),
                      m.n_coarse);
    if (audit != AuditLevel::kOff) {
      // A damaged match has no cheaper recovery unit than the level's
      // inputs, which we no longer have: the run-level ladder restarts.
      require_audit(health, audit_matching(m.match, audit));
    }
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (attempt == 1) {
        // Roll the level back: rebuild the cmap from the audited match
        // with the serial reference rule, then re-contract serially.
        if (health) {
          ++health->rollbacks;
          health->degraded = true;
          health->note("rollback: coarsen/L" + std::to_string(lvl) +
                       " re-contracted from rebuilt cmap");
        }
        auto rebuilt = build_cmap_serial(m.match);
        m.cmap = std::move(rebuilt.first);
        m.n_coarse = rebuilt.second;
      }
      CsrGraph coarse;
      try {
        coarse = (attempt == 0)
                     ? backend.contract(*cur, m, lvl)
                     : contract_reference(*cur, m, lvl, backend.ledger());
      } catch (const AuditError& e) {
        // The backend's guard rejected the level: a failed contraction
        // audit, which the guard recorded if audits are on.
        if (attempt == 1) throw;
        if (audit == AuditLevel::kOff && health) {
          health->note("guard: " + e.failure().to_string());
        }
        continue;
      }
      if (audit != AuditLevel::kOff) {
        AuditFailure f = audit_contraction(*cur, coarse, m.match, m.cmap,
                                           audit);
        if (!record_audit(health, f)) {
          if (attempt == 1) throw AuditError(std::move(f));
          continue;
        }
      }
      levels.push_back({std::move(coarse), std::move(m.cmap)});
      break;
    }
    cur = &levels.back().graph;
    out.trace.push_back({cur->num_vertices(), cur->num_edges()});
    ++lvl;
  }
  out.levels = static_cast<int>(levels.size());
  out.coarsest_vertices = cur->num_vertices();

  // --- Initial partitioning, refined in place on the coarsest graph ---
  check_cancelled(opts, traits.cancel_initpart);
  phase.enter(Phase::kInitpart);
  Partition p = backend.initial_partition(*cur);
  if (audit != AuditLevel::kOff) {
    require_audit(health, audit_partition(*cur, p, opts.k, /*eps=*/0.0,
                                          /*expected_cut=*/-1, audit));
  }
  phase.enter(traits.coarsest_refine);
  guarded_refine(*cur, p, RefineSite{lvl, /*coarsest=*/true});

  // --- Uncoarsening ---
  phase.enter(Phase::kUncoarsen);
  for (std::size_t i = levels.size(); i-- > 0;) {
    check_cancelled(opts, traits.cancel_uncoarsen);
    const CsrGraph& fine = (i == 0) ? g : levels[i - 1].graph;
    const auto& cmap = levels[i].cmap;
    const int level = level_offset + static_cast<int>(i);
    std::vector<part_t> fine_where = backend.project(fine, cmap, p.where,
                                                     level);
    // Project the gain cache alongside the labels: fine vertices whose
    // coarse parent was interior inherit id/ed without any table work.
    if (cache_valid && backend.caches_gains(level) && !watchdog_expired()) {
      cache = backend.project_cache(fine, fine_where, cmap, cache, level);
    } else {
      cache_valid = false;
    }
    p.where = std::move(fine_where);
    if (audit != AuditLevel::kOff) {
      require_audit(health, audit_partition(fine, p, opts.k, /*eps=*/0.0,
                                            /*expected_cut=*/-1, audit));
    }
    guarded_refine(fine, p, RefineSite{level, /*coarsest=*/false});
  }
  out.partition = std::move(p);
  return out;
}

void vcycle_attempt(const CsrGraph& g, const PartitionOptions& opts,
                    VcycleBackend& backend, const VcycleControl& control,
                    PartitionResult& res) {
  VcycleResult out = vcycle_pipeline(g, opts, backend, 0, control);
  res.partition = std::move(out.partition);
  res.partition.k = opts.k;
  res.levels = std::move(out.trace);
  res.coarsen_levels = out.levels;
  res.coarsest_vertices = out.coarsest_vertices;
  res.cut = edge_cut(g, res.partition);
  res.balance = partition_balance(g, res.partition);
  if (opts.audit_level != AuditLevel::kOff) {
    require_audit(control.health,
                  audit_partition(g, res.partition, opts.k, opts.eps,
                                  static_cast<std::int64_t>(res.cut),
                                  opts.audit_level));
  }
}

void vcycle_run(const CsrGraph& g, const PartitionOptions& opts,
                VcycleBackend& backend, FaultInjector* injector,
                PartitionResult& res) {
  const Watchdog watchdog(opts.time_budget_seconds);
  RefinementShed shed(watchdog, res.health);
  const VcycleControl control{injector, &res.health, &shed};
  auto note_restart = [&](const char* why, const std::exception& e) {
    ++res.health.rollbacks;
    ++res.health.fallbacks;
    res.health.degraded = true;
    res.health.note(std::string("rollback: whole-run restart ") + why +
                    " (" + e.what() + ")");
  };
  for (int attempt = 0;; ++attempt) {
    try {
      vcycle_attempt(g, opts, backend, control, res);
      break;
    } catch (const AuditError& e) {
      // One whole-run restart with corruption injection suppressed; a
      // second failure is a genuine bug or the driver's to handle.
      if (attempt >= 1 || !injector) throw;
      note_restart("with corruption suppressed", e);
      injector->set_corruption_suppressed(true);
    } catch (const ThreadPoolTaskError& e) {
      // Injected `task` fault: the pipeline unwound at a job boundary, so
      // one whole-run restart recovers; occurrence counters advanced, so
      // a one-shot rule cannot refire.  A second throw propagates.
      if (attempt >= 1 || !injector) throw;
      note_restart("after pool task fault", e);
    }
  }
}

}  // namespace gp
