#include "core/vcycle.hpp"

#include <utility>

#include "util/thread_pool.hpp"

namespace gp {

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

namespace {

/// Replaces res's partition, cut, balance and level counts with a clean
/// serial run's; the serial run's audit tallies and ledger rows are added
/// to res's.
void serial_fallback(const CsrGraph& g, const PartitionOptions& opts,
                     PartitionResult& res) {
  PartitionOptions serial_opts = opts;
  serial_opts.fault_spec.clear();  // the terminal engine runs clean
  PartitionResult serial_res = make_serial_partitioner()->run(g, serial_opts);
  res.partition = std::move(serial_res.partition);
  res.cut = serial_res.cut;
  res.balance = serial_res.balance;
  res.coarsen_levels = serial_res.coarsen_levels;
  res.coarsest_vertices = serial_res.coarsest_vertices;
  res.health.audits_run += serial_res.health.audits_run;
  res.health.audits_failed += serial_res.health.audits_failed;
  res.ledger.merge("", serial_res.ledger);
}

}  // namespace

void finish_run(PartitionResult& res, const FaultInjector* injector) {
  if (injector) injector->report_into(res.health);
  res.modeled_seconds = res.ledger.total_seconds();
  res.phases.transfer = res.ledger.seconds_in(Phase::kTransfer);
  res.phases.coarsen = res.ledger.seconds_in(Phase::kCoarsen);
  res.phases.initpart = res.ledger.seconds_in(Phase::kInitpart);
  res.phases.uncoarsen = res.ledger.seconds_in(Phase::kUncoarsen);
}

void vcycle_run(const CsrGraph& g, const PartitionOptions& opts,
                VcycleBackend& backend, const VcycleControl& control,
                PartitionResult& res) {
  FaultInjector* injector = control.injector;
  auto note_restart = [&](const std::string& what, const std::exception& e) {
    ++res.health.rollbacks;
    ++res.health.fallbacks;
    res.health.degraded = true;
    res.health.note("rollback: " + what + " (" + e.what() + ")");
  };
  for (int attempt = 0;; ++attempt) {
    try {
      vcycle_attempt(g, opts, backend, control, res);
      return;
    } catch (const AuditError& e) {
      if (!injector) throw;
      injector->set_corruption_suppressed(true);
      if (attempt >= 1) {
        // The terminal rung: the restarted run failed its audit too, so a
        // clean serial run replaces it.
        note_restart("whole-run serial fallback after the restart failed audit",
                     e);
        serial_fallback(g, opts, res);
        return;
      }
      note_restart("whole-run restart with corruption suppressed", e);
    } catch (const ThreadPoolTaskError& e) {
      // Injected `task` fault: the pipeline unwound at a job boundary, so
      // one whole-run restart recovers; occurrence counters advanced, so
      // a one-shot rule cannot refire.  A second throw propagates.
      if (attempt >= 1 || !injector) throw;
      note_restart("whole-run restart after pool task fault", e);
    }
  }
}

void vcycle_run(const CsrGraph& g, const PartitionOptions& opts,
                VcycleBackend& backend, FaultInjector* injector,
                PartitionResult& res) {
  const Watchdog watchdog(opts.time_budget_seconds);
  RefinementShed shed(watchdog, res.health);
  vcycle_run(g, opts, backend, VcycleControl{injector, &res.health, &shed},
             res);
}

}  // namespace gp
