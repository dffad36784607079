// One CPU multilevel V-cycle shared by the serial (Metis) and the
// shared-memory (mt-metis) drivers, and through the mt backend by
// gp-metis's CPU middle phase and the multi-GPU driver (DESIGN.md §3.11).
//
// The skeleton owns every step those drivers share: the coarsening loop
// with its shrink-stall stop and cancellation checks, the `cmap`
// corruption site, the match/contraction/partition audits, the level
// rollback onto the serial reference contraction, guarded refinement
// (checkpoint, audit, paranoid gain-cache audit, rollback), the gain
// cache carried across levels, watchdog shedding, and the run-level
// ladder.  A backend supplies the system's kernels — match, contract,
// initial partition, refine, project, gain-cache build and projection —
// and charges its own ledger labels.  Where two systems differ, the
// difference is a backend constant (VcycleBackend::Traits), not an option.
#pragma once

#include <string>
#include <vector>

#include "core/audit.hpp"
#include "core/gain_cache.hpp"
#include "core/matching.hpp"
#include "core/partitioner.hpp"

namespace gp {

/// Where a refinement runs: uncoarsening level `level`, or the coarsest
/// graph right after the initial partition (`coarsest`, level = the
/// number of the coarsest level).
struct RefineSite {
  int level = 0;
  bool coarsest = false;
};

class VcycleBackend {
 public:
  /// Per-system constants of the V-cycle.
  struct Traits {
    /// Phase-boundary names reported by CancelledError.
    const char* cancel_coarsen;
    const char* cancel_initpart;
    const char* cancel_uncoarsen;
    /// Refinement attempts per level when an audit fails: a
    /// deterministic refiner would only repeat itself, so it gets 1.
    int refine_attempts;
  };

  VcycleBackend(Traits traits, CostLedger* ledger)
      : traits_(traits), ledger_(ledger) {}
  VcycleBackend(const VcycleBackend&) = delete;
  VcycleBackend& operator=(const VcycleBackend&) = delete;
  virtual ~VcycleBackend() = default;

  [[nodiscard]] const Traits& traits() const { return traits_; }
  /// The run's ledger (nullable): the skeleton charges the reference
  /// re-contraction of a rolled-back level here.
  [[nodiscard]] CostLedger* ledger() const { return ledger_; }

  /// Called at the start of every V-cycle, including whole-run restarts.
  virtual void begin() {}
  [[nodiscard]] virtual MatchResult match(const CsrGraph& g, int level) = 0;
  [[nodiscard]] virtual CsrGraph contract(const CsrGraph& fine,
                                          const MatchResult& m,
                                          int level) = 0;
  [[nodiscard]] virtual Partition initial_partition(const CsrGraph& g) = 0;
  /// Builds `cache` against `where` from scratch.
  virtual void build_cache(const CsrGraph& g, const std::vector<part_t>& where,
                           GainCache& cache, RefineSite site) = 0;
  /// Refines `p` in place; `cache` is consistent with p.where on entry
  /// and must be kept so.
  virtual void refine(const CsrGraph& g, Partition& p, GainCache& cache,
                      RefineSite site) = 0;
  /// Name of the refinement at `site` in rollback events.
  [[nodiscard]] virtual std::string refine_name(RefineSite site) const = 0;
  /// Fine labels through `cmap`.
  [[nodiscard]] virtual std::vector<part_t> project(
      const CsrGraph& fine, const std::vector<vid_t>& cmap,
      const std::vector<part_t>& coarse_where, int level) = 0;
  /// The fine level's gain cache, derived from the coarse level's.
  [[nodiscard]] virtual GainCache project_cache(
      const CsrGraph& fine, const std::vector<part_t>& fine_where,
      const std::vector<vid_t>& cmap, const GainCache& coarse, int level) = 0;

 protected:
  void charge_serial(const std::string& label, std::uint64_t work) const {
    if (ledger_) ledger_->charge_serial(label, work);
  }

 private:
  Traits traits_;
  CostLedger* ledger_;
};

/// Corruption-defense hooks threaded through a V-cycle (DESIGN.md §3.5).
/// All members may be null: the default control runs with no faults, no
/// health record and no deadline.
struct VcycleControl {
  /// `cmap` rules perturb one coarse-map entry between matching and
  /// contraction.
  FaultInjector* injector = nullptr;
  /// Audit/rollback tallies and the event trail land here.
  RunHealth* health = nullptr;
  /// Deadline: refinement is shed once it expires.
  const Watchdog* watchdog = nullptr;
};

struct VcycleResult {
  Partition partition;
  int levels = 0;
  vid_t coarsest_vertices = 0;
  std::vector<LevelStat> trace;  ///< finest to coarsest
};

/// Coarsen, partition the coarsest graph, uncoarsen.  A failed
/// contraction audit rolls the level back onto the serial reference
/// contraction; a failed refinement audit restores the level's
/// checkpoint.  Damage beyond level scope throws AuditError.
/// `level_offset` numbers the levels in ledger labels when `g` is itself
/// a coarse level of a larger V-cycle (gp-metis's CPU middle phase).
VcycleResult vcycle_pipeline(const CsrGraph& g, const PartitionOptions& opts,
                             VcycleBackend& backend, int level_offset,
                             const VcycleControl& control);

/// One attempt on the input graph: vcycle_pipeline plus the result
/// fields (partition, cut, balance, level trace) and the final audit.
void vcycle_attempt(const CsrGraph& g, const PartitionOptions& opts,
                    VcycleBackend& backend, const VcycleControl& control,
                    PartitionResult& res);

/// A whole run: vcycle_attempt under the run-level ladder (one restart
/// with corruption suppressed after an AuditError, one restart after an
/// injected pool-task fault; the second failure propagates), then the
/// injector report, modeled seconds and the phase roll-up.
void vcycle_run(const CsrGraph& g, const PartitionOptions& opts,
                VcycleBackend& backend, FaultInjector* injector,
                PartitionResult& res);

/// Records an audit outcome in `health` (nullable); returns ok().
bool record_audit(RunHealth* health, const AuditFailure& f);

/// The ladder rung "restart the whole run with corruption suppressed":
/// counts the rollback and fallback, notes why, and mutes the injector.
void restart_with_corruption_suppressed(FaultInjector& injector,
                                        const AuditError& e,
                                        RunHealth& health);

/// The `cmap` corruption site: when the injector's rule fires, one of the
/// `n` entries moves to a different coarse label in [0, n_coarse).
void corrupt_cmap_site(FaultInjector* injector, vid_t* cmap, std::size_t n,
                       vid_t n_coarse);

/// Serial reference contraction, charged as `coarsen/contract/L<level>`.
CsrGraph contract_reference(const CsrGraph& fine, const MatchResult& m,
                            int level, CostLedger* ledger);

/// Rolls the ledger up into res.phases by label prefix (`transfer/`,
/// `coarsen/` and `kernel/coarsen/`, `initpart/`, `uncoarsen/` and
/// `kernel/uncoarsen/`).
void fill_phase_seconds(PartitionResult& res);

}  // namespace gp
