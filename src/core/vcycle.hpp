// One multilevel V-cycle shared by the serial (Metis), shared-memory
// (mt-metis), distributed (ParMetis) and multi-GPU drivers, and through
// the mt backend by gp-metis's CPU middle phase (DESIGN.md §3.11).
//
// The skeleton owns every step those drivers share: the coarsening loop
// with its shrink-stall stop and cancellation checks, the `cmap`
// corruption site, the match/contraction/partition audits, the level
// rollback onto the serial reference contraction, guarded refinement
// (checkpoint, audit, paranoid gain-cache audit, rollback), the gain
// cache carried across levels, watchdog shedding, the phase tags on the
// ledger, and the run-level ladder.  A backend supplies the system's
// kernels — match, contract, initial partition, refine, project,
// gain-cache build and projection — and charges its own ledger labels.
// Where two systems differ, the difference is a backend constant
// (VcycleBackend::Traits) or hook, not an option.
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
    /// Phase charged for refining the coarsest graph right after the
    /// initial partition (Metis counts it as initial partitioning).
    Phase coarsest_refine;
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

  /// Called with the input graph at the start of every V-cycle,
  /// including whole-run restarts.
  virtual void begin(const CsrGraph& /*g*/) {}
  /// Coarsening stops once a level has at most this many vertices.
  [[nodiscard]] virtual vid_t coarsen_target(
      const PartitionOptions& opts) const {
    return opts.coarsen_target();
  }
  [[nodiscard]] virtual MatchResult match(const CsrGraph& g, int level) = 0;
  /// Contracts through m.cmap, which the corruption site may have perturbed
  /// since match().  A failed input check throws AuditError (recorded via
  /// require_audit when audits are on): a failed contraction audit.
  [[nodiscard]] virtual CsrGraph contract(const CsrGraph& fine,
                                          const MatchResult& m,
                                          int level) = 0;
  [[nodiscard]] virtual Partition initial_partition(const CsrGraph& g) = 0;
  /// False where the refiner keeps no gain cache: the skeleton then
  /// builds, projects and audits none at that level.
  [[nodiscard]] virtual bool caches_gains(int /*level*/) const { return true; }
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

/// Deadline shedding for one run: once the watchdog expires, every
/// refinement phase of the run (CPU or GPU) sheds its passes, and the
/// shed is recorded once — one event, one fallback, a degraded run.
class RefinementShed {
 public:
  RefinementShed(const Watchdog& watchdog, RunHealth& health)
      : watchdog_(watchdog), health_(health) {}

  /// True once the deadline has passed; the first such call notes it.
  [[nodiscard]] bool expired();

 private:
  const Watchdog& watchdog_;
  RunHealth& health_;
  bool noted_ = false;
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
  RefinementShed* shed = nullptr;
};

struct VcycleResult {
  Partition partition;
  int levels = 0;
  vid_t coarsest_vertices = 0;
  std::vector<LevelStat> trace;  ///< finest to coarsest
};

/// Coarsen, partition the coarsest graph, uncoarsen.  A failed
/// contraction audit (or an AuditError from the backend's contract) rolls
/// the level back onto the serial reference contraction; a failed
/// refinement audit restores the level's checkpoint.  Damage beyond
/// level scope throws AuditError.
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
/// injected pool-task fault; the second failure propagates).
void vcycle_run(const CsrGraph& g, const PartitionOptions& opts,
                VcycleBackend& backend, FaultInjector* injector,
                PartitionResult& res);

/// Closes a run's books: the injector's report (nullable), modeled
/// seconds, and res.phases summed by the ledger's phase tags.
void finish_run(PartitionResult& res, const FaultInjector* injector);

/// Records an audit outcome in `health` (nullable) and throws
/// AuditError when the audit failed.
void require_audit(RunHealth* health, AuditFailure f);

/// The `cmap` corruption site: when the injector's rule fires, one of the
/// `n` entries moves to a different coarse label in [0, n_coarse).
void corrupt_cmap_site(FaultInjector* injector, vid_t* cmap, std::size_t n,
                       vid_t n_coarse);

/// Serial reference contraction, charged as `coarsen/contract/L<level>`.
CsrGraph contract_reference(const CsrGraph& fine, const MatchResult& m,
                            int level, CostLedger* ledger);

}  // namespace gp
