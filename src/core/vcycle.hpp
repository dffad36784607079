// One multilevel V-cycle shared by all five drivers (DESIGN.md §3.11).
//
// The skeleton owns every step the drivers share: the coarsening loop
// with its shrink-stall stop and cancellation checks, the `cmap`
// corruption site, the match/contraction/partition audits, the level
// rollback onto the serial reference contraction, guarded refinement
// (checkpoint, audit, paranoid gain-cache audit, rollback), the gain
// cache carried across levels, watchdog shedding, the phase tags on the
// ledger, the level trace, and the run-level ladder.  A backend supplies
// the system's kernels and charges its own ledger labels; where two
// systems differ, the difference is a backend constant (Traits) or hook.
//
// The skeleton is templated on the level store: the types a level lives
// in, the host views that only the audits, the reference rollback and the
// final read-back ask for, and how a host-built level enters the store.
// metis, mt-metis and parmetis use HostStore; gp-metis and gp-metis-multi
// keep their GPU levels in device memory, sharded over 1..D devices
// (hybrid/gp_partitioner.cpp).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
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

/// The levels of one V-cycle.
struct VcycleLevels {
  int levels = 0;  ///< levels contracted
  vid_t coarsest_vertices = 0;
  std::vector<LevelStat> trace;  ///< finest to coarsest

  /// Appends a V-cycle run on this one's coarsest graph, whose trace
  /// starts with that graph.
  void append(const VcycleLevels& inner) {
    levels += inner.levels;
    coarsest_vertices = inner.coarsest_vertices;
    trace.insert(trace.end(), inner.trace.begin() + 1, inner.trace.end());
  }
};

template <class Labels>
struct VcycleResult : VcycleLevels {
  Labels partition;
};

/// The host level store: a host view is the object itself.
struct HostStore {
  using Graph = CsrGraph;
  using Match = MatchResult;
  using Cmap = std::vector<vid_t>;
  using Where = std::vector<part_t>;
  using Labels = Partition;
  using Cache = GainCache;

  template <typename T>
  static const T& view(const T& x) {
    return x;
  }
  static AuditFailure audit_cache(const CsrGraph& g, const Where& where,
                                  const GainCache& cache, AuditLevel level) {
    return audit_gain_cache(g, where, cache, level);
  }

  /// Level 0 of an attempt on `g`.
  const CsrGraph& input(const CsrGraph& g) { return g; }
  /// A level (or its coarse map) built on the host at level `level`.
  CsrGraph put(CsrGraph g, int /*level*/) { return g; }
  Cmap put(Cmap cmap, int /*level*/) { return cmap; }
  /// Overwrites stored labels with host labels (a checkpoint restore).
  void load(Where& where, const std::vector<part_t>& host) { where = host; }
  /// The final labels, read back for the result.
  Partition take(Partition p) { return p; }
};

template <class Store>
class BasicVcycleBackend {
 public:
  using Graph = typename Store::Graph;
  using Match = typename Store::Match;
  using Cmap = typename Store::Cmap;
  using Where = typename Store::Where;
  using Labels = typename Store::Labels;
  using Cache = typename Store::Cache;

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

  BasicVcycleBackend(Traits traits, CostLedger* ledger, Store store = {})
      : traits_(traits), ledger_(ledger), store_(std::move(store)) {}
  BasicVcycleBackend(const BasicVcycleBackend&) = delete;
  BasicVcycleBackend& operator=(const BasicVcycleBackend&) = delete;
  virtual ~BasicVcycleBackend() = default;

  [[nodiscard]] const Traits& traits() const { return traits_; }
  /// The run's ledger (nullable): the skeleton charges the reference
  /// re-contraction of a rolled-back level here.
  [[nodiscard]] CostLedger* ledger() const { return ledger_; }
  [[nodiscard]] Store& store() { return store_; }

  /// Called with level 0 at the start of every V-cycle, including
  /// whole-run restarts.
  virtual void begin(const Graph& /*g*/) {}
  /// Coarsening stops once a level has at most this many vertices.
  [[nodiscard]] virtual vid_t coarsen_target(
      const PartitionOptions& opts) const {
    return opts.coarsen_target();
  }
  [[nodiscard]] virtual Match match(const Graph& g, int level) = 0;
  /// Contracts through m.cmap, which the corruption site may have perturbed
  /// since match().  A failed input check throws AuditError (recorded via
  /// require_audit when audits are on): a failed contraction audit.
  [[nodiscard]] virtual Graph contract(const Graph& fine, const Match& m,
                                       int level) = 0;
  /// The coarsest graph's labels.  A backend whose initial partition is a
  /// V-cycle of its own, run from level `levels.levels` on, appends that
  /// V-cycle's levels to `levels`.
  [[nodiscard]] virtual Labels initial_partition(const Graph& g,
                                                 VcycleLevels& levels) = 0;
  /// False where the refiner keeps no gain cache: the skeleton then
  /// builds, projects and audits none at that level.
  [[nodiscard]] virtual bool caches_gains(int /*level*/) const { return true; }
  /// Builds `cache` against `where` from scratch.
  virtual void build_cache(const Graph& g, const Where& where, Cache& cache,
                           RefineSite site) = 0;
  /// Refines `p` in place; `cache` is consistent with p.where on entry
  /// and must be kept so.
  virtual void refine(const Graph& g, Labels& p, Cache& cache,
                      RefineSite site) = 0;
  /// Name of the refinement at `site` in rollback events.
  [[nodiscard]] virtual std::string refine_name(RefineSite site) const = 0;
  /// Fine labels through `cmap`.
  [[nodiscard]] virtual Where project(const Graph& fine, const Cmap& cmap,
                                      const Where& coarse_where,
                                      int level) = 0;
  /// The fine level's gain cache, derived from the coarse level's; by
  /// default built from scratch.
  [[nodiscard]] virtual Cache project_cache(const Graph& fine,
                                            const Where& fine_where,
                                            const Cmap& /*cmap*/,
                                            const Cache& /*coarse*/,
                                            int level) {
    Cache cache;
    build_cache(fine, fine_where, cache, RefineSite{level, false});
    return cache;
  }
  /// A whole uncoarsening level in one step, asked for while the gain
  /// cache is carried: the fine labels, projected and refined, with
  /// `cache` replaced by the fine level's.  nullopt (the default): the
  /// skeleton projects, projects the cache and refines in turn.
  [[nodiscard]] virtual std::optional<Where> uncoarsen(
      const Graph& /*fine*/, const Cmap& /*cmap*/,
      const Where& /*coarse_where*/, Cache& /*cache*/, int /*level*/) {
    return std::nullopt;
  }

 protected:
  void charge_serial(const std::string& label, std::uint64_t work) const {
    if (ledger_) ledger_->charge_serial(label, work);
  }

 private:
  Traits traits_;
  CostLedger* ledger_;
  Store store_;
};

/// The host-store backend of metis, mt-metis and parmetis.
using VcycleBackend = BasicVcycleBackend<HostStore>;

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

/// Records an audit outcome in `health` (nullable); returns ok().
bool record_audit(RunHealth* health, const AuditFailure& f);

/// Records an audit outcome in `health` (nullable) and throws
/// AuditError when the audit failed.
void require_audit(RunHealth* health, AuditFailure f);

/// The `cmap` corruption site of a level with `n` fine and `n_coarse`
/// coarse vertices: when the injector's rule fires, the entry `entry(i)`
/// names for the picked i moves to a different one of the labels it names
/// (the level's, or on a sharded level its device's coarse block).
void corrupt_cmap_site(
    FaultInjector* injector, std::size_t n, vid_t n_coarse,
    const std::function<std::pair<vid_t*, vid_t>(std::size_t)>& entry);
inline void corrupt_cmap_site(FaultInjector* injector,
                              std::vector<vid_t>& cmap, vid_t n_coarse) {
  corrupt_cmap_site(injector, cmap.size(), n_coarse, [&](std::size_t i) {
    return std::pair{&cmap[i], n_coarse};
  });
}

/// Serial reference contraction, charged as `coarsen/contract/L<level>`.
CsrGraph contract_reference(const CsrGraph& fine, const MatchResult& m,
                            int level, CostLedger* ledger);

/// Coarsen, partition the coarsest graph, uncoarsen.  A failed
/// contraction audit (or an AuditError from the backend's contract) rolls
/// the level back onto the serial reference contraction; a failed
/// refinement audit restores the level's checkpoint.  Damage beyond
/// level scope throws AuditError.
/// `level_offset` numbers the levels in ledger labels when `g` is itself
/// a coarse level of a larger V-cycle (gp-metis's CPU middle phase).
template <class Store>
VcycleResult<typename Store::Labels> vcycle_pipeline(
    const typename Store::Graph& g, const PartitionOptions& opts,
    BasicVcycleBackend<Store>& backend, int level_offset,
    const VcycleControl& control) {
  using Graph = typename Store::Graph;
  using Cmap = typename Store::Cmap;
  using Where = typename Store::Where;
  using Labels = typename Store::Labels;
  const auto& traits = backend.traits();
  const AuditLevel audit = opts.audit_level;
  RunHealth* health = control.health;
  Store& store = backend.store();
  auto watchdog_expired = [&]() {
    return control.shed && control.shed->expired();
  };
  auto note_rollback = [&](const std::string& what) {
    if (!health) return;
    ++health->rollbacks;
    health->degraded = true;
    health->note("rollback: " + what);
  };
  auto labels_audit = [&](const Graph& graph, const Labels& part) {
    return audit_labels(graph.num_vertices(), store.view(part), opts.k, audit);
  };
  backend.begin(g);

  // Gain cache carried across the V-cycle (DESIGN.md §3.6): built on the
  // coarsest graph, kept exact by the refiner's deltas, projected (not
  // rebuilt) at each uncoarsening level.  `cache_valid` tracks whether it
  // matches the labels; rollbacks and watchdog sheds invalidate it.
  typename Store::Cache cache;
  bool cache_valid = false;
  auto ensure_cache = [&](const Graph& graph, const Labels& part,
                          RefineSite site) {
    if (cache_valid || !backend.caches_gains(site.level)) return;
    backend.build_cache(graph, part.where, cache, site);
    cache_valid = true;
  };

  /// Refines under an audit: a failed partition audit calls `restore`
  /// (back to the labels before the refinement) and retries up to the
  /// backend's attempt count, then keeps the restored labels.  `refined`:
  /// the first attempt already ran, fused with the level's projection.
  auto audited_refine = [&](const Graph& graph, Labels& part,
                            RefineSite site, bool refined,
                            const auto& restore) {
    for (int attempt = 0; attempt < traits.refine_attempts; ++attempt) {
      if (attempt > 0 || !refined) {
        ensure_cache(graph, part, site);
        backend.refine(graph, part, cache, site);
      }
      if (audit == AuditLevel::kOff) return;
      bool ok = record_audit(health, labels_audit(graph, part));
      if (ok && audit == AuditLevel::kParanoid &&
          backend.caches_gains(site.level)) {
        // Cache-vs-recompute cross-check at the same boundary as the
        // partition audit: the cache fed every gain this level.
        ok = record_audit(health,
                          store.audit_cache(graph, part.where, cache, audit));
      }
      if (ok) return;
      note_rollback(backend.refine_name(site) +
                    (attempt + 1 < traits.refine_attempts
                         ? " restored from checkpoint, retrying"
                         : " dropped, keeping checkpoint"));
      restore();
      cache_valid = false;  // rebuilt against the restored labels
    }
  };

  /// Refine with a pre-refine checkpoint (none with audits off).
  auto guarded_refine = [&](const Graph& graph, Labels& part,
                            RefineSite site) {
    if (watchdog_expired()) {
      cache_valid = false;  // later levels shed too; stop maintaining it
      return;
    }
    std::vector<part_t> checkpoint;
    if (audit != AuditLevel::kOff) checkpoint = store.view(part).where;
    audited_refine(graph, part, site, /*refined=*/false,
                   [&] { store.load(part.where, checkpoint); });
  };

  struct Level {
    Graph graph;  // coarse graph produced at this level
    Cmap cmap;    // fine->coarse map that produced it
  };
  std::vector<Level> levels;
  VcycleResult<Labels> out;

  // --- Coarsening ---
  PhaseScope phase(backend.ledger(), Phase::kCoarsen);
  const vid_t target = backend.coarsen_target(opts);
  const Graph* cur = &g;
  out.trace.push_back({g.num_vertices(), g.num_edges()});
  int lvl = level_offset;
  while (cur->num_vertices() > target) {
    check_cancelled(opts, traits.cancel_coarsen);
    auto m = backend.match(*cur, lvl);
    if (static_cast<double>(m.n_coarse) >
        opts.min_shrink * static_cast<double>(cur->num_vertices())) {
      break;  // matching stalled (e.g. star graphs); stop coarsening
    }
    corrupt_cmap_site(control.injector, m.cmap, m.n_coarse);
    if (audit != AuditLevel::kOff) {
      // A damaged match has no cheaper recovery unit than the level's
      // inputs, which we no longer have: the run-level ladder restarts.
      require_audit(health, audit_matching(store.view(m.match), audit));
    }
    Graph coarse;
    bool kept = true;
    try {
      coarse = backend.contract(*cur, m, lvl);
    } catch (const AuditError& e) {
      // The backend's guard rejected the level: a failed contraction
      // audit, which the guard recorded if audits are on.
      if (audit == AuditLevel::kOff && health) {
        health->note("guard: " + e.failure().to_string());
      }
      kept = false;
    }
    if (kept && audit != AuditLevel::kOff) {
      kept = record_audit(
          health, audit_contraction(store.view(*cur), store.view(coarse),
                                    store.view(m.match), store.view(m.cmap),
                                    audit));
    }
    Cmap cmap;
    if (kept) {
      cmap = std::move(m.cmap);
    } else {
      // Roll the level back: rebuild the cmap from the audited match with
      // the serial reference rule, then re-contract serially.
      note_rollback("coarsen/L" + std::to_string(lvl) +
                    " re-contracted from rebuilt cmap");
      const auto& fine = store.view(*cur);
      MatchResult ref;
      ref.match = store.view(m.match);
      std::tie(ref.cmap, ref.n_coarse) = build_cmap_serial(ref.match);
      CsrGraph rebuilt = contract_reference(fine, ref, lvl, backend.ledger());
      if (audit != AuditLevel::kOff) {
        require_audit(health, audit_contraction(fine, rebuilt, ref.match,
                                                ref.cmap, audit));
      }
      coarse = store.put(std::move(rebuilt), lvl);
      cmap = store.put(std::move(ref.cmap), lvl);
    }
    levels.push_back({std::move(coarse), std::move(cmap)});
    cur = &levels.back().graph;
    out.trace.push_back({cur->num_vertices(), cur->num_edges()});
    ++lvl;
  }
  out.levels = static_cast<int>(levels.size());
  out.coarsest_vertices = cur->num_vertices();

  // --- Initial partitioning, refined in place on the coarsest graph ---
  check_cancelled(opts, traits.cancel_initpart);
  phase.enter(Phase::kInitpart);
  Labels p = backend.initial_partition(*cur, out);
  if (audit != AuditLevel::kOff) require_audit(health, labels_audit(*cur, p));
  phase.enter(traits.coarsest_refine);
  guarded_refine(*cur, p, RefineSite{lvl, /*coarsest=*/true});

  // --- Uncoarsening ---
  phase.enter(Phase::kUncoarsen);
  for (std::size_t i = levels.size(); i-- > 0;) {
    check_cancelled(opts, traits.cancel_uncoarsen);
    const Graph& fine = (i == 0) ? g : levels[i - 1].graph;
    const Cmap& cmap = levels[i].cmap;
    const int level = level_offset + static_cast<int>(i);
    const RefineSite site{level, /*coarsest=*/false};
    // Project the gain cache alongside the labels: fine vertices whose
    // coarse parent was interior inherit id/ed without any table work.
    const bool carry =
        cache_valid && backend.caches_gains(level) && !watchdog_expired();
    std::optional<Where> fused;
    if (carry) fused = backend.uncoarsen(fine, cmap, p.where, cache, level);
    if (fused) {
      // Projected and refined in one step: the audit follows the
      // refinement, and a failed one falls back to the plain projection.
      const Where coarse_where = std::exchange(p.where, std::move(*fused));
      audited_refine(fine, p, site, /*refined=*/true, [&] {
        p.where = backend.project(fine, cmap, coarse_where, level);
      });
      continue;
    }
    Where fine_where = backend.project(fine, cmap, p.where, level);
    if (carry) {
      cache = backend.project_cache(fine, fine_where, cmap, cache, level);
    } else {
      cache_valid = false;
    }
    p.where = std::move(fine_where);
    if (audit != AuditLevel::kOff) require_audit(health, labels_audit(fine, p));
    guarded_refine(fine, p, site);
  }
  out.partition = std::move(p);
  return out;
}

/// One attempt on the input graph: vcycle_pipeline on the store's level 0
/// plus the result fields (partition, cut, balance, level trace) and the
/// final audit.
template <class Store>
void vcycle_attempt(const CsrGraph& g, const PartitionOptions& opts,
                    BasicVcycleBackend<Store>& backend,
                    const VcycleControl& control, PartitionResult& res) {
  auto out = vcycle_pipeline(backend.store().input(g), opts, backend, 0,
                             control);
  res.partition = backend.store().take(std::move(out.partition));
  res.partition.k = opts.k;
  res.levels = std::move(out.trace);
  res.coarsen_levels = out.levels;
  res.coarsest_vertices = out.coarsest_vertices;
  if (opts.audit_level != AuditLevel::kOff) {
    // Before the metrics: partition_balance indexes by label.
    require_audit(control.health,
                  audit_partition(g, res.partition, opts.k, opts.eps,
                                  /*expected_cut=*/-1, opts.audit_level));
  }
  res.cut = edge_cut(g, res.partition);
  res.balance = partition_balance(g, res.partition);
}

/// A whole run: vcycle_attempt under the run-level ladder, the one CPU
/// recovery ladder of every driver.  The run restarts once: with
/// corruption suppressed after an AuditError, or after an injected
/// pool-task fault.  If the restarted run fails an audit, a clean serial
/// run replaces it (the terminal rung); any other second failure
/// propagates.  An AuditError with no injector attached is a genuine bug
/// and always propagates.  `control` is the run's: its watchdog and shed
/// span every attempt.
void vcycle_run(const CsrGraph& g, const PartitionOptions& opts,
                VcycleBackend& backend, const VcycleControl& control,
                PartitionResult& res);

/// vcycle_run under a watchdog of its own (opts.time_budget_seconds).
void vcycle_run(const CsrGraph& g, const PartitionOptions& opts,
                VcycleBackend& backend, FaultInjector* injector,
                PartitionResult& res);

/// Closes a run's books: the injector's report (nullable), modeled
/// seconds, and res.phases summed by the ledger's phase tags.
void finish_run(PartitionResult& res, const FaultInjector* injector);

}  // namespace gp
