// Phase-boundary invariant audits for the silent-corruption defense
// (DESIGN.md §3.5).
//
// PR 1's fault model covers *fail-stop* faults, which announce themselves
// as exceptions.  Silent corruption — a flipped bit in a device buffer, a
// garbled message payload, a stale cmap entry — does not.  The multilevel
// structure (match -> contract -> initpart -> project -> refine) gives
// natural audit points: each phase commits an artifact whose invariants
// are cheap to check relative to producing it.  Every audit here returns
// a structured AuditFailure (what invariant, which phase, detail) rather
// than a bool, so the recovery ladders can log precisely what they are
// rolling back for, and determinism tests can compare trails.
//
// Audit levels:
//   kOff       no checks, zero overhead (the nominal production path)
//   kPhase     O(n + m)-per-phase checks at phase boundaries
//   kParanoid  kPhase plus full structural revalidation of every coarse
//              graph (CsrGraph::validate — hash-based symmetry check)
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/csr_graph.hpp"
#include "core/gain_cache.hpp"
#include "core/matching.hpp"
#include "core/partition.hpp"

namespace gp {

enum class AuditLevel : int {
  kOff = 0,
  kPhase,
  kParanoid,
};

/// Parses "off" / "phase" / "paranoid" (CLI --audit).  Throws
/// std::invalid_argument otherwise.
[[nodiscard]] AuditLevel parse_audit_level(const std::string& s);
[[nodiscard]] const char* audit_level_name(AuditLevel level);

/// Structured outcome of one audit.  ok() == true means every checked
/// invariant held.
struct AuditFailure {
  enum class Kind {
    kNone = 0,
    kCsr,          ///< CSR structure broken
    kMatching,     ///< match array not a valid involution
    kContraction,  ///< cmap/coarse graph inconsistent with the fine graph
    kPartition,    ///< assignment incomplete, cut/balance wrong
    kGainCache,    ///< incremental gain cache disagrees with recompute
  };

  Kind        kind = Kind::kNone;
  std::string invariant;  ///< short name, e.g. "vertex-weight-conservation"
  std::string detail;     ///< first violation, human-readable

  [[nodiscard]] bool ok() const { return kind == Kind::kNone; }
  [[nodiscard]] std::string to_string() const;
};

/// Thrown by partitioner phases when an audit fails; the driver's
/// recovery ladder catches it, rolls back the level, and re-executes.
class AuditError : public std::runtime_error {
 public:
  explicit AuditError(AuditFailure failure)
      : std::runtime_error(failure.to_string()),
        failure_(std::move(failure)) {}

  [[nodiscard]] const AuditFailure& failure() const { return failure_; }

 private:
  AuditFailure failure_;
};

/// CSR well-formedness: delegates to CsrGraph::validate (offsets
/// monotone, adjacency in range, no self-loops/duplicates, symmetric
/// arcs with equal weights, positive weights).
[[nodiscard]] AuditFailure audit_csr(const CsrGraph& g, AuditLevel level);

/// Matching validity: involution (match[match[v]] == v), all in range.
[[nodiscard]] AuditFailure audit_matching(const std::vector<vid_t>& match,
                                          AuditLevel level);

/// Contraction conservation: coarse total vertex weight equals fine total
/// (contraction only merges vertices), coarse total arc weight equals
/// fine total minus the weight of arcs internal to matched pairs, cmap is
/// consistent with the match and surjective onto [0, n_coarse).  At
/// kParanoid the coarse graph is also structurally revalidated.
[[nodiscard]] AuditFailure audit_contraction(const CsrGraph& fine,
                                             const CsrGraph& coarse,
                                             const std::vector<vid_t>& match,
                                             const std::vector<vid_t>& cmap,
                                             AuditLevel level);

/// Label validity of a partition of `n` vertices: k as requested, a
/// complete assignment, every label in [0, k).
[[nodiscard]] AuditFailure audit_labels(vid_t n, const Partition& p, part_t k,
                                        AuditLevel level);

/// Partition validity: audit_labels first, so a corrupted part id cannot
/// cause out-of-bounds indexing inside the metric recomputations; then,
/// when expected_cut >= 0, the stored cut must equal recomputation; when
/// eps > 0, balance must be within the tolerance the refinement contract
/// guarantees (max part weight <= max_part_weight(total, k, eps)).
[[nodiscard]] AuditFailure audit_partition(const CsrGraph& g,
                                           const Partition& p,
                                           part_t k, double eps,
                                           std::int64_t expected_cut,
                                           AuditLevel level);

/// Gain-cache / recompute cross-check (DESIGN.md §3.6): at kParanoid the
/// incremental id/ed + connectivity-table state every refiner consumed
/// this level is compared entry-for-entry against a fresh build from `g`
/// and `where`, so silent corruption of the cache (or a delta-protocol
/// bug) is caught at the same phase boundary as partition damage.  Below
/// kParanoid the check is skipped (full recompute is exactly the cost the
/// cache exists to avoid).
[[nodiscard]] AuditFailure audit_gain_cache(const CsrGraph& g,
                                            const std::vector<part_t>& where,
                                            const GainCache& cache,
                                            AuditLevel level);

/// Deadline watchdog for the time_budget_seconds option: wall-clock
/// budget checked at phase boundaries.  A zero/negative budget disables
/// it (expired() always false).
class Watchdog {
 public:
  Watchdog() = default;
  explicit Watchdog(double budget_seconds)
      : budget_seconds_(budget_seconds),
        start_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] bool enabled() const { return budget_seconds_ > 0.0; }

  [[nodiscard]] double elapsed_seconds() const {
    if (!enabled()) return 0.0;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// True once the budget is spent: the caller should shed optional work
  /// (refinement passes, retries) and finish degraded.
  [[nodiscard]] bool expired() const {
    return enabled() && elapsed_seconds() >= budget_seconds_;
  }

  [[nodiscard]] double budget_seconds() const { return budget_seconds_; }

 private:
  double budget_seconds_ = 0.0;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace gp
