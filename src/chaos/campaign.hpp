// Chaos campaign engine (DESIGN.md §3.10): fault-space fuzzing for the
// degradation ladders.
//
// Every robustness test before this harness exercised a hand-picked fault
// spec; the campaign instead *generates* specs from the full grammar
// (one-shot and probabilistic site rules, corruption sites, device losses,
// rank failures, task throws, and the mem-cap capacity squeeze) and runs
// each against the drivers with phase audits on, checking ONE oracle:
//
//   A run must end in (a) a valid clean partition, (b) a valid partition
//   with a typed degradation trail (RunHealth events + degraded flag), or
//   (c) a typed error — never a crash, a hang (Watchdog-bounded budgets),
//   an invalid silent result, or a leaked device-pool block.
//
// Violations are minimized by the delta-debugging shrinker (shrink.hpp)
// into a ready-to-paste `--fault-spec` reproducer.  Campaigns are pure
// functions of their seed: same seed, same specs, same outcome ledger,
// byte for byte (single-threaded drivers + 1 host worker by default).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/audit.hpp"
#include "core/csr_graph.hpp"
#include "util/types.hpp"

namespace gp {

/// Oracle classification of one chaos run.
enum class ChaosVerdict : int {
  kValid = 0,   ///< valid partition, nominal path
  kDegraded,    ///< valid partition, typed degradation trail
  kTypedError,  ///< a named gp:: / std:: exception escaped the driver
  kViolation,   ///< oracle violation: crash/invalid/leak/untracked failure
};

[[nodiscard]] const char* chaos_verdict_name(ChaosVerdict v);

struct ChaosConfig {
  std::uint64_t seed = 1;      ///< campaign seed: specs AND fault seeds
  int specs = 200;             ///< randomized specs per system
  int max_clauses = 3;         ///< clauses per generated spec (>= 1)
  std::vector<std::string> systems = {"metis", "mt-metis", "parmetis",
                                      "gp-metis", "gp-metis-multi"};
  std::string graph = "delaunay";  ///< delaunay | grid | road | bubble
  vid_t graph_n = 600;
  std::uint64_t graph_seed = 7;
  part_t k = 4;
  AuditLevel audit = AuditLevel::kPhase;
  /// Determinism defaults: 1 CPU thread and 1 device host worker make the
  /// outcome ledger byte-identical per seed (threads >= 2 runs are
  /// intentionally racy; see ROADMAP).
  int threads = 1;
  int gpu_host_workers = 1;
  int ranks = 4;
  /// Watchdog bound per run: generous enough to never fire on a healthy
  /// scale-0 run (wall-clock shedding would break ledger determinism),
  /// tight enough to bound a pathological one.
  double time_budget_seconds = 60.0;
  std::uint64_t partition_seed = 7;
  /// Shrink oracle budget per violation (predicate probes = driver runs).
  int shrink_probes = 200;
};

/// Outcome of one (system, spec) run.
struct ChaosRun {
  int spec_index = -1;
  std::string system;
  std::string spec;
  std::uint64_t fault_seed = 0;
  ChaosVerdict verdict = ChaosVerdict::kValid;
  std::string detail;      ///< error type/message or violation reason
  wgt_t cut = 0;           ///< 0 unless a partition was produced
  std::uint64_t faults = 0;
  std::uint64_t audits_failed = 0;
  std::uint64_t rollbacks = 0;
  std::int64_t leaked_blocks = 0;
  /// Minimal reproducer (filled for violations by chaos_campaign).
  std::string reproducer;
  /// The run's health event trail (empty when no partition came back);
  /// not part of the ledger line.
  std::vector<std::string> events;

  /// One deterministic ledger line; the campaign ledger is their join.
  [[nodiscard]] std::string ledger_line() const;
};

struct ChaosReport {
  std::vector<ChaosRun> runs;
  std::uint64_t valid = 0;
  std::uint64_t degraded = 0;
  std::uint64_t typed_errors = 0;
  std::uint64_t violations = 0;

  /// Byte-identical across same-seed campaigns: the determinism gate
  /// diffs two of these.
  [[nodiscard]] std::string ledger() const;
  [[nodiscard]] std::vector<const ChaosRun*> violating() const;
};

/// Builds the campaign graph described by `cfg` (pure function).
[[nodiscard]] CsrGraph chaos_make_graph(const ChaosConfig& cfg);

/// The i-th randomized fault spec of a campaign seed (pure function of
/// (seed, index, max_clauses); always parses cleanly).
[[nodiscard]] std::string chaos_generate_spec(std::uint64_t seed, int index,
                                              int max_clauses);

/// Deterministic per-spec fault seed.
[[nodiscard]] std::uint64_t chaos_fault_seed(std::uint64_t seed, int index);

/// Runs one (system, spec) pair against the oracle.  Never throws for
/// driver failures — those become the verdict.
[[nodiscard]] ChaosRun chaos_run_spec(const CsrGraph& g,
                                      const ChaosConfig& cfg,
                                      const std::string& system,
                                      const std::string& spec,
                                      std::uint64_t fault_seed,
                                      int spec_index = -1);

/// Full campaign: cfg.specs specs, each against every system in
/// cfg.systems.  Violations are shrunk to minimal reproducers.
[[nodiscard]] ChaosReport chaos_campaign(const ChaosConfig& cfg);

}  // namespace gp
