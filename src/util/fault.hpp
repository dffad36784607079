// Deterministic fault injection for the simulated GPU and comm substrates
// (DESIGN.md §3.4).
//
// Production partitioners treat resource exhaustion and partial hardware
// loss as recoverable, *reproducible* paths.  A FaultPlan is a parseable
// schedule of named fault sites; a FaultInjector evaluates it with a
// dedicated seed so that the same (seed, plan) pair yields the identical
// fault schedule — and therefore the identical retries, fallbacks, and
// final partition — on every run.
//
// Plan syntax (';' or ',' separated rules):
//   alloc@3            fault the 3rd device allocation (0-based, fires once)
//   kernel:p=0.01      each kernel launch faults with probability 0.01
//   h2d@1  d2h@0       Nth host->device / device->host copy faults
//   msg@5  msg:p=0.1   Nth routed message dropped / probabilistic drop
//   superstep@2        every message routed in superstep 2 is dropped
//   device1:lost       device 1 fails permanently (all ops raise)
//   device0:lost@40    device 0 fails starting at its 40th operation
//   rank2:fail         rank 2 fail-stops (detected at the next superstep)
//   rank1:fail@6       rank 1 fail-stops from superstep 6 on
//   flip@4  flip:p=    bit-flip in the Nth device transfer's payload
//   payload@2          garble the body of the Nth routed message
//   cmap@0             perturb one coarse-map entry at the Nth contraction
//   alloc:p=0.05       each device allocation fails with probability 0.05
//   task@7  task:p=    Nth ThreadPool dispatch throws from a worker slot
//   mem-cap=262144     squeeze device capacity to 262144 bytes (OOM path)
//
// Occurrence counters advance only on host-side, single-threaded paths
// (launch entry, transfer metering, message routing, pool dispatch), so the
// schedule is independent of worker-pool interleaving.  Probabilistic
// decisions hash (seed, site, occurrence) statelessly — sites never perturb
// each other.  Duplicate clauses for the same site (same `@N`, a second
// `:p=` rule, a second `mem-cap=`, repeated device/rank ids) are rejected
// at parse time so a plan round-trips through to_string() unambiguously.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace gp {

enum class FaultSite : int {
  kAlloc = 0,
  kKernel,
  kH2D,
  kD2H,
  kMsg,
  kSuperstep,
  kFlip,     ///< silent bit-flip in a device transfer payload
  kPayload,  ///< silent garble of a routed message body
  kCmap,     ///< silent perturbation of a coarse-map entry
  kTask,     ///< ThreadPool dispatch throws from inside a worker slot
  kNumSites,
};

[[nodiscard]] const char* fault_site_name(FaultSite site);

/// One injection rule: either "fire at occurrence `at`" (once) or "fire
/// with probability `p` at every occurrence".
struct FaultRule {
  FaultSite     site = FaultSite::kAlloc;
  std::int64_t  at = -1;  ///< 0-based occurrence index; -1 = probabilistic
  double        p = 0.0;
};

/// Parsed fault schedule.  Throws std::invalid_argument on syntax errors.
struct FaultPlan {
  struct DeviceLoss {
    int           device = 0;
    std::uint64_t after_ops = 0;  ///< lost from its Nth operation on
  };
  struct RankFailure {
    int           rank = 0;
    std::uint64_t from_superstep = 0;
  };

  std::vector<FaultRule>   rules;
  std::vector<DeviceLoss>  device_losses;
  std::vector<RankFailure> rank_failures;
  std::size_t              mem_cap_bytes = 0;  ///< 0 = no capacity squeeze

  [[nodiscard]] bool empty() const {
    return rules.empty() && device_losses.empty() && rank_failures.empty() &&
           mem_cap_bytes == 0;
  }

  static FaultPlan parse(const std::string& spec);

  /// Canonical serialization: rules in plan order, then device losses,
  /// rank failures, and the mem-cap clause, ';'-joined.  Probabilities
  /// print with the shortest representation that round-trips, so
  /// parse(to_string(parse(s))) == parse(s) for every valid spec.
  [[nodiscard]] std::string to_string() const;
};

/// Health record of one partitioner run: what was injected, what the
/// degradation policies did about it, and whether the result came from a
/// degraded path.  Threaded through PartitionResult; printed by report.cpp.
struct RunHealth {
  std::uint64_t faults_injected = 0;   ///< fault decisions that fired
  std::uint64_t gpu_retries = 0;       ///< GPU attempt restarts
  std::uint64_t devices_lost = 0;      ///< simulated GPUs lost for good
  std::uint64_t messages_dropped = 0;  ///< comm messages eaten in transit
  std::uint64_t messages_resent = 0;   ///< recovery resends (parmetis cmap)
  std::uint64_t match_repairs = 0;     ///< asymmetric matches repaired
  std::uint64_t payload_discards = 0;  ///< malformed records rejected on receive
  std::uint64_t fallbacks = 0;         ///< policy downgrades taken
  std::uint64_t audits_run = 0;        ///< invariant audits executed
  std::uint64_t audits_failed = 0;     ///< audits that found corruption
  std::uint64_t rollbacks = 0;         ///< level/phase re-executions
  std::uint64_t corruptions_injected = 0;  ///< silent corruptions planted
  bool          degraded = false;      ///< result came off the nominal path
  std::vector<std::string> events;     ///< ordered fault/fallback trail

  void note(std::string event) { events.push_back(std::move(event)); }

  friend bool operator==(const RunHealth&, const RunHealth&) = default;
};

/// Evaluates a FaultPlan deterministically.  One injector serves a whole
/// run (all devices, the comm layer, and every retry attempt): occurrence
/// counters keep advancing across attempts, so a `site@N` rule fires
/// exactly once per run no matter how often the partitioner retries.
class FaultInjector {
 public:
  enum class Action { kNone, kOom, kFail };

  FaultInjector(std::uint64_t seed, FaultPlan plan);

  /// Device-substrate check.  Returns kOom for an injected allocation
  /// failure, kFail for an injected kernel/transfer fault or any
  /// operation on a lost device.
  Action on_device_op(int device_id, FaultSite site);

  /// Comm-substrate checks (called from single-threaded routing code).
  /// Evaluated once per superstep: blackout drops every routed message.
  [[nodiscard]] bool superstep_blackout(std::uint64_t superstep);
  /// Per-message drop decision (kMsg rules; counts the occurrence).
  [[nodiscard]] bool drop_message();
  /// ThreadPool dispatch check (kTask rules; counts one occurrence per
  /// dispatch, evaluated on the dispatching host thread).  When true the
  /// pool plants a throw inside worker slot 0 of the job.
  [[nodiscard]] bool task_fault();
  /// Plan's device-capacity squeeze in bytes (0 = none).  The plan is
  /// immutable after construction, so this needs no lock.
  [[nodiscard]] std::size_t mem_cap_bytes() const {
    return plan_.mem_cap_bytes;
  }
  /// Records an allocation rejected by the mem-cap squeeze (counts as a
  /// fired fault so the run reports degraded health).
  void note_mem_cap_hit(std::size_t requested, std::size_t cap);
  /// Fail-stop check for a rank at a given superstep (no counter).
  [[nodiscard]] bool rank_failed(int rank, std::uint64_t superstep) const;
  /// Records a detected rank failure in the event trail (called once by
  /// the comm layer when it fail-stops).
  void record_rank_failure(int rank, std::uint64_t superstep);

  /// Silent-corruption checks (DESIGN.md §3.5).  Each counts one
  /// occurrence of its site; when the plan says to corrupt, `*material`
  /// receives 64 bits derived from (seed, site, occurrence) — the caller
  /// uses them to pick the byte/bit/index to mutate, so the same
  /// (seed, spec) replays byte-identically.  All return false while
  /// corruption is suppressed (terminal escalation steps turn injection
  /// off to guarantee convergence under `:p=` rules).
  [[nodiscard]] bool corrupt_transfer(std::uint64_t* material,
                                      const std::string& what);
  [[nodiscard]] bool corrupt_payload(std::uint64_t* material);
  [[nodiscard]] bool corrupt_cmap(std::uint64_t* material);

  /// Disables (or re-enables) the corruption sites.  Recorded in the
  /// event trail; deterministic because it is only toggled in response
  /// to deterministic audit outcomes.
  void set_corruption_suppressed(bool suppressed);

  [[nodiscard]] std::uint64_t faults_fired() const;
  [[nodiscard]] std::uint64_t devices_lost() const;
  [[nodiscard]] std::uint64_t corruptions() const;

  /// Folds the injector's tallies and event trail into a health record.
  void report_into(RunHealth& health) const;

 private:
  bool site_fires_locked(FaultSite site);  ///< counts an occurrence
  /// As site_fires_locked, but also derives the corruption material for
  /// the firing occurrence.
  bool corrupt_site_locked(FaultSite site, std::uint64_t* material,
                           const std::string& detail);

  std::uint64_t seed_;
  FaultPlan     plan_;

  mutable std::mutex mutex_;
  std::uint64_t counters_[static_cast<int>(FaultSite::kNumSites)] = {};
  std::vector<std::uint64_t> device_ops_;   ///< per-device op counters
  std::vector<char>          device_dead_;  ///< loss already reported
  std::uint64_t fired_ = 0;
  std::uint64_t lost_devices_ = 0;
  std::uint64_t corrupted_ = 0;
  bool          suppress_corruption_ = false;
  std::vector<std::string> events_;
};

}  // namespace gp
