// Request/outcome types of the partitioning service (DESIGN.md §3.8).
//
// The service engine (src/service/engine.hpp) turns the one-shot
// partitioners into a long-running, multi-tenant facility: callers submit
// (graph, options) requests with a priority class and a deadline, and the
// engine answers with a structured RequestOutcome — a partition, a shed
// decision with a machine-readable reason, or a cancellation — never a
// hang.  These types are shared by the admission queue, the retry policy,
// the engine, the CLI's --serve mode, and bench/bench_service.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/partitioner.hpp"

namespace gp {

/// Admission priority class.  Higher classes are served first; within a
/// class the queue is FIFO by submission order.
enum class Priority : int {
  kBatch = 0,        ///< offline/bulk work, first to wait and first to shed
  kNormal = 1,       ///< default
  kInteractive = 2,  ///< latency-sensitive requests
};

/// Terminal (and transient) states of a request.
enum class RequestState : int {
  kQueued = 0,   ///< admitted, waiting for an executor
  kRunning,      ///< an executor is partitioning it
  kDone,         ///< finished with a valid partition (possibly degraded)
  kShed,         ///< rejected by admission control (see shed_reason)
  kCancelled,    ///< caller cancelled before completion
  kFailed,       ///< every ladder rung failed (should not happen in practice)
};

[[nodiscard]] const char* request_state_name(RequestState s);

/// Why admission control rejected a request.  `RequestOutcome::shed_reason`
/// carries the machine-readable detail string ("queue-full:...",
/// "cost-budget:...", "shutdown").
enum class ShedClass : int {
  kNone = 0,
  kQueueFull,    ///< queue depth at the configured bound
  kCostBudget,   ///< estimated modeled-cost backlog over budget
  kShutdown,     ///< engine draining/stopped
};

/// One admitted request as the queue/engine carry it.
struct ServiceRequest {
  std::uint64_t id = 0;
  const CsrGraph* graph = nullptr;  ///< non-owning; caller keeps it alive
  PartitionOptions opts;
  std::string system = "gp-metis";  ///< requested partitioner (ladder rung 0)
  Priority priority = Priority::kNormal;
  double deadline_seconds = 0.0;    ///< relative to submission; 0 = none
  double est_cost_seconds = 0.0;    ///< admission-time modeled-cost estimate
};

/// Everything the caller learns about a finished (or rejected) request.
struct RequestOutcome {
  std::uint64_t id = 0;
  RequestState state = RequestState::kQueued;
  ShedClass shed_class = ShedClass::kNone;
  /// Machine-readable shed reason, e.g.
  /// "queue-full:depth=64:max=64" or "cost-budget:backlog=1.52:est=0.40:max=1.60".
  std::string shed_reason;

  PartitionResult result;           ///< valid only when state == kDone
  int attempts = 0;                 ///< partitioner runs consumed (>= 1 when executed)
  /// One entry per attempt: "<system>:<ok|degraded|threw>".
  std::vector<std::string> attempt_trail;
  bool deadline_missed = false;     ///< total latency exceeded the deadline
  /// Device pool blocks leaked across this request's attempts (delta of
  /// Device::process_leaked_blocks()); always 0 unless a driver broke
  /// its buffer lifetimes.
  std::int64_t leaked_blocks = 0;

  double queue_seconds = 0.0;       ///< admission -> dequeue
  double run_seconds = 0.0;         ///< dequeue -> terminal (incl. retries)
  double backoff_seconds = 0.0;     ///< modeled backoff charged between attempts
  [[nodiscard]] double total_seconds() const {
    return queue_seconds + run_seconds;
  }
};

/// Aggregate counters of one engine's lifetime, printed by
/// format_service_stats (core/report.hpp) and dumped in BENCH_service.json.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_cost_budget = 0;
  std::uint64_t shed_shutdown = 0;
  std::uint64_t completed = 0;         ///< kDone outcomes
  std::uint64_t completed_degraded = 0;///< kDone with health.degraded
  std::uint64_t deadline_misses = 0;   ///< kDone past their deadline
  std::uint64_t retries = 0;           ///< extra attempts beyond the first
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  std::uint64_t leaked_blocks = 0;     ///< pool blocks leaked by any request

  [[nodiscard]] std::uint64_t shed_total() const {
    return shed_queue_full + shed_cost_budget + shed_shutdown;
  }
};

/// Deterministic admission-time cost estimate for one request, in modeled
/// seconds: a multilevel pass touches every vertex+arc a handful of times
/// per V-cycle side and the level sizes decay geometrically, so the work
/// is O(n + m) with a small k-dependent refine factor.  Deliberately
/// crude — admission control needs a monotone, reproducible proxy, not a
/// prediction (the ledger reports real modeled cost afterwards).
[[nodiscard]] double estimate_request_cost(const CsrGraph& g,
                                           const PartitionOptions& opts);

}  // namespace gp
