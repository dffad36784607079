// Common options / result types and the abstract interface shared by the
// five partitioners (serial Metis-like, mt-metis-like, ParMetis-like, the
// paper's GP-metis, and its multi-GPU extension gp-metis-multi).
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/audit.hpp"
#include "core/csr_graph.hpp"
#include "core/partition.hpp"
#include "model/machine_model.hpp"
#include "util/cancel.hpp"
#include "util/fault.hpp"
#include "util/types.hpp"

namespace gp {

struct PartitionOptions {
  part_t k = 64;       ///< number of parts (paper: 64)
  double eps = 0.03;   ///< imbalance tolerance (paper: 3%)
  std::uint64_t seed = 1;

  int threads = 8;     ///< logical CPU threads (mt phases; paper: 8)
  int ranks = 8;       ///< simulated MPI ranks (par)

  /// Stop coarsening early if a level shrinks by less than this factor;
  /// must lie in (0, 1).
  double min_shrink = 0.95;
  int refine_passes = 8;
  /// GGGP+FM trials raced per bisection by the mt-style initial
  /// partitioning engine (mt-metis, gp-metis).  The partition is
  /// byte-identical at any thread count for a fixed value; raising it
  /// buys cut quality for modeled time.  The serial driver keeps its
  /// Metis-faithful 4 growths + 1 FM and ignores this.
  int init_trials = 1;

  // --- GP-metis specific ---
  /// GPU coarsening hands off to the CPU when the level has fewer
  /// vertices than this (paper's "threshold level").
  vid_t gpu_cpu_threshold = 16 * 1024;
  /// Charge rule of the device contraction's row merge: true charges the
  /// clustered hash table (paper's faster variant), false sort-merge's
  /// extra sorting pass.  Both run the same merge and build the same
  /// coarse graph; the flag stays for perfbench's contraction replay and
  /// the contraction ablation.
  bool gpu_hash_contraction = true;
  /// Logical GPU threads for the first level; later levels shrink the
  /// launch with the graph ("we reduce the number of launched threads in
  /// the following levels").
  int gpu_threads = 1 << 14;
  /// Per-device memory capacity override in bytes (0 = the GTX Titan's
  /// 6 GB).  Lets tests exercise the out-of-memory path.
  std::size_t gpu_memory_bytes = 0;
  /// Device-wide prefix-sum / dispatch strategy (DESIGN.md §3.9):
  /// kLookback (default) runs each hot level chain as a single fused
  /// dispatch built on the decoupled-lookback scan; kBlocked keeps the
  /// historical one-launch-per-kernel pipelines with three-kernel scans
  /// (the differential harness and the scan ablation flip this).  Both
  /// modes produce byte-identical partitions.
  GpuScanMode gpu_scan = GpuScanMode::kLookback;
  /// Number of GPUs gp-metis-multi shards the device levels over (the
  /// paper's future work; hybrid/multi_gpu_partitioner.hpp).  Must be at
  /// least 1.  The single-device GP-metis ignores this.
  int gpu_devices = 2;
  /// Host worker threads per simulated device (0 = the device default).
  /// Tests set 1 for bit-deterministic kernel execution.
  int gpu_host_workers = 0;

  // --- fault injection (src/util/fault.hpp) ---
  /// Fault schedule, e.g. "alloc@3;kernel:p=0.01;device1:lost".  Empty =
  /// no injection and zero overhead; parse errors throw invalid_argument.
  std::string fault_spec;
  /// Seed for probabilistic fault rules (independent of `seed` so the
  /// same partitioning run can be replayed under different schedules).
  std::uint64_t fault_seed = 0;

  // --- silent-corruption defense (src/core/audit.hpp) ---
  /// Phase-boundary invariant audits: off = zero overhead (default),
  /// phase = O(n+m) checks at phase boundaries, paranoid = phase plus
  /// full structural revalidation of every coarse graph.  A failed audit
  /// rolls the level back and re-executes on an escalating ladder.
  AuditLevel audit_level = AuditLevel::kOff;
  /// Wall-clock deadline in seconds, enforced at phase boundaries: when
  /// rollback-retries threaten the budget, the drivers shed refinement
  /// passes and finish degraded rather than overrun.  0 = no deadline.
  double time_budget_seconds = 0.0;

  // --- cooperative cancellation (src/util/cancel.hpp, DESIGN.md §3.8) ---
  /// Non-owning cancellation token, observed at V-cycle phase boundaries
  /// by every driver (and between pool jobs by ThreadPool).  When set and
  /// cancelled, the run throws CancelledError; the caller owns the token's
  /// lifetime for the whole run.  nullptr (default) = not cancellable.
  const CancelToken* cancel = nullptr;

  /// Builds the injector for this run, or nullptr when fault_spec is
  /// empty (implemented in partitioner.cpp).
  [[nodiscard]] std::unique_ptr<FaultInjector> make_fault_injector() const;

  /// Coarsening stops when the graph has at most 30*k vertices (roughly
  /// Metis' C*k rule).
  [[nodiscard]] vid_t coarsen_target() const { return 30 * k; }
};

struct PhaseSeconds {
  double coarsen = 0;
  double initpart = 0;
  double uncoarsen = 0;
  double transfer = 0;  ///< host<->device copies (GP-metis only)

  [[nodiscard]] double total() const {
    return coarsen + initpart + uncoarsen + transfer;
  }
};

/// Per-level coarsening trace (finest to coarsest), for users inspecting
/// how their graph collapses.
struct LevelStat {
  vid_t vertices = 0;
  eid_t edges = 0;
};

/// Execution-engine counters from the run's simulated device(s): kernel
/// launches, device-buffer-pool behaviour and the memory high-water mark.
/// All zero for the CPU-only partitioners; multi-device runs sum the
/// counters over devices and attempts and take the max of the peaks.
struct DeviceExecStats {
  std::uint64_t kernels_launched = 0;
  std::uint64_t pool_hits = 0;   ///< scratch acquisitions served from pool
  std::uint64_t pool_misses = 0; ///< acquisitions that allocated fresh memory
  std::uint64_t pool_recycled_bytes = 0;  ///< bytes served without malloc
  std::int64_t  pool_leaked_blocks = 0;   ///< blocks outstanding at teardown
  std::size_t   peak_device_bytes = 0;    ///< one device's peak allocation

  DeviceExecStats& operator+=(const DeviceExecStats& o) {
    kernels_launched += o.kernels_launched;
    pool_hits += o.pool_hits;
    pool_misses += o.pool_misses;
    pool_recycled_bytes += o.pool_recycled_bytes;
    pool_leaked_blocks += o.pool_leaked_blocks;
    peak_device_bytes = std::max(peak_device_bytes, o.peak_device_bytes);
    return *this;
  }
};

struct PartitionResult {
  Partition partition;
  wgt_t     cut = 0;
  double    balance = 0;
  std::vector<LevelStat> levels;  ///< coarsening trace (may be empty)

  double modeled_seconds = 0;  ///< cost-model time on the paper's testbed
  double wall_seconds = 0;     ///< actual wall time in this container

  PhaseSeconds phases;         ///< modeled, by phase
  CostLedger   ledger;         ///< full metered breakdown
  int          coarsen_levels = 0;
  vid_t        coarsest_vertices = 0;

  /// Fault/degradation record of this run (default: healthy, no faults).
  RunHealth    health;

  /// Execution-engine counters (simulated device runs only).
  DeviceExecStats exec;
};

/// Validates (graph, options) preconditions shared by every partitioner:
/// k >= 1, k <= number of vertices (unless the graph is empty and k == 1),
/// eps in [0, 1), threads/ranks/gpu_devices >= 1.  Throws
/// std::invalid_argument.
void validate_options(const CsrGraph& g, const PartitionOptions& opts);

/// Cooperative cancellation check at a V-cycle phase boundary: throws
/// CancelledError when the run's token (if any) has been cancelled.
/// `where` names the boundary for the error message / event trail.
inline void check_cancelled(const PartitionOptions& opts, const char* where) {
  if (opts.cancel && opts.cancel->cancelled()) throw CancelledError(where);
}

/// Abstract partitioner, for code that compares all four systems.
class Partitioner {
 public:
  virtual ~Partitioner() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual PartitionResult run(
      const CsrGraph& g, const PartitionOptions& opts) const = 0;
};

/// Factories for the four systems (implemented in their modules).
std::unique_ptr<Partitioner> make_serial_partitioner();   // "metis"
std::unique_ptr<Partitioner> make_mt_partitioner();       // "mt-metis"
std::unique_ptr<Partitioner> make_par_partitioner();      // "parmetis"
std::unique_ptr<Partitioner> make_hybrid_partitioner();   // "gp-metis"
std::unique_ptr<Partitioner> make_multi_gpu_partitioner();// "gp-metis-multi"

}  // namespace gp
