// Analytical machine cost model — the timing substitution for the paper's
// testbed (see DESIGN.md §3.2).
//
// This container has one CPU core and no GPU, so the paper's wall-clock
// speedups cannot be measured directly.  Instead, every substrate meters
// its actual algorithmic work (arcs touched per thread / per kernel, bytes
// moved over the simulated PCIe bus, messages through the simulated MPI
// layer) and this model converts the metered work into *modeled seconds*
// on the paper's machine: an 8-core Intel Xeon E5540 plus an NVIDIA
// GeForce GTX Titan over PCIe 2.0.
//
// The unit of work is one adjacency-arc touch (reading a neighbour id +
// weight and doing O(1) bookkeeping).  Rates below are calibrated so that
// the serial baseline lands in the few-seconds range real Metis showed on
// these graph sizes in 2016 — the *ratios* between substrates are what the
// reproduction claims, not the absolute values.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gp {

struct MachineModel {
  // --- CPU (Xeon E5540, 2.53 GHz Nehalem, 8 cores) ---
  double cpu_work_rate = 55e6;   ///< work-units/s for one scalar core
  int    cpu_cores = 8;
  double cpu_barrier_s = 25e-6;  ///< fork-join / barrier cost per pass
  /// Multithreaded memory-bound code does not scale linearly on a 2009
  /// Nehalem (3 memory channels): effective parallel efficiency.
  double cpu_parallel_eff = 0.82;

  // --- GPU (GTX Titan: 14 SMX, 2688 cores, 288 GB/s GDDR5) ---
  /// Effective device-wide rate for irregular (graph) kernels.  Far below
  /// peak: the vertex-indexed reads coalesce (Fig. 2) but the adjacency
  /// reads are data-dependent gathers, so the kernels are memory-latency
  /// bound.  ~1 G arc-touches/s matches what 2013-era GPUs sustained on
  /// comparable irregular kernels (BFS/SpMV-class).
  double gpu_work_rate = 0.9e9;
  double gpu_kernel_launch_s = 12e-6;
  /// Smooth low-occupancy penalty: a kernel's modeled time is
  /// (work + tail) / rate — small launches cannot fill 14 SMX worth of
  /// in-flight memory requests, so they run at a fraction of the
  /// saturated rate (the effect behind the paper's GPU->CPU threshold).
  double gpu_low_occupancy_tail_units = 2.5e4;
  /// Penalty exponent applied to measured warp-level imbalance: effective
  /// time = (work / rate) * imbalance^gpu_imbalance_exp.
  double gpu_imbalance_exp = 1.0;

  // --- PCIe 2.0 x16 host<->device link ---
  double pcie_bw_bytes_per_s = 5.5e9;
  double pcie_latency_s = 12e-6;

  // --- Simulated MPI (all ranks on the same 8-core host, as in the
  //     paper's ParMetis runs): shared-memory transport ---
  double net_alpha_s = 6e-6;            ///< per-message latency
  double net_beta_s_per_byte = 1.0 / 2.5e9;  ///< inverse bandwidth

  /// The paper's testbed configuration.
  static MachineModel paper_testbed() { return MachineModel{}; }
};

/// The multilevel phase a ledger row is charged to.  Drivers set it on
/// the ledger around each phase (PhaseScope); transfers are always
/// kTransfer, and rows charged outside every phase (fault recovery) stay
/// kNone.  PartitionResult::phases is the per-tag sum.
enum class Phase : std::uint8_t {
  kNone, kTransfer, kCoarsen, kInitpart, kUncoarsen
};

/// One metered cost entry (a kernel launch, a parallel pass, a transfer...).
struct CostEntry {
  std::string   label;
  Phase         phase = Phase::kNone;
  double        seconds = 0;
  std::uint64_t work_units = 0;
  std::uint64_t bytes = 0;
  double        imbalance = 1.0;
  /// Kernel dispatches this entry represents: 1 for a launch header (plain
  /// or fused), 0 for fused per-stage sweeps, transfers, and CPU passes —
  /// so launches_with_prefix() counts dispatches, not ledger rows.
  std::uint32_t launches = 0;
};

/// One constituent sweep of a fused (single-dispatch) GPU kernel: the
/// stage's metered work and warp imbalance.  See CostLedger::charge_gpu_fused.
struct GpuFusedStage {
  std::string   name;
  std::uint64_t work_units = 0;
  double        imbalance = 1.0;
};

/// Accumulates modeled time.  Each partitioner carries one ledger; phases
/// charge entries through the typed helpers below.
class CostLedger {
 public:
  explicit CostLedger(MachineModel model = MachineModel::paper_testbed())
      : model_(model) {}

  const MachineModel& model() const { return model_; }

  /// Tags every row charged from now on (transfers excepted) with `phase`.
  void set_phase(Phase phase) { phase_ = phase; }
  [[nodiscard]] Phase phase() const { return phase_; }

  /// Serial CPU work (one core).
  void charge_serial(const std::string& label, std::uint64_t work_units);

  /// One barrier-synchronized multithreaded pass; `per_thread_work` is the
  /// measured work of each logical thread — the max determines the time.
  void charge_mt_pass(const std::string& label,
                      const std::vector<std::uint64_t>& per_thread_work);

  /// One barrier-synchronized multithreaded pass under DYNAMIC chunk
  /// scheduling.  Which executor drains which chunk on this container is
  /// host-scheduling noise (a one-core box funnels most chunks through
  /// one worker), so the per-slot split must not be used as the model
  /// input.  On the modeled `num_threads`-core testbed a greedy chunk
  /// scheduler achieves the classic makespan bound
  /// max(total/num_threads, heaviest chunk), which is what gets charged.
  void charge_mt_dynamic_pass(const std::string& label,
                              std::uint64_t total_work,
                              std::uint64_t max_chunk_work, int num_threads);

  /// One GPU kernel launch; `per_chunk_work` is the measured work of each
  /// scheduling chunk (≈ warp), whose imbalance stretches the kernel.
  void charge_gpu_kernel(const std::string& label, std::uint64_t total_work,
                         double imbalance);

  /// One FUSED (single-dispatch) GPU kernel made of several dependent
  /// sweeps (DESIGN.md §3.9).  The fused-launch charging rule: launch
  /// overhead and the low-occupancy ramp are credited ONCE for the whole
  /// dispatch — decoupled chaining pipelines the stages, so there is no
  /// per-stage drain — but every constituent sweep's memory work is
  /// charged honestly at full bandwidth under its own warp imbalance.
  /// Emits a header entry `label` (the dispatch, launches=1) plus one
  /// entry `label + "/" + stage.name` per sweep (launches=0), so phase
  /// roll-ups and the tiling gate see every second exactly once.
  void charge_gpu_fused(const std::string& label,
                        const std::vector<GpuFusedStage>& stages);

  /// One host<->device copy.
  void charge_transfer(const std::string& label, std::uint64_t bytes);

  /// Point-to-point / collective traffic: n messages totalling `bytes`,
  /// plus `cpu_work` units of rank-local processing (already divided among
  /// ranks by the caller if concurrent).
  void charge_messages(const std::string& label, std::uint64_t num_messages,
                       std::uint64_t bytes);

  /// Adds raw seconds (e.g. from a sub-ledger roll-up).
  void charge_raw(const std::string& label, double seconds);

  /// Merges another ledger's entries (prefixing labels, keeping tags).
  void merge(const std::string& prefix, const CostLedger& other);

  [[nodiscard]] double total_seconds() const { return total_; }
  [[nodiscard]] const std::vector<CostEntry>& entries() const {
    return entries_;
  }

  /// Sum of entries tagged `phase`.
  [[nodiscard]] double seconds_in(Phase phase) const;

  /// Sum of entries whose label starts with `prefix`.
  [[nodiscard]] double seconds_with_prefix(const std::string& prefix) const;

  /// Total bytes of entries whose label starts with `prefix` (transfers).
  [[nodiscard]] std::uint64_t bytes_with_prefix(
      const std::string& prefix) const;

  /// Kernel dispatches among entries whose label starts with `prefix`
  /// (fused launches count once, their stage rows zero) — the per-phase
  /// kernel-count breakdown behind BENCH_e2e.json's `kernels_by_phase`.
  [[nodiscard]] std::uint64_t launches_with_prefix(
      const std::string& prefix) const;

  void clear();

  /// Serializes the entries as a JSON array (label, seconds, work_units,
  /// bytes, imbalance) — for offline analysis of a run's cost breakdown
  /// (`gpmetis --ledger-json <path>` writes this).
  [[nodiscard]] std::string to_json() const;

 private:
  /// A row labelled `label`, tagged with the current phase.
  [[nodiscard]] CostEntry entry(const std::string& label) const;
  void push(CostEntry e);

  MachineModel           model_;
  std::vector<CostEntry> entries_;
  double                 total_ = 0;
  Phase                  phase_ = Phase::kNone;
};

/// Tags a ledger's rows with `phase` for the scope's lifetime, then
/// restores the enclosing phase (also when an exception unwinds it).
/// A null ledger makes it a no-op.
class PhaseScope {
 public:
  PhaseScope(CostLedger* ledger, Phase phase)
      : ledger_(ledger), outer_(ledger ? ledger->phase() : Phase::kNone) {
    enter(phase);
  }
  ~PhaseScope() { enter(outer_); }

  /// Moves the scope on to the next phase.
  void enter(Phase phase) {
    if (ledger_) ledger_->set_phase(phase);
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  CostLedger* ledger_;
  Phase outer_;
};

}  // namespace gp
