// Direct partition passes: every system partitions every (graph, k) input
// of the workload once, outside the service engine, with each result
// checked.  Also the deterministic identity replay.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace pb {

/// One system's totals over the workload's inputs in one pass.
struct SystemSample {
  double wall_s = 0;
  double cpu_s = 0;   ///< process CPU seconds
  double modeled_s = 0;
  double cut = 0;
  gp::PhaseSeconds phases;
  double levels = 0;
  double coarsest_n = 0;
  // gp-metis device counters
  double kernels_coarsen = 0;
  double kernels_uncoarsen = 0;
  double pool_hits = 0;
  double pool_misses = 0;
  double transfer_bytes = 0;
  // parmetis comm ledger
  double comm_modeled_s = 0;
  double comm_bytes = 0;
};

struct PassResult {
  std::map<std::string, SystemSample> systems;
  std::vector<double> job_wall_s;  ///< per (input, system) job
  double wall_s = 0;
  double cpu_s = 0;                ///< summed over the valid jobs
  int valid_jobs = 0;

  /// cpu_s.<sys>, modeled_s.<sys>, cut.<sys> of this pass.
  [[nodiscard]] std::vector<Metric> end_to_end() const;
  /// wall_s.<sys> of this pass.
  [[nodiscard]] std::vector<Metric> walls() const;
  /// The per-layer metrics read from this pass's results: model.*,
  /// core.*, gpu.* and par.*.
  [[nodiscard]] std::vector<Metric> layers() const;

 private:
  /// The system's totals; zeros when every job of it failed.
  [[nodiscard]] const SystemSample& at(const std::string& system) const;
};

class PassRunner {
 public:
  explicit PassRunner(const Workload& w);

  /// Runs one pass; the system order rotates with `index` so drift hits
  /// every system equally.  Spans go to `tracer` (a disabled tracer
  /// records nothing).
  PassResult run(int index, Report& report, Tracer& tracer) const;

 private:
  const Workload& w_;
  std::vector<std::unique_ptr<gp::Partitioner>> systems_;  ///< kSystems
};

struct IdentityRow {
  std::string graph;
  gp::part_t k = 0;
  std::string system;
  std::uint64_t fnv = 0;
  double det_s = 0;  ///< exact modeled seconds
};

/// Reruns metis, mt-metis and gp-metis at threads = 1 and one device host
/// worker on every input: partitions and ledgers are byte-deterministic
/// there, so FNVs and modeled seconds repeat exactly per seed.
[[nodiscard]] std::vector<IdentityRow> identity_replay(const Workload& w,
                                                       Report& report);

}  // namespace pb
