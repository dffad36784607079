#include "core/partitioner.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace gp {

void validate_options(const CsrGraph& g, const PartitionOptions& opts) {
  if (opts.k < 1) {
    throw std::invalid_argument("k must be >= 1, got " +
                                std::to_string(opts.k));
  }
  if (g.num_vertices() > 0 && opts.k > g.num_vertices()) {
    throw std::invalid_argument(
        "k (" + std::to_string(opts.k) + ") exceeds the number of vertices (" +
        std::to_string(g.num_vertices()) + ")");
  }
  if (!(opts.eps >= 0.0 && opts.eps < 1.0)) {
    throw std::invalid_argument("eps must be in [0, 1), got " +
                                std::to_string(opts.eps));
  }
  for (const auto& [name, value] :
       {std::pair{"threads", opts.threads}, {"ranks", opts.ranks},
        {"gpu_devices", opts.gpu_devices}, {"gpu_threads", opts.gpu_threads},
        {"init_trials", opts.init_trials}}) {
    if (value < 1) {
      throw std::invalid_argument(std::string(name) + " must be >= 1, got " +
                                  std::to_string(value));
    }
  }
  // At 1 or above a level whose matching makes no progress never meets
  // the V-cycle's shrink test, so coarsening would contract the same
  // graph forever.  The negated form also rejects NaN.
  if (!(opts.min_shrink > 0.0 && opts.min_shrink < 1.0)) {
    throw std::invalid_argument("min_shrink must be in (0, 1), got " +
                                std::to_string(opts.min_shrink));
  }
  if (opts.refine_passes < 0) {
    throw std::invalid_argument("refine_passes must be >= 0");
  }
  if (opts.time_budget_seconds < 0.0) {
    throw std::invalid_argument("time_budget_seconds must be >= 0, got " +
                                std::to_string(opts.time_budget_seconds));
  }
  if (!opts.fault_spec.empty()) {
    (void)FaultPlan::parse(opts.fault_spec);  // throws on syntax errors
  }
}

std::unique_ptr<FaultInjector> PartitionOptions::make_fault_injector() const {
  if (fault_spec.empty()) return nullptr;
  return std::make_unique<FaultInjector>(fault_seed,
                                         FaultPlan::parse(fault_spec));
}

}  // namespace gp
