// Serial multilevel k-way partitioner (the "Metis" baseline of the paper):
// HEM coarsening -> recursive-bisection initial partitioning -> greedy
// k-way refinement during uncoarsening, as a backend of the shared CPU
// V-cycle (core/vcycle.hpp).
#pragma once

#include <string>

#include "core/partitioner.hpp"

namespace gp {

class SerialMetisPartitioner final : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "metis"; }
  [[nodiscard]] PartitionResult run(const CsrGraph& g,
                                    const PartitionOptions& opts) const override;
};

}  // namespace gp
