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

/// Terminal rung of the parallel drivers' fault ladders: notes that
/// `who` failed audit with `e`, suppresses further corruption, and
/// replaces res's partition, cut, balance and level counts with a clean
/// serial run's.  The serial run's audit tallies and ledger rows are
/// added to res's.
void serial_fallback(const CsrGraph& g, const PartitionOptions& opts,
                     FaultInjector* injector, const std::string& who,
                     const AuditError& e, PartitionResult& res);

}  // namespace gp
