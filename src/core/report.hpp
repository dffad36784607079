// Human-readable partition quality report — what `gpmetis --report`
// prints and what examples use to summarize results.
#pragma once

#include <string>

#include "core/csr_graph.hpp"
#include "core/partition.hpp"
#include "core/partitioner.hpp"
#include "service/request.hpp"

namespace gp {

struct PartReportRow {
  part_t part = 0;
  wgt_t weight = 0;
  vid_t vertices = 0;
  vid_t boundary_vertices = 0;
  wgt_t external_weight = 0;  ///< arc weight leaving the part
};

struct PartitionReport {
  wgt_t cut = 0;
  double balance = 0;
  wgt_t comm_volume = 0;
  vid_t boundary = 0;
  std::vector<PartReportRow> parts;
};

/// Computes the full per-part breakdown.
[[nodiscard]] PartitionReport analyze_partition(const CsrGraph& g,
                                                const Partition& p);

/// Renders the report as an aligned text table.
[[nodiscard]] std::string format_report(const PartitionReport& report,
                                        bool per_part_rows = true);

/// Multi-line rendering of a run's health record: fault/retry/fallback
/// tallies plus the ordered event trail.  Healthy runs render one line.
[[nodiscard]] std::string format_health(const RunHealth& h);

/// Multi-line rendering of a service engine's lifetime counters —
/// admission/shed split, completion health, retry and deadline tallies
/// (printed by `gpmetis --serve` and bench_service).
[[nodiscard]] std::string format_service_stats(const ServiceStats& s);

}  // namespace gp
