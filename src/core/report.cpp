#include "core/report.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace gp {

PartitionReport analyze_partition(const CsrGraph& g, const Partition& p) {
  PartitionReport rep;
  rep.parts.resize(static_cast<std::size_t>(p.k));
  for (part_t q = 0; q < p.k; ++q) rep.parts[static_cast<std::size_t>(q)].part = q;

  wgt_t cut2 = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const part_t pv = p.where[static_cast<std::size_t>(v)];
    auto& row = rep.parts[static_cast<std::size_t>(pv)];
    row.weight += g.vertex_weight(v);
    row.vertices += 1;
    const auto nbrs = g.neighbors(v);
    const auto wts = g.neighbor_weights(v);
    bool is_boundary = false;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (p.where[static_cast<std::size_t>(nbrs[i])] != pv) {
        row.external_weight += wts[i];
        cut2 += wts[i];
        is_boundary = true;
      }
    }
    if (is_boundary) {
      row.boundary_vertices += 1;
      rep.boundary += 1;
    }
  }
  rep.cut = cut2 / 2;
  rep.balance = partition_balance(g, p);
  rep.comm_volume = communication_volume(g, p);
  return rep;
}

std::string format_report(const PartitionReport& report, bool per_part_rows) {
  std::ostringstream os;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "edge cut %lld | balance %.4f | comm volume %lld | "
                "boundary vertices %d\n",
                static_cast<long long>(report.cut), report.balance,
                static_cast<long long>(report.comm_volume), report.boundary);
  os << buf;
  if (per_part_rows) {
    std::snprintf(buf, sizeof(buf), "%6s %12s %10s %10s %12s\n", "part",
                  "weight", "vertices", "boundary", "ext.weight");
    os << buf;
    for (const auto& row : report.parts) {
      std::snprintf(buf, sizeof(buf), "%6d %12lld %10d %10d %12lld\n",
                    row.part, static_cast<long long>(row.weight),
                    row.vertices, row.boundary_vertices,
                    static_cast<long long>(row.external_weight));
      os << buf;
    }
  }
  return os.str();
}

std::string format_health(const RunHealth& h) {
  std::ostringstream os;
  char buf[240];
  std::snprintf(
      buf, sizeof(buf),
      "health: %s | faults %llu | gpu retries %llu | devices lost %llu | "
      "msgs dropped %llu / resent %llu | match repairs %llu | fallbacks %llu\n",
      h.degraded ? "DEGRADED" : "ok",
      static_cast<unsigned long long>(h.faults_injected),
      static_cast<unsigned long long>(h.gpu_retries),
      static_cast<unsigned long long>(h.devices_lost),
      static_cast<unsigned long long>(h.messages_dropped),
      static_cast<unsigned long long>(h.messages_resent),
      static_cast<unsigned long long>(h.match_repairs),
      static_cast<unsigned long long>(h.fallbacks));
  os << buf;
  if (h.audits_run > 0 || h.corruptions_injected > 0 || h.rollbacks > 0 ||
      h.payload_discards > 0) {
    std::snprintf(
        buf, sizeof(buf),
        "audits: run %llu | failed %llu | rollbacks %llu | "
        "corruptions injected %llu | payload discards %llu\n",
        static_cast<unsigned long long>(h.audits_run),
        static_cast<unsigned long long>(h.audits_failed),
        static_cast<unsigned long long>(h.rollbacks),
        static_cast<unsigned long long>(h.corruptions_injected),
        static_cast<unsigned long long>(h.payload_discards));
    os << buf;
  }
  for (const auto& e : h.events) os << "  " << e << "\n";
  return os.str();
}

std::string format_service_stats(const ServiceStats& s) {
  std::ostringstream os;
  char buf[240];
  std::snprintf(
      buf, sizeof(buf),
      "service: submitted %llu | accepted %llu | shed %llu "
      "(queue-full %llu, cost-budget %llu, shutdown %llu)\n",
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.accepted),
      static_cast<unsigned long long>(s.shed_total()),
      static_cast<unsigned long long>(s.shed_queue_full),
      static_cast<unsigned long long>(s.shed_cost_budget),
      static_cast<unsigned long long>(s.shed_shutdown));
  os << buf;
  std::snprintf(
      buf, sizeof(buf),
      "         completed %llu (degraded %llu) | deadline misses %llu | "
      "retries %llu | cancelled %llu | failed %llu | leaked blocks %llu\n",
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.completed_degraded),
      static_cast<unsigned long long>(s.deadline_misses),
      static_cast<unsigned long long>(s.retries),
      static_cast<unsigned long long>(s.cancelled),
      static_cast<unsigned long long>(s.failed),
      static_cast<unsigned long long>(s.leaked_blocks));
  os << buf;
  return os.str();
}

}  // namespace gp
