#include "core/audit.hpp"

#include <sstream>

namespace gp {

AuditLevel parse_audit_level(const std::string& s) {
  if (s == "off") return AuditLevel::kOff;
  if (s == "phase") return AuditLevel::kPhase;
  if (s == "paranoid") return AuditLevel::kParanoid;
  throw std::invalid_argument("audit level must be 'off', 'phase', or "
                              "'paranoid', got '" + s + "'");
}

const char* audit_level_name(AuditLevel level) {
  switch (level) {
    case AuditLevel::kOff:      return "off";
    case AuditLevel::kPhase:    return "phase";
    case AuditLevel::kParanoid: return "paranoid";
  }
  return "?";
}

std::string AuditFailure::to_string() const {
  if (ok()) return "audit ok";
  const char* kind_name = "?";
  switch (kind) {
    case Kind::kNone:        kind_name = "none"; break;
    case Kind::kCsr:         kind_name = "csr"; break;
    case Kind::kMatching:    kind_name = "matching"; break;
    case Kind::kContraction: kind_name = "contraction"; break;
    case Kind::kPartition:   kind_name = "partition"; break;
    case Kind::kGainCache:   kind_name = "gain-cache"; break;
  }
  return std::string("audit failed [") + kind_name + "/" + invariant +
         "]: " + detail;
}

namespace {

AuditFailure fail(AuditFailure::Kind kind, std::string invariant,
                  std::string detail) {
  AuditFailure f;
  f.kind = kind;
  f.invariant = std::move(invariant);
  f.detail = std::move(detail);
  return f;
}

}  // namespace

AuditFailure audit_csr(const CsrGraph& g, AuditLevel level) {
  if (level == AuditLevel::kOff) return {};
  std::string err = g.validate();
  if (!err.empty()) {
    return fail(AuditFailure::Kind::kCsr, "well-formedness", std::move(err));
  }
  return {};
}

AuditFailure audit_matching(const std::vector<vid_t>& match,
                            AuditLevel level) {
  if (level == AuditLevel::kOff) return {};
  std::string err = validate_match(match);
  if (!err.empty()) {
    return fail(AuditFailure::Kind::kMatching, "involution", std::move(err));
  }
  return {};
}

AuditFailure audit_contraction(const CsrGraph& fine, const CsrGraph& coarse,
                               const std::vector<vid_t>& match,
                               const std::vector<vid_t>& cmap,
                               AuditLevel level) {
  if (level == AuditLevel::kOff) return {};
  const vid_t n_coarse = coarse.num_vertices();

  // cmap consistency first: the weight checks below index coarse arrays
  // through it, so a corrupted entry must be caught before it is used.
  std::string err = validate_cmap(match, cmap, n_coarse);
  if (!err.empty()) {
    return fail(AuditFailure::Kind::kContraction, "cmap-consistency",
                std::move(err));
  }

  // Vertex weight is conserved exactly: contraction only merges vertices.
  const wgt_t fine_vw = fine.total_vertex_weight();
  const wgt_t coarse_vw = coarse.total_vertex_weight();
  if (fine_vw != coarse_vw) {
    std::ostringstream os;
    os << "coarse total vertex weight " << coarse_vw
       << " != fine total " << fine_vw;
    return fail(AuditFailure::Kind::kContraction,
                "vertex-weight-conservation", os.str());
  }

  // Arc weight: coarse total = fine total minus arcs internal to matched
  // pairs (those vanish; parallel coarse arcs merge with summed weights).
  wgt_t internal = 0;
  const vid_t n = fine.num_vertices();
  for (vid_t v = 0; v < n; ++v) {
    const vid_t u = match[static_cast<std::size_t>(v)];
    if (u == v) continue;
    const auto nbrs = fine.neighbors(v);
    const auto wts = fine.neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] == u) internal += wts[i];
    }
  }
  const wgt_t expect_aw = fine.total_arc_weight() - internal;
  const wgt_t coarse_aw = coarse.total_arc_weight();
  if (coarse_aw != expect_aw) {
    std::ostringstream os;
    os << "coarse total arc weight " << coarse_aw << " != expected "
       << expect_aw << " (fine " << fine.total_arc_weight()
       << " - pair-internal " << internal << ")";
    return fail(AuditFailure::Kind::kContraction,
                "arc-weight-conservation", os.str());
  }

  // Per-coarse-vertex weight agreement: coarse vwgt must be the sum of
  // its fine members' weights (catches a perturbed cmap entry whose
  // totals still happen to cancel).
  std::vector<wgt_t> acc(static_cast<std::size_t>(n_coarse), 0);
  for (vid_t v = 0; v < n; ++v) {
    acc[static_cast<std::size_t>(cmap[static_cast<std::size_t>(v)])] +=
        fine.vertex_weight(v);
  }
  for (vid_t c = 0; c < n_coarse; ++c) {
    if (acc[static_cast<std::size_t>(c)] != coarse.vertex_weight(c)) {
      std::ostringstream os;
      os << "coarse vertex " << c << " weight " << coarse.vertex_weight(c)
         << " != sum of fine members " << acc[static_cast<std::size_t>(c)];
      return fail(AuditFailure::Kind::kContraction, "coarse-vertex-weight",
                  os.str());
    }
  }

  if (level == AuditLevel::kParanoid) {
    std::string structural = coarse.validate();
    if (!structural.empty()) {
      return fail(AuditFailure::Kind::kCsr, "coarse-well-formedness",
                  std::move(structural));
    }
  }
  return {};
}

AuditFailure audit_labels(vid_t n, const Partition& p, part_t k,
                          AuditLevel level) {
  if (level == AuditLevel::kOff) return {};
  if (p.k != k) {
    std::ostringstream os;
    os << "partition k " << p.k << " != requested k " << k;
    return fail(AuditFailure::Kind::kPartition, "assignment", os.str());
  }
  std::string err = validate_partition(n, p);
  if (!err.empty()) {
    return fail(AuditFailure::Kind::kPartition, "assignment",
                std::move(err));
  }
  return {};
}

AuditFailure audit_partition(const CsrGraph& g, const Partition& p, part_t k,
                             double eps, std::int64_t expected_cut,
                             AuditLevel level) {
  // Range/size first: everything below indexes arrays by part id.
  AuditFailure labels = audit_labels(g.num_vertices(), p, k, level);
  if (level == AuditLevel::kOff || !labels.ok()) return labels;
  if (expected_cut >= 0) {
    const wgt_t actual = edge_cut(g, p);
    if (static_cast<std::int64_t>(actual) != expected_cut) {
      std::ostringstream os;
      os << "stored cut " << expected_cut << " != recomputed cut " << actual;
      return fail(AuditFailure::Kind::kPartition, "cut-recomputation",
                  os.str());
    }
  }
  if (eps > 0.0) {
    // The eps target is best-effort (the refiner does not guarantee it on
    // every graph), so a strict check would flag legitimate results.  The
    // audit only flags corruption-scale imbalance: a part at 1.5x the
    // already-eps-padded cap means assignments were scrambled wholesale,
    // not that refinement fell a few percent short.
    constexpr double kCorruptionSlack = 1.5;
    const wgt_t limit = static_cast<wgt_t>(
        kCorruptionSlack *
        static_cast<double>(max_part_weight(g.total_vertex_weight(), k, eps)));
    const auto weights = partition_weights(g, p);
    for (part_t q = 0; q < k; ++q) {
      if (weights[static_cast<std::size_t>(q)] > limit) {
        std::ostringstream os;
        os << "part " << q << " weight "
           << weights[static_cast<std::size_t>(q)]
           << " exceeds the corruption threshold " << limit << " ("
           << kCorruptionSlack << "x max_part_weight at eps " << eps << ")";
        return fail(AuditFailure::Kind::kPartition, "balance", os.str());
      }
    }
  }
  return {};
}

AuditFailure audit_gain_cache(const CsrGraph& g,
                              const std::vector<part_t>& where,
                              const GainCache& cache, AuditLevel level) {
  if (level < AuditLevel::kParanoid) return {};
  if (!cache.ready() ||
      cache.num_vertices() != g.num_vertices()) {
    return fail(AuditFailure::Kind::kGainCache, "shape",
                "cache not built for this graph (n=" +
                    std::to_string(cache.ready() ? cache.num_vertices() : 0) +
                    " vs " + std::to_string(g.num_vertices()) + ")");
  }
  std::string err = cache.compare_to_rebuild(g, where);
  if (!err.empty()) {
    return fail(AuditFailure::Kind::kGainCache, "recompute", std::move(err));
  }
  return {};
}

}  // namespace gp
