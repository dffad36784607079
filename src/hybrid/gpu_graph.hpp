// Device-resident CSR graph: the four arrays the paper keeps in GPU global
// memory (adjp, adjncy, adjwgt, vwgt) plus upload/download helpers whose
// transfer bytes feed the cost model (Table II includes transfer time).
//
// The device copy is compact: every array is 32-bit, as in Metis 5, whose
// default `idx_t` GP-metis builds on.  The host CsrGraph keeps 64-bit
// offsets and weights; upload() narrows while staging and download()
// widens back, so only 32-bit words cross the bus.  The GPU drivers keep
// graphs that do not fit 32 bits off the device (`device_csr_fits`).
//
// Two host-known scalars ride along, so no kernel or read-back recomputes
// them per level: the total vertex weight (refinement's balance bounds)
// and the max degree (the gain cache's slab shape).
#pragma once

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "core/csr_graph.hpp"
#include "gpu/device_buffer.hpp"

namespace gp {

/// Host arrays of a CSR graph, or of one device's shard of a level (its
/// rows, whose adjncy holds the shard's slots).
struct HostCsr {
  std::span<const eid_t> adjp;
  std::span<const vid_t> adjncy;
  std::span<const wgt_t> adjwgt;
  std::span<const wgt_t> vwgt;

  HostCsr(std::span<const eid_t> adjp_, std::span<const vid_t> adjncy_,
          std::span<const wgt_t> adjwgt_, std::span<const wgt_t> vwgt_)
      : adjp(adjp_), adjncy(adjncy_), adjwgt(adjwgt_), vwgt(vwgt_) {}
  HostCsr(const CsrGraph& g)  // implicit: every graph is a host view
      : HostCsr(g.adjp(), g.adjncy(), g.adjwgt(), g.vwgt()) {}
};

struct GpuGraph {
  vid_t n = 0;
  eid_t m = 0;  ///< directed arcs
  /// Total vertex weight, known on the host from the upload.  Contraction
  /// only merges vertices, so every coarse level inherits it unchanged.
  wgt_t total_vwgt = 0;
  /// Largest vertex degree, known on the host like `total_vwgt`: upload()
  /// computes it while staging and gpu_contract's merge reduces it.  -1
  /// until one of them sets it.
  idx_t max_degree = -1;
  DeviceBuffer<idx_t> adjp;
  DeviceBuffer<vid_t> adjncy;
  DeviceBuffer<idx_t> adjwgt;
  DeviceBuffer<idx_t> vwgt;

  GpuGraph() = default;

  /// Allocates uninitialized device storage of the given shape.
  GpuGraph(Device& dev, vid_t n_, eid_t m_, const std::string& tag)
      : n(n_), m(m_),
        adjp(dev, static_cast<std::size_t>(n_) + 1, tag + "/adjp"),
        adjncy(dev, static_cast<std::size_t>(m_), tag + "/adjncy"),
        adjwgt(dev, static_cast<std::size_t>(m_), tag + "/adjwgt"),
        vwgt(dev, static_cast<std::size_t>(n_), tag + "/vwgt") {}

  /// Device bytes of a graph with `n` vertices and `m` arcs.
  [[nodiscard]] static std::size_t footprint(std::size_t n, std::size_t m) {
    return (n + 1) * sizeof(idx_t) + m * sizeof(vid_t) + m * sizeof(idx_t) +
           n * sizeof(idx_t);
  }

  [[nodiscard]] static GpuGraph upload(Device& dev, const HostCsr& g,
                                       const std::string& tag) {
    GpuGraph out(dev, static_cast<vid_t>(g.vwgt.size()),
                 static_cast<eid_t>(g.adjncy.size()), tag);
    out.total_vwgt = std::accumulate(g.vwgt.begin(), g.vwgt.end(), wgt_t{0});
    out.max_degree = 0;
    for (std::size_t v = 0; v + 1 < g.adjp.size(); ++v) {
      out.max_degree = std::max(
          out.max_degree, static_cast<idx_t>(g.adjp[v + 1] - g.adjp[v]));
    }
    out.adjp.h2d_narrow(g.adjp);
    out.adjncy.h2d(g.adjncy);
    out.adjwgt.h2d_narrow(g.adjwgt);
    out.vwgt.h2d_narrow(g.vwgt);
    return out;
  }

  [[nodiscard]] CsrGraph download() const {
    return CsrGraph(widen<eid_t>(adjp), adjncy.d2h_vector(),
                    widen<wgt_t>(adjwgt), widen<wgt_t>(vwgt));
  }

  [[nodiscard]] vid_t num_vertices() const { return n; }
  [[nodiscard]] eid_t num_edges() const { return m / 2; }

  [[nodiscard]] std::size_t bytes() const {
    return footprint(static_cast<std::size_t>(n), static_cast<std::size_t>(m));
  }

 private:
  /// Metered read-back of a compact array, widened to its host type.
  template <typename Wide>
  static std::vector<Wide> widen(const DeviceBuffer<idx_t>& b) {
    const auto narrow = b.d2h_vector();
    return std::vector<Wide>(narrow.begin(), narrow.end());
  }
};

/// Launch width of a kernel over `n` items: `n_threads`, at most one per
/// item, and at least one.
inline std::int64_t launch_width(std::int64_t n_threads, std::int64_t n) {
  return std::max<std::int64_t>(1, std::min<std::int64_t>(n_threads, n));
}

}  // namespace gp
