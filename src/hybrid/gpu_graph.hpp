// Device-resident CSR graph: the four arrays the paper keeps in GPU global
// memory (adjp, adjncy, adjwgt, vwgt) plus upload/download helpers whose
// transfer bytes feed the cost model (Table II includes transfer time).
#pragma once

#include <span>

#include "core/csr_graph.hpp"
#include "gpu/device_buffer.hpp"

namespace gp {

/// Host arrays of a CSR graph, or of one device's shard of a level (local
/// rows whose adjncy keeps global ids).
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
  DeviceBuffer<eid_t> adjp;
  DeviceBuffer<vid_t> adjncy;
  DeviceBuffer<wgt_t> adjwgt;
  DeviceBuffer<wgt_t> vwgt;

  GpuGraph() = default;

  /// Allocates uninitialized device storage of the given shape.
  GpuGraph(Device& dev, vid_t n_, eid_t m_, const std::string& tag)
      : n(n_), m(m_),
        adjp(dev, static_cast<std::size_t>(n_) + 1, tag + "/adjp"),
        adjncy(dev, static_cast<std::size_t>(m_), tag + "/adjncy"),
        adjwgt(dev, static_cast<std::size_t>(m_), tag + "/adjwgt"),
        vwgt(dev, static_cast<std::size_t>(n_), tag + "/vwgt") {}

  [[nodiscard]] static GpuGraph upload(Device& dev, const HostCsr& g,
                                       const std::string& tag) {
    GpuGraph out(dev, static_cast<vid_t>(g.vwgt.size()),
                 static_cast<eid_t>(g.adjncy.size()), tag);
    out.adjp.h2d(g.adjp);
    out.adjncy.h2d(g.adjncy);
    out.adjwgt.h2d(g.adjwgt);
    out.vwgt.h2d(g.vwgt);
    return out;
  }

  [[nodiscard]] CsrGraph download() const {
    return CsrGraph(adjp.d2h_vector(), adjncy.d2h_vector(),
                    adjwgt.d2h_vector(), vwgt.d2h_vector());
  }

  [[nodiscard]] std::size_t bytes() const {
    return adjp.size() * sizeof(eid_t) + adjncy.size() * sizeof(vid_t) +
           adjwgt.size() * sizeof(wgt_t) + vwgt.size() * sizeof(wgt_t);
  }
};

}  // namespace gp
