// Compressed Sparse Row graph — the central data structure of every
// partitioner in this library (the paper stores exactly this layout in GPU
// global memory: adjp / adjncy / adjwgt / vwgt).
//
// Conventions:
//  * Undirected graphs are stored symmetrically: every edge {u,v} appears
//    as two arcs (u->v) and (v->u) with equal weight.
//  * No self-loops, no parallel arcs (the builder and contraction both
//    merge duplicates).
//  * `adjp` has n+1 entries; arcs of v live in [adjp[v], adjp[v+1]).
#pragma once

#include <cassert>
#include <span>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace gp {

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Takes ownership of fully-formed CSR arrays.  `validate()` is the
  /// caller's friend after hand-building.
  CsrGraph(std::vector<eid_t> adjp, std::vector<vid_t> adjncy,
           std::vector<wgt_t> adjwgt, std::vector<wgt_t> vwgt)
      : adjp_(std::move(adjp)),
        adjncy_(std::move(adjncy)),
        adjwgt_(std::move(adjwgt)),
        vwgt_(std::move(vwgt)) {}

  [[nodiscard]] vid_t num_vertices() const {
    return static_cast<vid_t>(vwgt_.size());
  }
  /// Number of directed arcs (= 2 * undirected edges).
  [[nodiscard]] eid_t num_arcs() const {
    return static_cast<eid_t>(adjncy_.size());
  }
  /// Number of undirected edges.
  [[nodiscard]] eid_t num_edges() const { return num_arcs() / 2; }

  [[nodiscard]] eid_t degree(vid_t v) const {
    return adjp_[static_cast<std::size_t>(v) + 1] -
           adjp_[static_cast<std::size_t>(v)];
  }

  [[nodiscard]] std::span<const vid_t> neighbors(vid_t v) const {
    return {adjncy_.data() + adjp_[static_cast<std::size_t>(v)],
            static_cast<std::size_t>(degree(v))};
  }
  [[nodiscard]] std::span<const wgt_t> neighbor_weights(vid_t v) const {
    return {adjwgt_.data() + adjp_[static_cast<std::size_t>(v)],
            static_cast<std::size_t>(degree(v))};
  }

  [[nodiscard]] wgt_t vertex_weight(vid_t v) const {
    return vwgt_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] wgt_t total_vertex_weight() const;
  /// Sum of adjwgt over all arcs (each undirected edge counted twice).
  [[nodiscard]] wgt_t total_arc_weight() const;

  // Raw array access (the GPU kernels and contraction code index these
  // directly, exactly like the paper's CUDA kernels do).
  [[nodiscard]] const std::vector<eid_t>& adjp() const { return adjp_; }
  [[nodiscard]] const std::vector<vid_t>& adjncy() const { return adjncy_; }
  [[nodiscard]] const std::vector<wgt_t>& adjwgt() const { return adjwgt_; }
  [[nodiscard]] const std::vector<wgt_t>& vwgt() const { return vwgt_; }

  std::vector<wgt_t>& mutable_adjwgt() { return adjwgt_; }
  std::vector<wgt_t>& mutable_vwgt() { return vwgt_; }

  /// Structural validation: array lengths, sorted-free but in-range
  /// adjacency, symmetry with matching weights, no self-loops, no
  /// duplicate neighbours, positive weights.  Returns an empty string on
  /// success, otherwise a description of the first violation.
  [[nodiscard]] std::string validate() const;

  /// Approximate resident bytes of the four CSR arrays.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  std::vector<eid_t> adjp_;    ///< n+1 offsets
  std::vector<vid_t> adjncy_;  ///< 2|E| neighbour ids
  std::vector<wgt_t> adjwgt_;  ///< 2|E| arc weights
  std::vector<wgt_t> vwgt_;    ///< n vertex weights
};

/// Incremental builder: add undirected edges in any order, duplicates are
/// merged (weights summed), self-loops dropped; `build()` emits CSR.
class GraphBuilder {
 public:
  explicit GraphBuilder(vid_t num_vertices, wgt_t default_vwgt = 1);

  void set_vertex_weight(vid_t v, wgt_t w);
  /// Adds undirected edge {u,v} with weight w.  u == v is ignored.
  void add_edge(vid_t u, vid_t v, wgt_t w = 1);

  [[nodiscard]] vid_t num_vertices() const {
    return static_cast<vid_t>(vwgt_.size());
  }

  /// Builds the CSR graph.  The builder is left empty.
  CsrGraph build();

 private:
  struct HalfEdge {
    vid_t to;
    wgt_t w;
  };
  std::vector<std::vector<HalfEdge>> adj_;
  std::vector<wgt_t>                 vwgt_;
};

}  // namespace gp
