// Gmetis-style speculative matching (paper Background II-C: "Gmetis
// extended a version of Metis to a multicore platform using the Galois
// programming model ... a sequential object-oriented programming model
// that supports parallel set iterators").
//
// Matching runs as speculative parallel operators over the vertex
// worklist — each transaction locks a vertex and its chosen mate,
// aborting on conflict — instead of the lock-free two-round repair
// GP-metis and mt-metis use.  bench/abl_speculative compares the two.
#pragma once

#include "core/csr_graph.hpp"
#include "core/matching.hpp"
#include "galois/speculative.hpp"
#include "util/thread_pool.hpp"

namespace gp {

struct GmetisMatchStats {
  SpeculativeEngine::Stats spec;
  std::uint64_t work_units = 0;
};

/// Speculative HEM matching: one transaction per vertex, locking the
/// vertex and its heaviest free neighbour.  Always yields a valid
/// involution (transactions are atomic — no repair round needed).
[[nodiscard]] MatchResult gmetis_match(const CsrGraph& g, ThreadPool& pool,
                                       std::uint64_t seed,
                                       GmetisMatchStats* stats = nullptr);

}  // namespace gp
