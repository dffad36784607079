// Two-round lock-free HEM matching (mt-metis' scheme, Section II-C of the
// paper): round 1 lets all threads read and write the shared match vector
// without synchronization — conflicts are possible and expected; round 2
// re-examines every vertex and self-matches the losers, restoring the
// involution invariant.  An optional owner-local 2-hop pass follows.
#pragma once

#include <cstdint>

#include "core/csr_graph.hpp"
#include "core/matching.hpp"
#include "mt/mt_context.hpp"

namespace gp {

struct MtMatchStats {
  std::uint64_t conflicts = 0;  ///< vertices self-matched in round 2
  vid_t matched_pairs = 0;
};

/// Lock-free two-round matching.  The returned match array is always a
/// valid involution; the cmap is built with a parallel prefix sum.  With
/// `two_hop_cap` > 0 each worker then runs two_hop_match() on its static
/// block, pairing at most that much vertex weight (two_hop_weight_cap).
[[nodiscard]] MatchResult mt_match(const CsrGraph& g, const MtContext& ctx,
                                   int level, MtMatchStats* stats = nullptr,
                                   wgt_t two_hop_cap = 0);

}  // namespace gp
