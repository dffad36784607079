// Partition representation and quality metrics.
//
// A partition of graph G into k parts is a vector `where` of length n with
// where[v] in [0, k).  The metrics here are the ones the paper reports:
// edge cut (Table III is edge-cut ratio vs Metis) and balance (the paper
// fixes the imbalance tolerance at 3%).
#pragma once

#include <algorithm>
#include <atomic>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/csr_graph.hpp"
#include "gpu/device_atomics.hpp"
#include "util/types.hpp"

namespace gp {

struct Partition {
  part_t              k = 0;
  std::vector<part_t> where;  ///< partition id per vertex

  [[nodiscard]] bool empty() const { return where.empty(); }
};

/// Sum of weights of edges whose endpoints lie in different parts.
[[nodiscard]] wgt_t edge_cut(const CsrGraph& g, const Partition& p);

/// Weight of each part.
[[nodiscard]] std::vector<wgt_t> partition_weights(const CsrGraph& g,
                                                   const Partition& p);

/// max part weight / ideal part weight.  1.0 = perfect.  The balance
/// constraint used throughout the library is `balance <= 1 + eps` with
/// eps = 0.03 as in the paper.
[[nodiscard]] double partition_balance(const CsrGraph& g, const Partition& p);

/// Total communication volume (sum over vertices of #distinct foreign parts among
/// neighbours) — an auxiliary quality metric used by tests and examples.
[[nodiscard]] wgt_t communication_volume(const CsrGraph& g,
                                         const Partition& p);

/// Number of boundary vertices (vertices with at least one neighbour in a
/// different part).
[[nodiscard]] vid_t boundary_size(const CsrGraph& g, const Partition& p);

/// Structural validation: size, k, range.  Empty string on success.
[[nodiscard]] std::string validate_partition(const CsrGraph& g,
                                             const Partition& p);
/// The same check against a vertex count, for labels of a graph the
/// caller does not hold on the host.
[[nodiscard]] std::string validate_partition(vid_t n, const Partition& p);

/// Structural validation plus verification of stored result fields: the
/// `cut` and `balance` a PartitionResult carries must match recomputation
/// from (g, p).  Catches metric drift a corrupted or buggy driver would
/// otherwise hand to the caller.  Empty string on success.
[[nodiscard]] std::string validate_partition(const CsrGraph& g,
                                             const Partition& p,
                                             wgt_t stored_cut,
                                             double stored_balance);

/// Maximum allowed part weight for tolerance eps (paper: eps = 0.03).
[[nodiscard]] wgt_t max_part_weight(wgt_t total_weight, part_t k, double eps);

/// Minimum allowed part weight (used by refinement to avoid underweighting
/// the source part, as the paper's destination-selection rule requires).
/// Never below 1: a refinement move may not drain a part empty.
[[nodiscard]] wgt_t min_part_weight(wgt_t total_weight, part_t k, double eps);

/// One executor's proposal to move v from part `from` to part `to`.
struct MoveProposal {
  vid_t  v;
  part_t from, to;
  wgt_t  gain;
};

/// The commit step of pass-committed refinement (ParMetis ranks, the
/// devices of a sharded gp-metis level): replays the gathered proposals in
/// one global order, gain descending then vertex ascending, against the
/// part weights `pw`, with vwgt[v] the weight of proposer v.  A move is
/// admitted when its destination stays at or below max_pw and its source
/// at or above min_pw; an overweight source may drain below min_pw.  `pw`
/// is updated for every admitted move.  Returns the admitted moves in
/// commit order, which refine_pass_committed hands to its caller.
[[nodiscard]] std::vector<MoveProposal> replay_moves(
    std::span<const wgt_t> vwgt, std::vector<MoveProposal> moves,
    std::vector<wgt_t>& pw, wgt_t max_pw, wgt_t min_pw);

/// The pass loop of pass-committed refinement (ParMetis ranks, the
/// devices of a sharded gp-metis level).  Pass i runs `propose(i, upward)`
/// for the pass's proposals, upward on even passes and downward on odd
/// ones; commits them through replay_moves against the part weights `pw`
/// (`vwgt` as there, read after the proposals); and hands the committed
/// moves to `apply(i, moves)`.  Both directions must go idle before
/// stopping: the loop ends after `max_passes` passes or two idle passes
/// in a row.  Returns the number of passes run.
template <typename Propose, typename Apply>
int refine_pass_committed(std::span<const wgt_t> vwgt, std::vector<wgt_t>& pw,
                          wgt_t max_pw, wgt_t min_pw, int max_passes,
                          Propose&& propose, Apply&& apply) {
  int pass = 0;
  for (int idle = 0; pass < max_passes && idle < 2; ++pass) {
    std::vector<MoveProposal> moves = replay_moves(
        vwgt, propose(pass, pass % 2 == 0), pw, max_pw, min_pw);
    idle = moves.empty() ? idle + 1 : 0;
    apply(pass, std::move(moves));
  }
  return pass;
}

/// What one commit_requests call did with part q's requests.
struct CommitTally {
  std::uint64_t scanned = 0;
  std::uint64_t committed = 0;
  std::uint64_t rejected = 0;  ///< by the destination or source bound
};

/// The commit step of lock-free buffered refinement (mt-metis's and
/// gp-metis's explore kernels; DESIGN.md §2).  The executor owning part q
/// sorts q's requests [first, last) by gain, descending, and admits each
/// request r of weight `weight_of(r)` that keeps pw[q] <= max_pw and
/// pw[r.from] >= min_pw: its weight moves, where[r.v] = q, and it goes to
/// `sink(r)`.  Other executors drain part q as a source concurrently, so
/// the destination bound is a racy_load and the source is reserved by
/// compare-exchange.
template <typename Request, typename WeightOf, typename Sink>
CommitTally commit_requests(Request* first, Request* last, part_t q,
                            wgt_t* pw, part_t* where, wgt_t max_pw,
                            wgt_t min_pw, WeightOf&& weight_of, Sink&& sink) {
  std::sort(first, last, [](const Request& a, const Request& b) {
    return a.gain > b.gain;
  });
  CommitTally tally;
  tally.scanned = static_cast<std::uint64_t>(last - first);
  for (Request* r = first; r != last; ++r) {
    const wgt_t vw = weight_of(*r);
    if (racy_load(pw[q]) + vw > max_pw) {
      ++tally.rejected;
      continue;
    }
    std::atomic_ref<wgt_t> src(pw[r->from]);
    wgt_t cur = src.load(std::memory_order_relaxed);
    while (cur - vw >= min_pw &&
           !src.compare_exchange_weak(cur, cur - vw,
                                      std::memory_order_relaxed)) {
    }
    if (cur - vw < min_pw) {
      ++tally.rejected;
      continue;
    }
    atomic_add(pw[q], vw);
    racy_store(where[r->v], q);
    ++tally.committed;
    sink(*r);
  }
  return tally;
}

}  // namespace gp
