// The V-cycle steps the host backends share (DESIGN.md §3.11), written
// once over a block runner.  metis, mt-metis and parmetis run the same
// multilevel scheme and differ only in how a step's vertices are split
// (one core, T threads, P ranks) and how the step is charged; a
// BlockRunner is exactly that difference.  The gain-cache build, the
// gain-cache projection and the coarse-row merge of a contraction run on
// top of it, so each backend supplies its runner, its ledger labels and,
// for a contraction, its leader order.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/csr_graph.hpp"
#include "core/gain_cache.hpp"
#include "model/machine_model.hpp"
#include "util/types.hpp"

namespace gp {

/// One block of a step: body(block, b, e) runs the items [b, e) of block
/// `block` and returns the work units it spent.
using BlockBody = std::function<std::uint64_t(int, vid_t, vid_t)>;

/// How a host system runs one step: `run(label, n, body)` runs `body` over
/// [0, n) split into blocks() blocks and charges `label` with their work
/// the way that system charges a pass.  An empty block may or may not see
/// a call; either way it spends nothing.
class BlockRunner {
 public:
  virtual ~BlockRunner() = default;
  [[nodiscard]] virtual int blocks() const = 0;
  virtual void run(const std::string& label, vid_t n,
                   const BlockBody& body) const = 0;
};

/// metis's runner: one block, charged with charge_serial into `ledger`
/// (nullable: nothing is charged).
class SerialRunner final : public BlockRunner {
 public:
  explicit SerialRunner(CostLedger* ledger) : ledger_(ledger) {}
  [[nodiscard]] int blocks() const override { return 1; }
  void run(const std::string& label, vid_t n,
           const BlockBody& body) const override {
    const std::uint64_t work = body(0, 0, n);
    if (ledger_) ledger_->charge_serial(label, work);
  }

 private:
  CostLedger* ledger_;
};

/// `cache` = the gain cache of `where` over `g` with `k` parts: each block
/// fills its vertices, and the blocks' external-degree sums make the
/// cache's cut total.  Spends deg(v) + 1 per vertex.
void build_gain_cache(const BlockRunner& run, const std::string& label,
                      const CsrGraph& g, const std::vector<part_t>& where,
                      part_t k, GainCache& cache);

/// The fine level's gain cache projected from the coarse level's through
/// `cmap` (GainCache::project_range per block).
[[nodiscard]] GainCache project_gain_cache(
    const BlockRunner& run, const std::string& label, const GainCache& coarse,
    const CsrGraph& fine, const std::vector<part_t>& fine_where,
    const std::vector<vid_t>& cmap, part_t k);

/// The coarse rows of one contraction, built block by block.  Each block
/// walks its leader pairs in its system's leader order and appends their
/// rows to its own arc buffers; a row's vertex weight and degree land in
/// the level-wide `vwgt` and `deg`.  A block's rows must be its coarse
/// ids in ascending order, and the blocks must follow one another, for
/// stitch() to make a well-formed CSR.
struct CoarseRows {
  /// One block's arcs, in row order, plus its merge scratch; a cache line
  /// of its own, since blocks append concurrently.
  struct alignas(64) Block {
    std::vector<vid_t> adjncy;
    std::vector<wgt_t> adjwgt;
    std::vector<vid_t> slot;  ///< merge_coarse_row's accumulator
    std::vector<std::pair<vid_t, wgt_t>> row;
  };

  CoarseRows(vid_t n_coarse, int blocks)
      : n_coarse(n_coarse),
        deg(static_cast<std::size_t>(n_coarse) + 1, 0),
        vwgt(static_cast<std::size_t>(n_coarse), 0),
        out(static_cast<std::size_t>(blocks)) {}

  /// Coarse row c of block `block` from leader v and its partner m
  /// (m == v for a singleton): the pair's vertex weight, merge_coarse_row
  /// through `cmap`, the row's degree, and its arcs appended to the block.
  /// Returns the fine arcs read, deg(v) + deg(m).
  std::uint64_t merge(const CsrGraph& fine, const std::vector<vid_t>& cmap,
                      int block, vid_t v, vid_t m, vid_t c);

  /// The serial stitch: degrees prefix-summed into offsets, block arcs
  /// concatenated in block order.
  [[nodiscard]] CsrGraph stitch();

  vid_t n_coarse;
  std::vector<eid_t> deg;   ///< n_coarse + 1; row c's degree at c + 1
  std::vector<wgt_t> vwgt;  ///< n_coarse
  std::vector<Block> out;   ///< one per block
};

}  // namespace gp
