// Contiguous vertex-block distribution of one level's graph over the
// executors of a distributed driver (ParMetis ranks, gp-metis-multi
// devices): block r owns global ids [vtxdist[r], vtxdist[r+1]).  Both
// drivers number coarse vertices block by block, so a coarse level's
// distribution is built from the per-block coarse counts.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace gp {

struct Distribution {
  std::vector<vid_t> vtxdist;  ///< blocks + 1 offsets

  /// The block owning global id v (an empty block owns nothing).
  [[nodiscard]] int owner(vid_t v) const {
    // vtxdist is small (blocks+1): linear scan beats binary search here.
    for (std::size_t r = 1; r < vtxdist.size(); ++r) {
      if (v < vtxdist[r]) return static_cast<int>(r - 1);
    }
    return static_cast<int>(vtxdist.size()) - 2;
  }
  [[nodiscard]] vid_t begin(int r) const {
    return vtxdist[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] vid_t end(int r) const {
    return vtxdist[static_cast<std::size_t>(r) + 1];
  }

  /// n vertices split into `blocks` near-equal contiguous blocks.
  [[nodiscard]] static Distribution block(vid_t n, int blocks) {
    Distribution d;
    d.vtxdist.resize(static_cast<std::size_t>(blocks) + 1);
    for (int r = 0; r <= blocks; ++r) {
      d.vtxdist[static_cast<std::size_t>(r)] = static_cast<vid_t>(
          (static_cast<std::int64_t>(n) * r) / blocks);
    }
    return d;
  }

  /// Block r holds counts[r] vertices, blocks laid out in order.
  [[nodiscard]] static Distribution from_counts(
      const std::vector<vid_t>& counts) {
    Distribution d;
    d.vtxdist.assign(counts.size() + 1, 0);
    for (std::size_t r = 0; r < counts.size(); ++r) {
      d.vtxdist[r + 1] = d.vtxdist[r] + counts[r];
    }
    return d;
  }
};

}  // namespace gp
