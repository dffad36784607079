#include "hybrid/gpu_contract.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/matching.hpp"
#include "gpu/device_atomics.hpp"
#include "gpu/scan.hpp"

namespace gp {

GpuGraph gpu_contract(Device& dev, const GpuGraph& fine,
                      const DeviceBuffer<vid_t>& match,
                      const DeviceBuffer<vid_t>& cmap, vid_t n_coarse,
                      int level, std::int64_t n_threads, bool use_hash,
                      GpuScanMode mode, GpuContractStats* stats,
                      const GpuShardCmap& shard) {
  const std::string L = "/L" + std::to_string(level);
  const vid_t* mt = match.data();
  const vid_t* cm = cmap.data();
  const idx_t* adjp = fine.adjp.data();
  const vid_t* adjncy = fine.adjncy.data();
  const idx_t* adjwgt = fine.adjwgt.data();
  const idx_t* vwgt = fine.vwgt.data();

  const std::int64_t T = launch_width(n_threads, n_coarse);

  const bool fused = (mode == GpuScanMode::kLookback);

  // leaders[c]: fine leader of coarse vertex c (coalesced write pattern:
  // leaders appear in increasing vertex order with increasing labels).
  DeviceBuffer<vid_t> leaders(dev, static_cast<std::size_t>(n_coarse),
                              "leaders" + L);
  vid_t* ld = leaders.data();
  auto leaders_body = [&](std::int64_t t) -> std::uint64_t {
    std::uint64_t work = 0;
    for (vid_t v = static_cast<vid_t>(t); v < fine.n;
         v += static_cast<vid_t>(T)) {
      if (v <= mt[v]) ld[cm[v]] = v;
      ++work;
    }
    return work;
  };

  // Thread t owns the contiguous block of coarse vertices [cb(t), ce(t)).
  auto block = [&](std::int64_t t) {
    const std::int64_t chunk = n_coarse / T, rem = n_coarse % T;
    const std::int64_t b = t * chunk + std::min<std::int64_t>(t, rem);
    return std::pair<vid_t, vid_t>(
        static_cast<vid_t>(b),
        static_cast<vid_t>(b + chunk + (t < rem ? 1 : 0)));
  };

  // --- kernel: per-thread maximum entries (temp) ---
  // Fresh pool buffers arrive zero-filled (the cudaMalloc-the-simulated-
  // way contract), so no fill kernels are spent on temp/temp2/cdeg.
  DeviceBuffer<idx_t> temp(dev, static_cast<std::size_t>(T) + 1, "temp" + L);
  idx_t* tp = temp.data();
  auto maxcount_body = [&](std::int64_t t) -> std::uint64_t {
    auto [cb, ce] = block(t);
    idx_t need = 0;
    std::uint64_t work = 0;
    for (vid_t c = cb; c < ce; ++c) {
      const vid_t v = ld[c];
      const vid_t u = mt[v];
      need += adjp[v + 1] - adjp[v];
      if (u != v) need += adjp[u + 1] - adjp[u];
      ++work;
    }
    tp[t + 1] = need;
    return work;
  };

  // Every fine vertex is the leader or the mate of exactly one coarse
  // vertex, so the first scan's total is the fine arc count.  The
  // temporary arrays are sized from it up front: counting and merging run
  // in one dispatch with no host round trip between them.
  DeviceBuffer<vid_t> tadjncy(dev, static_cast<std::size_t>(fine.m),
                              "tadjncy" + L);
  DeviceBuffer<idx_t> tadjwgt(dev, static_cast<std::size_t>(fine.m),
                              "tadjwgt" + L);
  DeviceBuffer<idx_t> cdeg(dev, static_cast<std::size_t>(n_coarse) + 1,
                           "cdeg" + L);
  DeviceBuffer<idx_t> cvwgt(dev, static_cast<std::size_t>(n_coarse),
                            "cvwgt" + L);
  DeviceBuffer<idx_t> temp2(dev, static_cast<std::size_t>(T) + 1,
                            "temp2" + L);
  vid_t* ta = tadjncy.data();
  idx_t* tw = tadjwgt.data();
  idx_t* cd = cdeg.data();
  idx_t* cw = cvwgt.data();
  idx_t* tp2 = temp2.data();

  // --- merge kernel: contract each owned coarse vertex into the
  // temporary arrays.  The paper's two strategies (Section III-A) differ
  // only in the charge: hash-merge (clustered hash table with chaining)
  // takes a unit per absorbed arc, sort-merge (concatenate, quicksort,
  // "remove" duplicates) one more per arc for the sorting pass.  Both
  // emit each row sorted by coarse id, which is what the host computes
  // with merge_coarse_row's dense accumulator, as every CPU contraction
  // does (DESIGN.md §3.1).
  // It writes every coarse degree, so it also reduces their maximum into
  // a host-visible cell, as the scans publish their totals: the coarse
  // graph's max degree is known on the host without a kernel or a copy.
  // On a shard, a halo arc's coarse slot is its entry of the halo table.
  idx_t max_degree = 0;
  const vid_t n = fine.n;
  const std::size_t slots =
      static_cast<std::size_t>(n_coarse) + shard.halo.size();
  auto merge_body = [&](std::int64_t t) -> std::uint64_t {
    auto [cb, ce] = block(t);
    idx_t out = tp[t];  // start index from the first scan
    idx_t local_max = 0;
    std::uint64_t work = 0;
    auto coarse_of = [&](vid_t x) -> vid_t {
      return x < n ? cm[x] : shard.halo[static_cast<std::size_t>(x - n)];
    };
    // Per-executor scratch: merge_coarse_row leaves `slot` all-unused
    // after every row, so reuse across logical threads and launches only
    // ever grows it.
    thread_local std::vector<vid_t> slot;
    thread_local std::vector<std::pair<vid_t, wgt_t>> row;
    if (slot.size() < slots) slot.resize(slots, kInvalidVid);
    for (vid_t c = cb; c < ce; ++c) {
      const vid_t v = ld[c];
      const vid_t u = mt[v];
      cw[c] = vwgt[v] + (u != v ? vwgt[u] : 0);
      const std::uint64_t absorbed =
          merge_coarse_row(adjp, adjncy, adjwgt, coarse_of, v, u, c,
                           slot.data(), row);
      work += use_hash ? absorbed : 2 * absorbed;
      const auto deg = static_cast<idx_t>(row.size());
      cd[c + 1] = deg;
      local_max = std::max(local_max, deg);
      for (const auto& [k, x] : row) {
        ta[out] = k;
        tw[out] = static_cast<idx_t>(x);  // <= total arc weight: fits
        ++out;
      }
    }
    tp2[t + 1] = out - tp[t];  // actual entries used
    atomic_max(max_degree, local_max);
    return work;
  };

  // A first-scan total other than the fine arc count means the cmap or
  // the match is inconsistent (a leader lost or duplicated): stop before
  // the merge writes a slot.
  auto check_first_scan = [&](idx_t temp_total) {
    if (static_cast<eid_t>(temp_total) != fine.m) {
      throw std::logic_error(
          "gpu_contract: first scan total (" + std::to_string(temp_total) +
          ") != fine arc count (" + std::to_string(fine.m) +
          "): inconsistent cmap or match");
    }
  };

  // --- second prefix sum (final offsets per thread) and cadjp from the
  // coarse degrees.  The per-coarse-vertex degrees must sum to exactly
  // the entries the merge kernel wrote — a cheap end-to-end invariant
  // over the whole two-scan pipeline.
  idx_t final_total = 0;
  idx_t check_total = 0;
  if (fused) {
    // One dispatch for the whole chain: leaders + maxcount + scan1 +
    // merge + scan2 + adjp scan.
    dev.launch_fused("coarsen/contract/build" + L, [&](Device::Fused& f) {
      f.stage("leaders", T, leaders_body);
      f.stage("maxcount", T, maxcount_body);
      check_first_scan(lookback_scan_stage<idx_t>(
          f, "scan1", static_cast<std::int64_t>(temp.size()),
          sizeof(idx_t), [&](std::int64_t i) { return tp[i]; },
          [&](std::int64_t i, idx_t inc, idx_t) { tp[i] = inc; }));
      f.stage("merge", T, merge_body);
      final_total = lookback_scan_stage<idx_t>(
          f, "scan2", static_cast<std::int64_t>(temp2.size()),
          sizeof(idx_t), [&](std::int64_t i) { return tp2[i]; },
          [&](std::int64_t i, idx_t inc, idx_t) { tp2[i] = inc; });
      check_total = lookback_scan_stage<idx_t>(
          f, "adjp", static_cast<std::int64_t>(cdeg.size()),
          sizeof(idx_t), [&](std::int64_t i) { return cd[i]; },
          [&](std::int64_t i, idx_t inc, idx_t) { cd[i] = inc; });
    });
  } else {
    dev.launch("coarsen/contract/leaders" + L, T, leaders_body);
    dev.launch("coarsen/contract/maxcount" + L, T, maxcount_body);
    check_first_scan(device_inclusive_scan(
        dev, temp, "coarsen/contract/scan1" + L, GpuScanMode::kBlocked));
    dev.launch("coarsen/contract/merge" + L, T, merge_body);
    final_total = device_inclusive_scan(dev, temp2,
                                        "coarsen/contract/scan2" + L,
                                        GpuScanMode::kBlocked);
    check_total = device_inclusive_scan(dev, cdeg,
                                        "coarsen/contract/adjp" + L,
                                        GpuScanMode::kBlocked);
  }
  if (check_total != final_total) {
    throw std::logic_error(
        "gpu_contract: degree sum (" + std::to_string(check_total) +
        ") != compacted entries (" + std::to_string(final_total) + ")");
  }

  GpuGraph coarse(dev, n_coarse, final_total, "G" + std::to_string(level + 1));
  coarse.total_vwgt = fine.total_vwgt;  // contraction only merges
  coarse.max_degree = max_degree;
  // cdeg now IS the coarse adjp; move it into the result (device-side
  // pointer swap, no transfer).
  coarse.adjp = std::move(cdeg);
  coarse.vwgt = std::move(cvwgt);
  vid_t* fa = coarse.adjncy.data();
  idx_t* fw = coarse.adjwgt.data();

  // --- compaction copy: each thread moves its used slots from the
  // temporary arrays to the final arrays using temp and temp2.  A
  // thread's slots are one contiguous run in each array, so the warp
  // copies it cooperatively in 128-byte transactions (DESIGN.md §3.1),
  // plus one for the unaligned start.
  dev.launch("coarsen/contract/copy" + L, T,
             [&](std::int64_t t) -> std::uint64_t {
               const idx_t src0 = tp[t];
               const idx_t dst0 = tp2[t];
               const idx_t cnt = tp2[t + 1] - tp2[t];
               for (idx_t i = 0; i < cnt; ++i) {
                 fa[dst0 + i] = ta[src0 + i];
                 fw[dst0 + i] = tw[src0 + i];
               }
               const auto bytes = static_cast<std::uint64_t>(cnt) *
                                  (sizeof(vid_t) + sizeof(idx_t));
               return cnt > 0 ? (bytes + 127) / 128 + 1 : 0;
             });

  if (stats) {
    stats->temp_entries = static_cast<std::uint64_t>(tadjncy.size());
    stats->final_entries = static_cast<std::uint64_t>(final_total);
  }
  // temp, temp2, tadjncy, tadjwgt, leaders free on scope exit — the paper
  // notes the same: "at the end of the contraction step, we can free the
  // temp arrays, so there is no extra memory overhead".
  return coarse;
}

}  // namespace gp
