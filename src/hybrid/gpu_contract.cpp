#include "hybrid/gpu_contract.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "gpu/hash_table.hpp"
#include "gpu/scan.hpp"

namespace gp {

GpuGraph gpu_contract(Device& dev, const GpuGraph& fine,
                      const DeviceBuffer<vid_t>& match,
                      const DeviceBuffer<vid_t>& cmap, vid_t n_coarse,
                      int level, std::int64_t n_threads, bool use_hash,
                      GpuScanMode mode, GpuContractStats* stats) {
  const std::string L = "/L" + std::to_string(level);
  const vid_t* mt = match.data();
  const vid_t* cm = cmap.data();
  const eid_t* adjp = fine.adjp.data();
  const vid_t* adjncy = fine.adjncy.data();
  const wgt_t* adjwgt = fine.adjwgt.data();
  const wgt_t* vwgt = fine.vwgt.data();

  const std::int64_t T = std::max<std::int64_t>(
      1, std::min<std::int64_t>(n_threads, n_coarse));

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
  DeviceBuffer<eid_t> temp(dev, static_cast<std::size_t>(T) + 1, "temp" + L);
  eid_t* tp = temp.data();
  auto maxcount_body = [&](std::int64_t t) -> std::uint64_t {
    auto [cb, ce] = block(t);
    eid_t need = 0;
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

  // --- first prefix sum: temporary-array offsets per thread ---
  eid_t temp_total = 0;
  if (fused) {
    // One dispatch for the whole counting chain: leaders + maxcount +
    // single-pass scan1.
    dev.launch_fused("coarsen/contract/count" + L, [&](Device::Fused& f) {
      f.stage("leaders", T, leaders_body);
      f.stage("maxcount", T, maxcount_body);
      temp_total = lookback_scan_stage<eid_t>(
          dev, f, "scan1", static_cast<std::int64_t>(temp.size()),
          sizeof(eid_t), [&](std::int64_t i) { return tp[i]; },
          [&](std::int64_t i, eid_t inc, eid_t) { tp[i] = inc; });
    });
  } else {
    dev.launch("coarsen/contract/leaders" + L, T, leaders_body);
    dev.launch("coarsen/contract/maxcount" + L, T, maxcount_body);
    temp_total = device_inclusive_scan(dev, temp,
                                       "coarsen/contract/scan1" + L,
                                       GpuScanMode::kBlocked);
  }

  DeviceBuffer<vid_t> tadjncy(dev, static_cast<std::size_t>(temp_total),
                              "tadjncy" + L);
  DeviceBuffer<wgt_t> tadjwgt(dev, static_cast<std::size_t>(temp_total),
                              "tadjwgt" + L);
  DeviceBuffer<eid_t> cdeg(dev, static_cast<std::size_t>(n_coarse) + 1,
                           "cdeg" + L);
  DeviceBuffer<wgt_t> cvwgt(dev, static_cast<std::size_t>(n_coarse),
                            "cvwgt" + L);
  DeviceBuffer<eid_t> temp2(dev, static_cast<std::size_t>(T) + 1,
                            "temp2" + L);
  vid_t* ta = tadjncy.data();
  wgt_t* tw = tadjwgt.data();
  eid_t* cd = cdeg.data();
  wgt_t* cw = cvwgt.data();
  eid_t* tp2 = temp2.data();

  // --- merge kernel: contract each owned coarse vertex into the
  // temporary arrays; two strategies (paper Section III-A):
  //   sort-merge:  concatenate, quicksort, then "remove" duplicates
  //   hash-merge:  clustered hash table with chaining
  auto merge_body = [&](std::int64_t t) -> std::uint64_t {
    auto [cb, ce] = block(t);
    eid_t out = tp[t];  // start index from the first scan
    std::uint64_t work = 0;
    // Per-executor scratch: the table self-clears before each
    // coarse vertex and scratch before each use, so reuse
    // across logical threads and launches is free.
    thread_local ClusteredHashTable table(128);
    thread_local std::vector<std::pair<vid_t, wgt_t>> scratch;
    for (vid_t c = cb; c < ce; ++c) {
      const vid_t v = ld[c];
      const vid_t u = mt[v];
      cw[c] = vwgt[v] + (u != v ? vwgt[u] : 0);
      scratch.clear();
      auto absorb = [&](vid_t src) {
        for (eid_t j = adjp[src]; j < adjp[src + 1]; ++j) {
          const vid_t cu = cm[adjncy[j]];
          if (cu == c) continue;
          if (use_hash) {
            table.add(cu, adjwgt[j]);
          } else {
            scratch.emplace_back(cu, adjwgt[j]);
          }
          ++work;
        }
      };
      if (use_hash) table.clear();
      absorb(v);
      if (u != v) absorb(u);
      if (use_hash) {
        scratch.clear();
        table.for_each([&](vid_t k, wgt_t x) {
          scratch.emplace_back(k, x);
        });
        std::sort(scratch.begin(), scratch.end());
      } else {
        // quicksort + "remove" (merge adjacent duplicates).
        std::sort(scratch.begin(), scratch.end());
        work += scratch.size();  // sorting pass
        std::size_t o = 0;
        for (std::size_t i = 0; i < scratch.size();) {
          const vid_t k = scratch[i].first;
          wgt_t x = 0;
          while (i < scratch.size() && scratch[i].first == k) {
            x += scratch[i++].second;
          }
          scratch[o++] = {k, x};
        }
        scratch.resize(o);
      }
      cd[c + 1] = static_cast<eid_t>(scratch.size());
      for (const auto& [k, x] : scratch) {
        ta[out] = k;
        tw[out] = x;
        ++out;
      }
    }
    tp2[t + 1] = out - tp[t];  // actual entries used
    return work;
  };

  // --- second prefix sum (final offsets per thread) and cadjp from the
  // coarse degrees.  The per-coarse-vertex degrees must sum to exactly
  // the entries the merge kernel wrote — a cheap end-to-end invariant
  // over the whole two-scan pipeline.
  eid_t final_total = 0;
  eid_t check_total = 0;
  if (fused) {
    // One dispatch for the whole build chain: merge + scan2 + adjp scan.
    dev.launch_fused("coarsen/contract/build" + L, [&](Device::Fused& f) {
      f.stage("merge", T, merge_body);
      final_total = lookback_scan_stage<eid_t>(
          dev, f, "scan2", static_cast<std::int64_t>(temp2.size()),
          sizeof(eid_t), [&](std::int64_t i) { return tp2[i]; },
          [&](std::int64_t i, eid_t inc, eid_t) { tp2[i] = inc; });
      check_total = lookback_scan_stage<eid_t>(
          dev, f, "adjp", static_cast<std::int64_t>(cdeg.size()),
          sizeof(eid_t), [&](std::int64_t i) { return cd[i]; },
          [&](std::int64_t i, eid_t inc, eid_t) { cd[i] = inc; });
    });
  } else {
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
  // cdeg now IS the coarse adjp; move it into the result (device-side
  // pointer swap, no transfer).
  coarse.adjp = std::move(cdeg);
  coarse.vwgt = std::move(cvwgt);
  vid_t* fa = coarse.adjncy.data();
  wgt_t* fw = coarse.adjwgt.data();

  // --- compaction copy: each thread moves its used slots from the
  // temporary arrays to the final arrays using temp and temp2 ---
  dev.launch("coarsen/contract/copy" + L, T,
             [&](std::int64_t t) -> std::uint64_t {
               const eid_t src0 = tp[t];
               const eid_t dst0 = tp2[t];
               const eid_t cnt = tp2[t + 1] - tp2[t];
               for (eid_t i = 0; i < cnt; ++i) {
                 fa[dst0 + i] = ta[src0 + i];
                 fw[dst0 + i] = tw[src0 + i];
               }
               return static_cast<std::uint64_t>(cnt);
             });

  if (stats) {
    stats->temp_entries = static_cast<std::uint64_t>(temp_total);
    stats->final_entries = static_cast<std::uint64_t>(final_total);
  }
  // temp, temp2, tadjncy, tadjwgt, leaders free on scope exit — the paper
  // notes the same: "at the end of the contraction step, we can free the
  // temp arrays, so there is no extra memory overhead".
  return coarse;
}

}  // namespace gp
