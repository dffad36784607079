#include "hybrid/gpu_refine.hpp"

#include <algorithm>
#include <limits>

#include "gpu/device_atomics.hpp"

namespace gp {

void gpu_project(Device& dev, const DeviceBuffer<vid_t>& cmap,
                 const DeviceBuffer<part_t>& where_coarse,
                 DeviceBuffer<part_t>& where_fine, int level,
                 std::int64_t n_threads) {
  const auto n = static_cast<vid_t>(cmap.size());
  const vid_t* cm = cmap.data();
  const part_t* wc = where_coarse.data();
  part_t* wf = where_fine.data();
  const std::int64_t T =
      std::max<std::int64_t>(1, std::min<std::int64_t>(n_threads, n));
  dev.launch("uncoarsen/project/L" + std::to_string(level), T,
             [&](std::int64_t t) -> std::uint64_t {
               std::uint64_t work = 0;
               for (vid_t v = static_cast<vid_t>(t); v < n;
                    v += static_cast<vid_t>(T)) {
                 wf[v] = wc[cm[v]];
                 ++work;
               }
               return work;
             });
}

namespace {

struct GpuMoveRequest {
  vid_t  v;
  part_t from;
  wgt_t  gain;
  wgt_t  vw;
};

/// The call's device-side counters: accumulated across passes by the
/// kernels and read back as one packed record when the call ends.
struct GpuRefineTally {
  std::uint64_t committed;
  int proposed;
  int dropped;
};

/// One pass's verdict from the lookback dispatch's stop stage.  Kernel
/// control reads it on the device, so it is never read back.
struct GpuStopFlags {
  int committed;
  int overweight;
};

}  // namespace

GpuRefineStats gpu_refine(Device& dev, const GpuGraph& g,
                          DeviceBuffer<part_t>& where, part_t k, double eps,
                          int max_passes, int level, std::int64_t n_threads,
                          GpuGainCache* cache, DeviceBuffer<wgt_t>* pw_io,
                          GpuScanMode mode) {
  GpuRefineStats stats;
  const vid_t n = g.n;
  const std::string L = "/L" + std::to_string(level);
  const idx_t* adjp = g.adjp.data();
  const vid_t* adjncy = g.adjncy.data();
  const idx_t* adjwgt = g.adjwgt.data();
  const idx_t* vwgt = g.vwgt.data();
  part_t* wh = where.data();

  const std::int64_t T =
      std::max<std::int64_t>(1, std::min<std::int64_t>(n_threads, n));

  // Gain cache: the propose kernel reads per-vertex connectivity from it
  // instead of rescanning neighbourhoods; the explore kernel keeps it
  // exact-or-dirty with atomic deltas.  The driver normally passes the
  // cache it carries across levels; a null cache is built here.
  GpuGainCache local_cache;
  if (cache == nullptr) {
    local_cache = GpuGainCache::build(dev, g, where, k,
                                      "uncoarsen/gaincache" + L, T, mode);
    cache = &local_cache;
  }
  const GpuGainCacheView cv = cache->view();

  // Partition weights live on the device across passes — and, when the
  // driver passes `pw_io`, across levels: projection maps every fine
  // vertex to its parent's part, so per-part weight sums are invariant at
  // level transitions and the per-level recount kernel is redundant.
  DeviceBuffer<wgt_t> pw_local;
  DeviceBuffer<wgt_t>& pw = pw_io ? *pw_io : pw_local;
  const bool need_weights = pw.size() != static_cast<std::size_t>(k);
  if (need_weights) {
    // Fresh pool buffers are zero-filled; no fill kernel needed.
    pw = DeviceBuffer<wgt_t>(dev, static_cast<std::size_t>(k), "pw" + L);
  }
  wgt_t* pwd = pw.data();
  auto weights_body = [&](std::int64_t t) -> std::uint64_t {
    std::uint64_t work = 0;
    for (vid_t v = static_cast<vid_t>(t); v < n; v += static_cast<vid_t>(T)) {
      atomic_add(pwd[wh[v]], wgt_t{vwgt[v]});
      ++work;
    }
    return work;
  };

  // Balance bounds from the graph's host-known total vertex weight, which
  // the part weights always sum to.
  const wgt_t max_pw = max_part_weight(g.total_vwgt, k, eps);
  const wgt_t min_pw = min_part_weight(g.total_vwgt, k, eps);

  // Request buffers: one per partition, fixed capacity, an atomic size
  // counter per buffer (paper: "each buffer has a counter S ... a thread
  // atomically increments the counter S by one" so threads write to
  // exclusive slots without locks).
  const std::int64_t cap = std::max<std::int64_t>(
      64, (2 * static_cast<std::int64_t>(n)) / std::max<part_t>(1, k));
  DeviceBuffer<GpuMoveRequest> buffers(
      dev, static_cast<std::size_t>(cap) * static_cast<std::size_t>(k),
      "reqbuf" + L);
  // All counter buffers arrive zero-filled from the pool; the explore
  // kernel resets S[q] after draining buffer q (it owns it exclusively),
  // so no per-pass fill launches are needed at all.  Commit counts are a
  // per-partition array each explore thread overwrites; the pass's stop
  // test sums them.
  DeviceBuffer<int> counters(dev, static_cast<std::size_t>(k), "S" + L);
  DeviceBuffer<int> committed_arr(dev, static_cast<std::size_t>(k),
                                  "committed" + L);
  DeviceBuffer<GpuRefineTally> tally(dev, 1, "refine" + L);
  GpuMoveRequest* buf = buffers.data();
  int* S = counters.data();
  int* com = committed_arr.data();
  GpuRefineTally* tl = tally.data();

  // --- boundary kernel: evaluate each owned vertex from its cache
  // entry (rebuilding it first when a commit left it dirty) and append
  // a request to the destination partition's buffer.  A vertex with
  // ed == 0 is interior — it cannot produce a request, and the explore
  // kernel's deltas raise its ed the moment a neighbour's move makes it
  // boundary again, so skipping it yields the exact proposal stream of
  // a full scan.  The skip itself is a warp-coalesced streaming read of
  // the ed array (consecutive logical threads read consecutive words),
  // so it is charged per 128-byte transaction — 16 vertices per work
  // unit — not per vertex like the data-dependent adjacency gathers. ---
  auto propose_body = [&](std::int64_t t, bool upward) -> std::uint64_t {
    std::uint64_t work = 0;
    // Per-executor scratch (a real kernel would keep this in
    // registers/local memory).  `conn` and `mark` are restored to
    // all-zero after every vertex, so across logical threads and
    // launches they only need growing, never re-zeroing.
    thread_local std::vector<wgt_t> conn;
    thread_local std::vector<char> mark;
    thread_local std::vector<part_t> parts;
    if (conn.size() < static_cast<std::size_t>(k)) {
      conn.assign(static_cast<std::size_t>(k), 0);
    }
    if (mark.size() < static_cast<std::size_t>(k)) {
      mark.assign(static_cast<std::size_t>(k), 0);
    }
    std::uint64_t skipped = 0;
    for (vid_t v = static_cast<vid_t>(t); v < n; v += static_cast<vid_t>(T)) {
      const char dv = cv.dirty[v];
      if (dv == kDirtyMoved || (dv == kDirtyLazy && cv.ed[v] != 0)) {
        // Owner-exclusive: this logical thread is the only one
        // touching v in this launch, and explore is not running.
        // A lazy vertex with ed still 0 stays lazy — its skip below
        // is exact without materialising id.
        work += cv.rebuild_vertex(adjp, adjncy, adjwgt, wh, v, conn, parts);
      }
      if (cv.ed[v] == 0) {
        ++skipped;
        continue;
      }
      const part_t pv = racy_load(wh[v]);
      // Gather the slots (summing the duplicates racing claims can
      // leave) into the dense scratch.
      const idx_t base = cv.off[v];
      const std::int32_t used = cv.cnt[v];
      parts.clear();
      for (std::int32_t i = 0; i < used; ++i) {
        const part_t qp1 = cv.slot_part[base + i];
        if (qp1 <= 0) continue;  // free slot
        const part_t q = static_cast<part_t>(qp1 - 1);
        if (!mark[static_cast<std::size_t>(q)]) {
          mark[static_cast<std::size_t>(q)] = 1;
          parts.push_back(q);
        }
        conn[static_cast<std::size_t>(q)] += cv.slot_wgt[base + i];
      }
      work += static_cast<std::uint64_t>(used) + 1;
      const bool overweight = racy_load(pwd[pv]) > max_pw;
      const wgt_t internal = cv.id[v];
      part_t best = kInvalidPart;
      wgt_t best_conn = overweight ? std::numeric_limits<wgt_t>::min()
                                   : internal;
      int tied = 0;
      for (const part_t q : parts) {
        const wgt_t cq = conn[static_cast<std::size_t>(q)];
        if (cq <= 0) continue;
        if (upward ? (q <= pv) : (q >= pv)) continue;
        if (cq > best_conn) {
          best_conn = cq;
          best = q;
          tied = 1;
        } else if (best != kInvalidPart && cq == best_conn) {
          ++tied;
        }
      }
      if (best != kInvalidPart && tied > 1) {
        // Tie: replicate the historical scan-order rule — the full
        // scan registered (and therefore selected) the tied part of
        // the earliest foreign neighbour.  Early-exits there.
        for (idx_t j = adjp[v]; j < adjp[v + 1]; ++j) {
          ++work;
          const part_t pu = racy_load(wh[adjncy[j]]);
          if (pu == pv) continue;
          if (conn[static_cast<std::size_t>(pu)] != best_conn) continue;
          if (upward ? (pu <= pv) : (pu >= pv)) continue;
          best = pu;
          break;
        }
      }
      for (const part_t q : parts) {
        conn[static_cast<std::size_t>(q)] = 0;
        mark[static_cast<std::size_t>(q)] = 0;
      }
      if (best == kInvalidPart) continue;
      // Pre-check the destination bound (the explore kernel decides
      // finally, but hopeless requests waste buffer slots).
      if (racy_load(pwd[best]) + vwgt[v] > max_pw) continue;
      atomic_add(tl->proposed, 1);
      const int slot = atomic_add(S[best], 1);
      if (slot >= cap) {
        atomic_add(tl->dropped, 1);
        continue;  // buffer full: drop (counted)
      }
      buf[static_cast<std::int64_t>(best) * cap + slot] = {
          v, pv, best_conn - internal, vwgt[v]};
    }
    return work + (skipped + 15) / 16;
  };

  // --- explore kernel: one logical thread per partition commits its
  // incoming requests by descending gain under the balance bounds ---
  auto explore_body = [&](std::int64_t q) -> std::uint64_t {
    const int cnt = std::min<int>(S[q], static_cast<int>(cap));
    GpuMoveRequest* my = buf + q * cap;
    std::sort(my, my + cnt,
              [](const GpuMoveRequest& a, const GpuMoveRequest& b) {
                return a.gain > b.gain;
              });
    std::uint64_t work = static_cast<std::uint64_t>(cnt), nc = 0;
    for (int i = 0; i < cnt; ++i) {
      const auto& rq = my[i];
      // Destination grows only in this thread: plain bound check.
      if (pwd[q] + rq.vw > max_pw) continue;
      // Source shrinks concurrently (other explore threads drain
      // it too): CAS reservation.
      std::atomic_ref<wgt_t> src(pwd[rq.from]);
      wgt_t cur = src.load(std::memory_order_relaxed);
      bool ok = false;
      while (cur - rq.vw >= min_pw) {
        if (src.compare_exchange_weak(cur, cur - rq.vw,
                                      std::memory_order_relaxed)) {
          ok = true;
          break;
        }
      }
      if (!ok) continue;
      atomic_add(pwd[q], rq.vw);
      racy_store(wh[rq.v], static_cast<part_t>(q));
      // Cache maintenance: the moved vertex's own entry cannot be
      // delta-updated race-free — flag it for rebuild; every
      // neighbour gets an O(1) atomic delta (same O(deg) total the
      // old re-activation sweep charged, but the next propose pass
      // reads gains instead of rescanning).
      racy_store(cv.dirty[rq.v], kDirtyMoved);
      const idx_t mlo = adjp[rq.v], mhi = adjp[rq.v + 1];
      work += static_cast<std::uint64_t>(mhi - mlo);
      for (idx_t j = mlo; j < mhi; ++j) {
        const vid_t u = adjncy[j];
        cv.neighbor_delta(u, racy_load(wh[u]), rq.from,
                          static_cast<part_t>(q), adjwgt[j]);
      }
      ++nc;
    }
    // This thread owns buffer q and its counters: publish the pass's
    // commit count and reset S for the next propose pass, so neither
    // needs a separate fill launch.
    com[q] = static_cast<int>(nc);
    if (nc) atomic_add(tl->committed, nc);
    racy_store(S[q], 0);
    return work;
  };

  // The alternating propose/commit loop.  `run_propose` / `run_explore`
  // issue the two sweeps; `pass_committed` returns the pass's commit
  // count and `overweight` whether a part still exceeds max_pw.  Both
  // alternating directions must go idle before stopping (an overweight
  // part may only have admissible moves one way), and the pass budget
  // stretches up to 8x while a part is still overweight.
  auto pass_loop = [&](auto&& run_propose, auto&& run_explore,
                       auto&& pass_committed, auto&& overweight) {
    int idle_passes = 0;
    for (int pass = 0;
         pass < max_passes || (pass < 8 * max_passes && overweight());
         ++pass) {
      ++stats.passes;
      run_propose(pass, pass % 2 == 0);
      run_explore(pass);
      idle_passes = (pass_committed(pass) == 0) ? idle_passes + 1 : 0;
      if (idle_passes >= 2) break;
    }
  };

  if (mode == GpuScanMode::kLookback) {
    // The whole refinement — weights recount (when needed) plus every
    // propose/explore pass — is ONE persistent-kernel-style dispatch
    // (DESIGN.md §3.9).  Its stop test stays on the device: each pass
    // ends with a stop stage that sums the commit counts and tests the
    // part weights against max_pw, and the dispatch's control flow reads
    // that verdict in device memory — no per-pass read-back.
    DeviceBuffer<GpuStopFlags> stop(dev, 1, "stop" + L);
    GpuStopFlags* sf = stop.data();
    auto stop_body = [&](std::int64_t q) {
      if (com[q] != 0) atomic_add(sf->committed, com[q]);
      if (pwd[q] > max_pw) racy_store(sf->overweight, 1);
    };
    dev.launch_fused("uncoarsen/refine" + L, [&](Device::Fused& f) {
      if (need_weights) f.stage("weights", T, weights_body);
      pass_loop(
          [&](int pass, bool upward) {
            f.stage("p" + std::to_string(pass) + "/propose", T,
                    [&](std::int64_t t) { return propose_body(t, upward); });
          },
          [&](int pass) {
            f.stage("p" + std::to_string(pass) + "/explore", k, explore_body);
          },
          [&](int pass) {
            *sf = GpuStopFlags{};
            f.stage_streamed("p" + std::to_string(pass) + "/stop", k,
                             sizeof(int) + sizeof(wgt_t), stop_body);
            return sf->committed;
          },
          [&] { return sf->overweight != 0; });
    });
  } else {
    // Separate launches: the host decides every pass from a read-back of
    // the commit counts (and of the part weights once the budget may
    // stretch), exactly what a CUDA implementation pays per pass.
    if (need_weights) {
      dev.launch("uncoarsen/refine/weights" + L, T, weights_body);
    }
    pass_loop(
        [&](int pass, bool upward) {
          dev.launch("uncoarsen/refine/propose" + L + "/p" +
                         std::to_string(pass),
                     T, [&](std::int64_t t) { return propose_body(t, upward); });
        },
        [&](int pass) {
          dev.launch("uncoarsen/refine/explore" + L + "/p" +
                         std::to_string(pass),
                     k, explore_body);
        },
        [&](int) {
          int committed = 0;
          for (const int c : committed_arr.d2h_vector()) committed += c;
          return committed;
        },
        [&] {
          const auto w = pw.d2h_vector();
          return std::any_of(w.begin(), w.end(),
                             [&](wgt_t x) { return x > max_pw; });
        });
  }
  const GpuRefineTally t = tally.d2h_vector()[0];
  stats.committed = t.committed;
  stats.proposed = static_cast<std::uint64_t>(t.proposed);
  stats.dropped_full_buffer = static_cast<std::uint64_t>(t.dropped);
  return stats;
}

}  // namespace gp
