#include "hybrid/gpu_matching.hpp"

#include "gpu/device_atomics.hpp"
#include "gpu/scan.hpp"
#include "util/rng.hpp"

namespace gp {

GpuMatchResult gpu_match(Device& dev, const GpuGraph& g, int level,
                         std::uint64_t seed, std::int64_t n_threads,
                         GpuScanMode mode) {
  const vid_t n = g.n;
  const std::string L = "/L" + std::to_string(level);
  GpuMatchResult r;
  r.match = DeviceBuffer<vid_t>(dev, static_cast<std::size_t>(n),
                                "coarsen/match" + L);

  vid_t* match = r.match.data();
  const idx_t* adjp = g.adjp.data();
  const vid_t* adjncy = g.adjncy.data();
  const idx_t* adjwgt = g.adjwgt.data();

  const std::int64_t T = launch_width(n_threads, n);

  // The stage bodies are shared verbatim by both dispatch modes — fusing
  // changes metering, never results.

  // --- match kernel: thread t owns vertices t, t+T, t+2T, ... so that a
  // warp's threads touch consecutive vertices (memory coalescing, Fig 2).
  auto match_body = [&](std::int64_t t) -> std::uint64_t {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL +
            static_cast<std::uint64_t>(level) * 7919ULL +
            static_cast<std::uint64_t>(t));
    std::uint64_t work = 0;
    for (vid_t v = static_cast<vid_t>(t); v < n; v += static_cast<vid_t>(T)) {
      if (racy_load(match[v]) != kInvalidVid) continue;
      const idx_t lo = adjp[v], hi = adjp[v + 1];
      work += static_cast<std::uint64_t>(hi - lo);
      // HEM with a random starting rotation: on uniform edge weights this
      // degrades to the paper's iterative random matching.
      vid_t best = kInvalidVid;
      idx_t best_w = -1;
      const auto deg = static_cast<std::size_t>(hi - lo);
      const idx_t mid =
          lo + static_cast<idx_t>(deg ? rng.next_below(deg) : 0);
      // Arcs [mid, hi) then [lo, mid): the rotated order, no division.
      auto scan = [&](idx_t b, idx_t e) {
        for (idx_t idx = b; idx < e; ++idx) {
          const vid_t u = adjncy[idx];
          if (u >= n) continue;  // halo arc: never matched
          if (racy_load(match[u]) != kInvalidVid) continue;
          if (adjwgt[idx] > best_w) {
            best_w = adjwgt[idx];
            best = u;
          }
        }
      };
      scan(mid, hi);
      scan(lo, mid);
      if (best == kInvalidVid) {
        racy_store(match[v], v);
      } else {
        racy_store(match[v], best);
        racy_store(match[best], v);  // races repaired by the next kernel
      }
    }
    return work;
  };

  // --- conflict-resolution kernel (Fig 3): if match(i) = j but
  // match(j) != i, vertex i re-matches to itself and gets another chance
  // at the next coarsening level.
  DeviceBuffer<std::uint64_t> conflict_ctr(dev, 1, "conflicts" + L);
  std::uint64_t* cc = conflict_ctr.data();
  auto resolve_body = [&](std::int64_t t) -> std::uint64_t {
    std::uint64_t work = 0, local = 0;
    for (vid_t v = static_cast<vid_t>(t); v < n; v += static_cast<vid_t>(T)) {
      ++work;
      const vid_t m = racy_load(match[v]);
      if (m == kInvalidVid) {
        racy_store(match[v], v);
        continue;
      }
      if (m == v) continue;
      if (racy_load(match[m]) != v) {
        racy_store(match[v], v);
        ++local;
      }
    }
    if (local) atomic_add(*cc, local);
    return work;
  };

  r.cmap = DeviceBuffer<vid_t>(dev, static_cast<std::size_t>(n), "cmap" + L);
  vid_t* cm = r.cmap.data();

  // Kernel 4 of the cmap chain (Fig 4): followers gather their leader's
  // label.  Leaders' entries are final once the scan has run (a leader v
  // has v <= match[v], and this body never writes those), so the in-place
  // gather is race-free.
  auto final_body = [&](std::int64_t t) -> std::uint64_t {
    std::uint64_t work = 0;
    for (vid_t v = static_cast<vid_t>(t); v < n; v += static_cast<vid_t>(T)) {
      if (v > match[v]) cm[v] = cm[match[v]];
      ++work;
    }
    return work;
  };

  if (mode == GpuScanMode::kLookback) {
    // One dispatch for the whole level (DESIGN.md §3.9).  The cmap init /
    // scan / subtract-one triple collapses into a single look-back scan
    // stage: the leader flag is computed in the scan's load transform and
    // the 0-based label (inclusive - 1) in its store transform.
    vid_t n_coarse = 0;
    dev.launch_fused("coarsen/level" + L, [&](Device::Fused& f) {
      f.stage_streamed("fill", n, sizeof(vid_t),
                       [&](std::int64_t v) { match[v] = kInvalidVid; });
      f.stage("match", T, match_body);
      f.stage("resolve", T, resolve_body);
      if (n > 0) {
        n_coarse = lookback_scan_stage<vid_t>(
            f, "cmap_scan", n, sizeof(vid_t),
            [&](std::int64_t v) -> vid_t { return (v <= match[v]) ? 1 : 0; },
            [&](std::int64_t v, vid_t inc, vid_t) { cm[v] = inc - 1; });
      }
      f.stage("cmap_final", T, final_body);
    });
    r.n_coarse = n_coarse;
    r.conflicts = conflict_ctr.d2h_vector()[0];
    return r;
  }

  // --- historical blocked path: one launch per kernel ---
  r.match.fill(kInvalidVid);
  dev.launch("coarsen/match" + L, T, match_body);
  dev.launch("coarsen/resolve" + L, T, resolve_body);
  r.conflicts = conflict_ctr.d2h_vector()[0];

  // --- cmap construction, the paper's four kernels (Fig 4), in place ---

  // Kernel 1: flag leaders.  Streams match and cm with consecutive
  // threads on consecutive vertices: transaction-granular charge.
  dev.launch("coarsen/cmap/init" + L, T, [&](std::int64_t t) -> std::uint64_t {
    std::uint64_t work = 0;
    for (vid_t v = static_cast<vid_t>(t); v < n; v += static_cast<vid_t>(T)) {
      cm[v] = (v <= match[v]) ? 1 : 0;
      ++work;
    }
    return (work * sizeof(vid_t) + 127) / 128;
  });

  // Kernel 2: device-wide inclusive scan (the CUB call in the paper).
  // The last element is the number of coarse vertices.
  r.n_coarse = (n > 0) ? device_inclusive_scan(dev, r.cmap,
                                               "coarsen/cmap/scan" + L,
                                               GpuScanMode::kBlocked)
                       : 0;

  // Kernel 3: subtract one from every entry (pure streaming sweep).
  dev.launch("coarsen/cmap/sub" + L, T, [&](std::int64_t t) -> std::uint64_t {
    std::uint64_t work = 0;
    for (vid_t v = static_cast<vid_t>(t); v < n; v += static_cast<vid_t>(T)) {
      cm[v] -= 1;
      ++work;
    }
    return (work * sizeof(vid_t) + 127) / 128;
  });

  dev.launch("coarsen/cmap/final" + L, T, final_body);

  return r;
}

}  // namespace gp
