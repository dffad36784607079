#include "hybrid/gpu_refine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <utility>
#include <vector>

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
  const std::int64_t T = launch_width(n_threads, n);
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

/// Logical thread t's contiguous chunk [b, e) of a `len`-entry worklist
/// split evenly over `T` threads.  Consecutive threads take consecutive
/// entries, so one host worker executes the list in its own order.
std::pair<std::int64_t, std::int64_t> list_chunk(std::int64_t len,
                                                 std::int64_t T,
                                                 std::int64_t t) {
  return {t * len / T, (t + 1) * len / T};
}

/// A frontier compaction's geometry: T = min(n_threads, n) logical
/// threads, thread t visiting t, t+T, t+2T, ... (J = ceil(n/T) steps),
/// split into tiles of whole threads of about scan_tile(n) vertices each.
struct FrontierGeometry {
  FrontierGeometry(vid_t n, std::int64_t n_threads)
      : T(launch_width(n_threads, n)),
        J(std::max<std::int64_t>(1, (n + T - 1) / T)),
        per_tile(std::max<std::int64_t>(1, scan_detail::scan_tile(n) / J)) {}

  [[nodiscard]] std::int64_t tiles() const {
    return (T + per_tile - 1) / per_tile;
  }
  /// Tile t's threads [first(t), last(t)).
  [[nodiscard]] std::int64_t first(std::int64_t t) const {
    return t * per_tile;
  }
  [[nodiscard]] std::int64_t last(std::int64_t t) const {
    return std::min<std::int64_t>((t + 1) * per_tile, T);
  }

  std::int64_t T;
  std::int64_t J;
  std::int64_t per_tile;
};

/// gpu_frontier's compaction: `count(lo, hi)` and `emit(lo, hi, o)` walk
/// the candidates of threads [lo, hi) in visiting order.  The charge is
/// the full T x J sweep whatever the walk visits.
template <typename Count, typename Emit>
std::int64_t frontier_compact(KernelChain& chain, const std::string& name,
                              const FrontierGeometry& geo, Count&& count,
                              Emit&& emit) {
  return chain.compact(
      name, geo.tiles(),
      [&](std::int64_t t) {  // the tile's threads read dirty + ed per step
        return static_cast<std::uint64_t>(geo.last(t) - geo.first(t)) *
               static_cast<std::uint64_t>(geo.J) * (sizeof(wgt_t) + 1);
      },
      [&](std::int64_t t) { return count(geo.first(t), geo.last(t)); },
      [&](std::int64_t t, std::int64_t o) {
        emit(geo.first(t), geo.last(t), o);
      });
}

/// The host's candidate set for the next frontier: one bit per
/// (thread, step) slot of the frontier's visiting order, so slot
/// r·J + q stands for vertex q·T + r and the members of a tile's threads
/// are one contiguous bit range, visited in order with no sort.  Bits are
/// set and cleared with atomic read-modify-writes: explore threads add
/// concurrently, and two tiles may share a word.
class FrontierCandidates {
 public:
  explicit FrontierCandidates(const FrontierGeometry& geo)
      : T_(geo.T),
        J_(geo.J),
        words_(static_cast<std::size_t>((geo.T * geo.J + 63) / 64), 0) {}

  void add(vid_t v) {
    const std::int64_t pos = (v % T_) * J_ + v / T_;
    std::atomic_ref<std::uint64_t>(words_[static_cast<std::size_t>(pos >> 6)])
        .fetch_or(std::uint64_t{1} << (pos & 63), std::memory_order_relaxed);
  }

  /// Calls `keep(v)` on every member of threads [lo, hi) in visiting
  /// order; members it rejects leave the set.
  template <typename Keep>
  void visit(std::int64_t lo, std::int64_t hi, Keep&& keep) {
    const std::int64_t b = lo * J_, e = hi * J_;
    if (b >= e) return;
    for (std::int64_t w = b >> 6; w <= (e - 1) >> 6; ++w) {
      std::atomic_ref<std::uint64_t> word(words_[static_cast<std::size_t>(w)]);
      std::uint64_t bits = word.load(std::memory_order_relaxed);
      if (w == b >> 6) bits &= ~std::uint64_t{0} << (b & 63);
      if (w == (e - 1) >> 6 && (e & 63) != 0) {
        bits &= ~(~std::uint64_t{0} << (e & 63));
      }
      std::uint64_t drop = 0;
      while (bits != 0) {
        const int i = std::countr_zero(bits);
        bits &= bits - 1;
        const std::int64_t pos = w * 64 + i;
        const std::int64_t r = pos / J_;
        if (!keep(static_cast<vid_t>((pos - r * J_) * T_ + r))) {
          drop |= std::uint64_t{1} << i;
        }
      }
      if (drop != 0) word.fetch_and(~drop, std::memory_order_relaxed);
    }
  }

 private:
  std::int64_t T_;
  std::int64_t J_;
  std::vector<std::uint64_t> words_;
};

/// The frontier by a full sweep: every vertex of the tile's threads is
/// tested.  With `record`, the list's vertices also join that set.
std::int64_t full_frontier(KernelChain& chain, const std::string& name,
                           const GpuGainCacheView& cv, vid_t n,
                           const FrontierGeometry& geo, vid_t* out,
                           FrontierCandidates* record) {
  const auto step = static_cast<vid_t>(geo.T);
  return frontier_compact(
      chain, name, geo,
      [&](std::int64_t lo, std::int64_t hi) {
        std::int64_t cnt = 0;
        for (auto s = static_cast<vid_t>(lo); s < hi; ++s) {
          for (vid_t v = s; v < n; v += step) cnt += cv.active(v);
        }
        return cnt;
      },
      [&](std::int64_t lo, std::int64_t hi, std::int64_t o) {
        for (auto s = static_cast<vid_t>(lo); s < hi; ++s) {
          for (vid_t v = s; v < n; v += step) {
            if (!cv.active(v)) continue;
            out[o++] = v;
            if (record) record->add(v);
          }
        }
      });
}

/// One refinement call's device state and kernel bodies: the request
/// buffers and their counters, the worklist, and the propose/explore
/// kernels that read and delta-update the gain cache, and the host's
/// candidate set for the next frontier.  `run` issues the
/// alternating pass loop into a KernelChain; `project` issues a level
/// transition's stages in front of it.  Both scan modes run these same
/// bodies (KernelChain), so their results are byte-identical.
class GpuRefiner {
 public:
  GpuRefiner(Device& dev, const GpuGraph& g, DeviceBuffer<part_t>& where,
             part_t k, double eps, int level, std::int64_t n_threads,
             DeviceBuffer<wgt_t>* pw_io, GpuScanMode mode)
      : n_(g.n),
        k_(k),
        geo_(g.n, n_threads),
        T_(geo_.T),
        candidates_(geo_),
        adjp_(g.adjp.data()),
        adjncy_(g.adjncy.data()),
        adjwgt_(g.adjwgt.data()),
        vwgt_(g.vwgt.data()),
        wh_(where.data()),
        pw_(pw_io ? *pw_io : pw_local_),
        need_weights_(pw_.size() != static_cast<std::size_t>(k)),
        // Balance bounds from the graph's host-known total vertex weight,
        // which the part weights always sum to.
        max_pw_(max_part_weight(g.total_vwgt, k, eps)),
        min_pw_(min_part_weight(g.total_vwgt, k, eps)),
        cap_(std::max<std::int64_t>(
            64, (2 * static_cast<std::int64_t>(g.n)) /
                    std::max<part_t>(1, k))) {
    const std::string L = "/L" + std::to_string(level);
    // Partition weights live on the device across passes — and, when the
    // driver passes `pw_io`, across levels: projection maps every fine
    // vertex to its parent's part, so per-part weight sums are invariant
    // at level transitions and the recount runs once per uncoarsening.
    if (need_weights_) {
      // Fresh pool buffers are zero-filled; no fill kernel needed.
      pw_ = DeviceBuffer<wgt_t>(dev, static_cast<std::size_t>(k), "pw" + L);
    }
    // Request buffers: one per partition, fixed capacity, an atomic size
    // counter per buffer (paper: "each buffer has a counter S ... a
    // thread atomically increments the counter S by one" so threads
    // write to exclusive slots without locks).  All counter buffers
    // arrive zero-filled from the pool; the explore kernel resets S[q]
    // after draining buffer q (it owns it exclusively), so no per-pass
    // fill launches are needed.  Commit counts are a per-partition array
    // each explore thread overwrites; the pass's stop test sums them.
    buffers_ = DeviceBuffer<GpuMoveRequest>(
        dev, static_cast<std::size_t>(cap_) * static_cast<std::size_t>(k),
        "reqbuf" + L);
    counters_ = DeviceBuffer<int>(dev, static_cast<std::size_t>(k), "S" + L);
    committed_ = DeviceBuffer<int>(dev, static_cast<std::size_t>(k),
                                   "committed" + L);
    tally_ = DeviceBuffer<GpuRefineTally>(dev, 1, "refine" + L);
    list_ = DeviceBuffer<vid_t>(dev, static_cast<std::size_t>(n_),
                                "worklist" + L);
    if (mode == GpuScanMode::kLookback) {
      stop_ = DeviceBuffer<GpuStopFlags>(dev, 1, "stop" + L);
    }
  }

  /// A level transition's stages: labels fan out through `cmap`, each fine
  /// vertex is classified by its parent's entry of the `coarse` cache
  /// (lazy, or a rebuild candidate), the candidates are compacted, and
  /// their `fine` entries are rebuilt from contiguous list chunks, so a
  /// warp's rebuilds are not diluted by interior vertices.
  void project(KernelChain& c, const DeviceBuffer<vid_t>& cmap,
               const DeviceBuffer<part_t>& where_coarse,
               const GpuGainCache& coarse, GpuGainCache& fine) {
    const GpuGainCacheView cv = fine.view();
    const vid_t* cm = cmap.data();
    const part_t* wc = where_coarse.data();
    const char* cdirty = coarse.dirty.data();
    const wgt_t* ced = coarse.ed.data();
    vid_t* list = list_.data();
    const vid_t n = n_;
    const auto T = static_cast<vid_t>(T_);
    part_t* wh = wh_;
    // A unit for the label and one for a lazy flag store; a candidate's
    // classification read rides in its rebuild's unit.
    c.sweep("project", T_, [&](std::int64_t t) -> std::uint64_t {
      std::uint64_t work = 0;
      for (vid_t v = static_cast<vid_t>(t); v < n; v += T) {
        const vid_t p = cm[v];
        wh[v] = wc[p];
        work += cv.project_vertex(v, cdirty[p], ced[p]) ? 1 : 2;
      }
      return work;
    });
    const std::int64_t tile = scan_detail::scan_tile(n);
    auto tile_end = [&](std::int64_t t) {
      return std::min<std::int64_t>((t + 1) * tile, n);
    };
    const std::int64_t candidates = c.compact(
        "classify", (n + tile - 1) / tile,
        [&](std::int64_t t) {  // one dirty byte per vertex
          return static_cast<std::uint64_t>(tile_end(t) - t * tile);
        },
        [&](std::int64_t t) {
          std::int64_t cnt = 0;
          for (std::int64_t v = t * tile; v < tile_end(t); ++v) {
            cnt += cv.dirty[v] != kDirtyLazy;
          }
          return cnt;
        },
        [&](std::int64_t t, std::int64_t o) {
          for (std::int64_t v = t * tile; v < tile_end(t); ++v) {
            if (cv.dirty[v] != kDirtyLazy) list[o++] = static_cast<vid_t>(v);
          }
        });
    const std::int64_t TC = std::min(T_, candidates);
    c.sweep("rebuild", TC, [&](std::int64_t t) -> std::uint64_t {
      SlotGather& s = SlotGather::local(k_);
      const auto [b, e] = list_chunk(candidates, TC, t);
      std::uint64_t work = 0;
      for (std::int64_t i = b; i < e; ++i) {
        work += cv.rebuild_vertex(adjp_, adjncy_, adjwgt_, wh, list[i], s);
        // Only a rebuilt vertex can be active after the transition: the
        // first pass's frontier is drawn from them.
        candidates_.add(list[i]);
      }
      return work;
    });
    seeded_ = true;
  }

  /// The weights recount (when needed), then the alternating
  /// propose/commit passes on `cache`, which must be exact-or-dirty
  /// against the labels.  Each pass proposes from its frontier.  Both
  /// alternating directions must go idle before stopping (an overweight
  /// part may only have admissible moves one way), and the pass budget
  /// stretches up to 8x while a part is still overweight.  In one fused
  /// dispatch the stop test stays on the device: a stop stage per pass
  /// sums the commit counts and tests the part weights, and the
  /// dispatch's control flow reads that verdict in device memory.
  /// Separate launches read the commit counts (and, once the budget may
  /// stretch, the part weights) back every pass.
  void run(KernelChain& c, GpuGainCache& cache, int max_passes,
           const GpuFrontierProbe& probe) {
    cv_ = cache.view();
    wgt_t* pwd = pw_.data();
    if (need_weights_) {
      c.sweep("weights", T_, [&](std::int64_t t) -> std::uint64_t {
        std::uint64_t work = 0;
        for (vid_t v = static_cast<vid_t>(t); v < n_;
             v += static_cast<vid_t>(T_)) {
          atomic_add(pwd[wh_[v]], wgt_t{vwgt_[v]});
          ++work;
        }
        return work;
      });
    }
    const int* com = committed_.data();
    GpuStopFlags* sf = stop_.data();
    auto pass_committed = [&](const std::string& P) {
      if (c.fused()) {
        *sf = GpuStopFlags{};
        c.streamed(P + "stop", k_, sizeof(int) + sizeof(wgt_t),
                   [&](std::int64_t q) {
                     if (com[q] != 0) atomic_add(sf->committed, com[q]);
                     if (pwd[q] > max_pw_) racy_store(sf->overweight, 1);
                   });
        return sf->committed;
      }
      int sum = 0;
      for (const int x : committed_.d2h_vector()) sum += x;
      return sum;
    };
    auto overweight = [&] {
      if (c.fused()) return sf->overweight != 0;
      const auto w = pw_.d2h_vector();
      return std::any_of(w.begin(), w.end(),
                         [&](wgt_t x) { return x > max_pw_; });
    };
    const vid_t* list = list_.data();
    int idle_passes = 0;
    for (int pass = 0;
         pass < max_passes || (pass < 8 * max_passes && overweight());
         ++pass) {
      ++stats_.passes;
      std::string P = std::to_string(pass);
      P.insert(0, 1, 'p') += '/';  // "p<pass>/"
      const bool upward = pass % 2 == 0;
      const std::int64_t F = frontier(c, P + "frontier");
      if (probe) probe(pass, cv_, list, F);
      const std::int64_t TF = std::min(T_, F);
      c.sweep(P + "propose", TF, [&](std::int64_t t) -> std::uint64_t {
        SlotGather& s = SlotGather::local(k_);
        const auto [b, e] = list_chunk(F, TF, t);
        std::uint64_t work = 0;
        for (std::int64_t i = b; i < e; ++i) {
          work += propose(list[i], upward, s);
        }
        return work;
      });
      c.sweep(P + "explore", k_,
              [&](std::int64_t q) { return explore(q); });
      idle_passes = pass_committed(P) == 0 ? idle_passes + 1 : 0;
      if (idle_passes >= 2) break;
    }
  }

  /// Reads the call's packed {committed, proposed, dropped} record back.
  GpuRefineStats finish() {
    const GpuRefineTally t = tally_.d2h_vector()[0];
    stats_.committed = t.committed;
    stats_.proposed = static_cast<std::uint64_t>(t.proposed);
    stats_.dropped_full_buffer = static_cast<std::uint64_t>(t.dropped);
    return stats_;
  }

 private:
  /// The pass's frontier compaction into the worklist.  A pass changes
  /// `dirty` or `ed` only at the vertices it rebuilds (its own frontier)
  /// and at moved vertices and their neighbours (explore adds those to
  /// the candidates), so the candidates left by the previous pass, tested
  /// again here, give exactly what a full sweep would.  The count drops
  /// the inactive ones from the set, so the emit, which runs after it on
  /// the same unchanged cache, writes every member left.  With no
  /// classify list to start from, the first pass sweeps every vertex.
  std::int64_t frontier(KernelChain& c, const std::string& name) {
    const GpuGainCacheView& cv = cv_;
    vid_t* out = list_.data();
    if (!seeded_) {
      seeded_ = true;
      return full_frontier(c, name, cv, n_, geo_, out, &candidates_);
    }
    return frontier_compact(
        c, name, geo_,
        [&](std::int64_t lo, std::int64_t hi) {
          std::int64_t cnt = 0;
          candidates_.visit(lo, hi, [&](vid_t v) {
            const bool active = cv.active(v);
            cnt += active;
            return active;
          });
          return cnt;
        },
        [&](std::int64_t lo, std::int64_t hi, std::int64_t o) {
          candidates_.visit(lo, hi, [&](vid_t v) {
            out[o++] = v;
            return true;
          });
        });
  }

  /// Boundary kernel body for frontier vertex v: rebuild its cache entry
  /// first when a commit left it dirty (owner-exclusive: this logical
  /// thread is the only one touching v, and explore is not running),
  /// find its best destination under the one-direction ordering rule,
  /// and append a request to that partition's buffer.  A rebuilt vertex
  /// can turn out interior (ed == 0) and then proposes nothing.
  std::uint64_t propose(vid_t v, bool upward, SlotGather& s) {
    const GpuGainCacheView& cv = cv_;
    std::uint64_t work = 0;
    const char dv = cv.dirty[v];
    if (dv == kDirtyMoved || (dv == kDirtyLazy && cv.ed[v] != 0)) {
      work += cv.rebuild_vertex(adjp_, adjncy_, adjwgt_, wh_, v, s);
    }
    if (cv.ed[v] == 0) return work;
    const part_t pv = racy_load(wh_[v]);
    // Sum the duplicates racing claims can leave into the dense scratch.
    work += static_cast<std::uint64_t>(cv.gather_slots(v, s)) + 1;
    wgt_t* pwd = pw_.data();
    const wgt_t internal = cv.id[v];
    const auto [best, best_conn, tie_scan] = choose_move(
        s.parts,
        [&](std::size_t i) {
          return s.conn[static_cast<std::size_t>(s.parts[i])];
        },
        racy_load(pwd[pv]) > max_pw_ ? std::numeric_limits<wgt_t>::min()
                                     : internal,
        [&](part_t q) { return upward ? q > pv : q < pv; },
        {adjncy_ + adjp_[v], adjncy_ + adjp_[v + 1]},
        [&](vid_t u) { return racy_load(wh_[u]); });
    work += tie_scan;
    s.clear();
    if (best == kInvalidPart) return work;
    // Pre-check the destination bound (the explore kernel decides
    // finally, but hopeless requests waste buffer slots).
    if (racy_load(pwd[best]) + vwgt_[v] > max_pw_) return work;
    GpuRefineTally* tl = tally_.data();
    atomic_add(tl->proposed, 1);
    const int slot = atomic_add(counters_.data()[best], 1);
    if (slot >= cap_) {
      atomic_add(tl->dropped, 1);
      return work;  // buffer full: drop (counted)
    }
    buffers_.data()[static_cast<std::int64_t>(best) * cap_ + slot] = {
        v, pv, best_conn - internal, vwgt_[v]};
    return work;
  }

  /// Explore kernel body: logical thread q commits partition q's incoming
  /// requests by descending gain under the balance bounds.
  std::uint64_t explore(std::int64_t q) {
    const GpuGainCacheView& cv = cv_;
    int* S = counters_.data();
    const int cnt = std::min<int>(S[q], static_cast<int>(cap_));
    GpuMoveRequest* my = buffers_.data() + q * cap_;
    const auto to = static_cast<part_t>(q);
    std::uint64_t work = 0;
    const CommitTally ct = commit_requests(
        my, my + cnt, to, pw_.data(), wh_, max_pw_, min_pw_,
        [](const GpuMoveRequest& r) { return r.vw; },
        [&](const GpuMoveRequest& r) {
          // Cache maintenance: the moved vertex's own entry cannot be
          // delta-updated race-free — flag it for rebuild; every
          // neighbour gets an O(1) atomic delta (the same O(deg) total a
          // re-activation sweep would charge, but the next propose pass
          // reads gains instead of rescanning).
          racy_store(cv.dirty[r.v], kDirtyMoved);
          candidates_.add(r.v);
          const idx_t mlo = adjp_[r.v], mhi = adjp_[r.v + 1];
          work += static_cast<std::uint64_t>(mhi - mlo);
          for (idx_t j = mlo; j < mhi; ++j) {
            const vid_t u = adjncy_[j];
            cv.neighbor_delta(u, racy_load(wh_[u]), r.from, to, adjwgt_[j]);
            candidates_.add(u);
          }
        });
    // This thread owns buffer q and its counters: publish the pass's
    // commit count and reset S for the next propose pass, so neither
    // needs a separate fill launch.
    committed_.data()[q] = static_cast<int>(ct.committed);
    if (ct.committed) atomic_add(tally_.data()->committed, ct.committed);
    racy_store(S[q], 0);
    return ct.scanned + work;
  }

  const vid_t n_;
  const part_t k_;
  const FrontierGeometry geo_;
  const std::int64_t T_;
  FrontierCandidates candidates_;
  /// False until the candidates hold a superset of the next frontier.
  bool seeded_ = false;
  const idx_t* adjp_;
  const vid_t* adjncy_;
  const idx_t* adjwgt_;
  const idx_t* vwgt_;
  part_t* wh_;
  DeviceBuffer<wgt_t> pw_local_;
  DeviceBuffer<wgt_t>& pw_;
  const bool need_weights_;
  const wgt_t max_pw_;
  const wgt_t min_pw_;
  const std::int64_t cap_;
  DeviceBuffer<GpuMoveRequest> buffers_;
  DeviceBuffer<int> counters_;
  DeviceBuffer<int> committed_;
  DeviceBuffer<GpuRefineTally> tally_;
  DeviceBuffer<vid_t> list_;
  DeviceBuffer<GpuStopFlags> stop_;
  GpuGainCacheView cv_;
  GpuRefineStats stats_;
};

}  // namespace

std::int64_t gpu_frontier(KernelChain& chain, const std::string& name,
                          const GpuGainCacheView& cv, vid_t n,
                          std::int64_t n_threads, vid_t* out) {
  return full_frontier(chain, name, cv, n, FrontierGeometry(n, n_threads),
                       out, nullptr);
}

GpuRefineStats gpu_refine(Device& dev, const GpuGraph& g,
                          DeviceBuffer<part_t>& where, part_t k, double eps,
                          int max_passes, int level, std::int64_t n_threads,
                          GpuGainCache* cache, DeviceBuffer<wgt_t>* pw_io,
                          GpuScanMode mode) {
  const std::string L = "/L" + std::to_string(level);
  // A null cache is built here for the duration of the call.
  GpuGainCache local_cache;
  if (cache == nullptr) {
    local_cache = GpuGainCache::build(dev, g, where, k,
                                      "uncoarsen/gaincache" + L,
                                      launch_width(n_threads, g.n), mode);
    cache = &local_cache;
  }
  GpuRefiner r(dev, g, where, k, eps, level, n_threads, pw_io, mode);
  run_chain(dev, mode, "uncoarsen/refine" + L,
            [&](KernelChain& c) { r.run(c, *cache, max_passes, {}); });
  return r.finish();
}

GpuRefineStats gpu_uncoarsen_level(
    Device& dev, const GpuGraph& fine, const DeviceBuffer<vid_t>& cmap,
    const DeviceBuffer<part_t>& where_coarse, DeviceBuffer<part_t>& where_fine,
    GpuGainCache& cache, DeviceBuffer<wgt_t>& pw, part_t k, double eps,
    int max_passes, int level, std::int64_t n_threads, GpuScanMode mode,
    const GpuFrontierProbe& probe) {
  const std::string label = "uncoarsen/level/L" + std::to_string(level);
  cache.keep_projection_inputs();
  GpuRefiner r(dev, fine, where_fine, k, eps, level, n_threads, &pw, mode);
  GpuGainCache fine_cache;
  run_chain(dev, mode, label, [&](KernelChain& c) {
    fine_cache = GpuGainCache::alloc(dev, fine, k, label, mode, &c);
    r.project(c, cmap, where_coarse, cache, fine_cache);
    r.run(c, fine_cache, max_passes, probe);
  });
  cache = std::move(fine_cache);
  return r.finish();
}

}  // namespace gp
