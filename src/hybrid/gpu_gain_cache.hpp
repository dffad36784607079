// Device-resident incremental gain cache (DESIGN.md §3.6) — the GPU twin
// of core/gain_cache: per-vertex internal/external degree plus a sparse
// per-vertex partition-connectivity slab, all in device global memory so
// the refinement kernels never recompute connectivity by rescanning a
// neighbourhood.
//
// Concurrency contract ("exact or dirty"): the propose kernel only READS
// cache entries (each vertex's entry is read by its single owning logical
// thread), the explore kernel only WRITES them — via atomic deltas pushed
// to every neighbour of a committed move.  A non-moved vertex's entry
// stays exact under those commutative deltas; a moved vertex (whose own
// entry cannot be delta-updated race-free) is merely flagged dirty, and
// the next propose pass rebuilds it from its adjacency before evaluating
// it — the rebuild is race-free because propose and explore are separate
// launches.  Slot management tolerates the races the deltas can produce:
// a part may occupy several slots (readers sum duplicates), a slot-claim
// overflow or a subtract that cannot find its part falls back to the
// dirty flag.  With one host worker the kernels execute sequentially,
// every entry stays exact, and the proposal stream is byte-identical to
// the historical full-scan kernel.
//
// Slot encoding: slot_part stores part + 1, so 0 means "free".  A freshly
// pool-acquired (zeroed) slab is therefore all-free with no reset kernel,
// and a racing scanner that reads a claimed-but-not-yet-published slot
// sees "free" — never an alias of a real part id.
//
// Dirty states: 0 = exact, kDirtyMoved = stale (rebuild before reading),
// kDirtyLazy = projected interior shortcut — ed is exactly 0 and the
// slot table exactly empty, but id was never materialised.  A lazy vertex
// costs O(1) to project and never enters a propose pass's frontier; the
// moment a neighbour's commit raises its ed, the next frontier picks it
// up and the propose kernel rebuilds it (id included) before evaluating
// it, so laziness is never observable.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "core/csr_graph.hpp"
#include "core/gain_cache.hpp"
#include "gpu/device_atomics.hpp"
#include "gpu/device_buffer.hpp"
#include "gpu/kernel_chain.hpp"
#include "hybrid/gpu_graph.hpp"

namespace gp {

inline constexpr char kDirtyMoved = 1;  ///< entry stale: rebuild before use
inline constexpr char kDirtyLazy = 2;   ///< interior shortcut: ed/table exact, id unset

/// Scratch of one slot gather, k entries each: per-part sums (`conn`), the
/// parts listed once (`parts`) and their flags (`mark`).  conn and mark
/// are all zero between gathers, so across logical threads and launches
/// they only need growing, never re-zeroing.
struct SlotGather {
  std::vector<wgt_t> conn;
  std::vector<char> mark;
  std::vector<part_t> parts;

  /// This executor's scratch (a real kernel would keep it in registers
  /// or local memory), grown to k parts.
  static SlotGather& local(part_t k) {
    thread_local SlotGather s;
    const auto kk = static_cast<std::size_t>(k);
    if (s.conn.size() < kk) s.conn.assign(kk, 0);
    if (s.mark.size() < kk) s.mark.assign(kk, 0);
    return s;
  }
  /// Zeroes the listed parts' sums and flags for the next gather.
  void clear() {
    for (const part_t q : parts) {
      conn[static_cast<std::size_t>(q)] = 0;
      mark[static_cast<std::size_t>(q)] = 0;
    }
    parts.clear();
  }
};

/// Raw-pointer view of the cache for kernel bodies (device code never
/// touches DeviceBuffer wrappers, only the underlying storage).
struct GpuGainCacheView {
  wgt_t*        id = nullptr;
  wgt_t*        ed = nullptr;
  const idx_t*  off = nullptr;  ///< n+1 slab offsets (adjp itself when deg <= k everywhere)
  std::int32_t* cnt = nullptr;  ///< used slots per vertex
  part_t*       slot_part = nullptr;  ///< slab: part ids + 1 (0 = free)
  wgt_t*        slot_wgt = nullptr;   ///< slab: connectivity weights
  char*         dirty = nullptr;

  /// Lock-free connectivity increment for vertex u toward part q.  Reused
  /// slots are found by scan; a fresh part claims a slot with an atomic
  /// counter bump.  Two racing claims for the same part may produce
  /// duplicate slots (readers sum them); a claim past the capacity marks
  /// u dirty instead of writing out of bounds.
  void conn_add(vid_t u, part_t q, wgt_t w) const {
    const idx_t base = off[u];
    const auto  cap = static_cast<std::int32_t>(off[u + 1] - base);
    const std::int32_t seen = std::min(racy_load(cnt[u]), cap);
    for (std::int32_t i = 0; i < seen; ++i) {
      if (racy_load(slot_part[base + i]) == q + 1) {
        atomic_add(slot_wgt[base + i], w);
        return;
      }
    }
    const std::int32_t s = atomic_add(cnt[u], 1);
    if (s >= cap) {
      racy_store(dirty[u], kDirtyMoved);
      return;
    }
    racy_store(slot_part[base + s], static_cast<part_t>(q + 1));
    atomic_add(slot_wgt[base + s], w);
  }

  /// Lock-free connectivity decrement.  Subtracts from the first slot
  /// carrying q (per-part sums stay exact even across duplicates); if no
  /// slot is visible — a racing claim not yet published — u goes dirty.
  void conn_sub(vid_t u, part_t q, wgt_t w) const {
    const idx_t base = off[u];
    const auto  cap = static_cast<std::int32_t>(off[u + 1] - base);
    const std::int32_t seen = std::min(racy_load(cnt[u]), cap);
    for (std::int32_t i = 0; i < seen; ++i) {
      if (racy_load(slot_part[base + i]) == q + 1) {
        atomic_add(slot_wgt[base + i], -w);
        return;
      }
    }
    racy_store(dirty[u], kDirtyMoved);
  }

  /// Delta for neighbour u of a vertex that moved from -> to; `pu` is u's
  /// own (racy-loaded) label.  Exact whenever u is not itself moving this
  /// instant — and if it is, u's committer marks it dirty anyway.  A lazy
  /// vertex only ever receives the pu == from case (all its neighbours
  /// share its part until one leaves, which raises ed and forces the
  /// rebuild), so its unset id is never read before being recomputed.
  void neighbor_delta(vid_t u, part_t pu, part_t from, part_t to,
                      wgt_t w) const {
    if (pu == from) {
      atomic_add(id[u], -w);
      atomic_add(ed[u], w);
      conn_add(u, to, w);
    } else if (pu == to) {
      conn_sub(u, from, w);
      atomic_add(id[u], w);
      atomic_add(ed[u], -w);
    } else {
      conn_sub(u, from, w);
      conn_add(u, to, w);
    }
  }

  /// Gathers v's used slots into `s` (cleared since the last gather):
  /// duplicate slots of a part summed into s.conn, each part listed once
  /// in s.parts through s.mark.  Free slots are skipped.  Returns the
  /// slots read.
  std::int32_t gather_slots(vid_t v, SlotGather& s) const {
    const idx_t base = off[v];
    const std::int32_t used =
        std::min(cnt[v], static_cast<std::int32_t>(off[v + 1] - base));
    s.parts.clear();
    for (std::int32_t i = 0; i < used; ++i) {
      const part_t qp1 = slot_part[base + i];
      if (qp1 <= 0) continue;  // free slot
      const auto q = static_cast<std::size_t>(qp1 - 1);
      if (!s.mark[q]) {
        s.mark[q] = 1;
        s.parts.push_back(static_cast<part_t>(q));
      }
      s.conn[q] += slot_wgt[base + i];
    }
    return used;
  }

  /// True when a propose pass has work at v: a moved-dirty entry to
  /// rebuild, or a boundary vertex (ed != 0) to evaluate — a lazy vertex
  /// whose ed a delta raised is rebuilt first.  Any other vertex is
  /// interior and cannot propose, so the pass's frontier leaves it out.
  [[nodiscard]] bool active(vid_t v) const {
    return dirty[v] == kDirtyMoved || ed[v] != 0;
  }

  /// Level-transition classification of fine vertex v of a freshly
  /// allocated (all-free) cache, from its coarse parent's entry.  A
  /// parent that is moved-dirty (its ed is stale) or on the boundary may
  /// give v foreign neighbours: v needs a rebuild, and the call returns
  /// true.  Otherwise every coarse neighbour of the parent shares its part
  /// and v's neighbours all map into that closed neighbourhood, so v is
  /// interior too: it is marked lazy, one flag store (ed, cnt and the slab
  /// are already zero).  A lazy parent's ed only ever grew from 0, so
  /// ed == 0 is exact for it as well.
  bool project_vertex(vid_t v, char parent_dirty, wgt_t parent_ed) const {
    if (parent_dirty == kDirtyMoved || parent_ed != 0) return true;
    dirty[v] = kDirtyLazy;
    return false;
  }

  /// Owner-exclusive rebuild of v's entry from a full adjacency scan.
  /// Only valid where no launch is concurrently writing v's entry (the
  /// build kernel, a level's rebuild stage, or the propose kernel's dirty
  /// rebuild — explore never overlaps those).  The whole capacity range is reset to
  /// free so stale parts from an earlier epoch can never alias a live
  /// part during a later explore-time slot scan.  Gathers through `s`'s
  /// conn and parts; conn is zero again on return.  Returns work units.
  std::uint64_t rebuild_vertex(const idx_t* adjp, const vid_t* adjncy,
                               const idx_t* adjwgt, const part_t* wh, vid_t v,
                               SlotGather& s) const {
    const idx_t lo = adjp[v], hi = adjp[v + 1];
    const part_t pv = racy_load(wh[v]);
    const wgt_t internal = gather_conn(
        adjp, adjncy, adjwgt, [wh](vid_t u) { return racy_load(wh[u]); }, v,
        pv, s.conn, s.parts);
    const idx_t base = off[v];
    const idx_t cap = off[v + 1] - base;
    for (idx_t i = 0; i < cap; ++i) {
      slot_part[base + i] = 0;
      slot_wgt[base + i] = 0;
    }
    std::int32_t used = 0;
    wgt_t external = 0;
    for (const part_t q : s.parts) {
      wgt_t& c = s.conn[static_cast<std::size_t>(q)];
      slot_part[base + used] = static_cast<part_t>(q + 1);
      slot_wgt[base + used] = c;
      external += c;
      c = 0;
      ++used;
    }
    cnt[v] = used;
    id[v] = internal;
    ed[v] = external;
    dirty[v] = 0;
    return static_cast<std::uint64_t>(hi - lo) +
           static_cast<std::uint64_t>(cap) + 1;
  }
};

/// The cache's device storage.  Built once on the CPU-handoff graph and
/// projected (not rebuilt) down each uncoarsening level by the level
/// dispatch's project stage (gpu_uncoarsen_level); all buffers come from
/// the device's size-bucketed pool like every other per-level array.
struct GpuGainCache {
  vid_t  n = 0;
  part_t k = 0;
  DeviceBuffer<wgt_t>        id;
  DeviceBuffer<wgt_t>        ed;
  DeviceBuffer<idx_t>        off;
  DeviceBuffer<std::int32_t> cnt;
  DeviceBuffer<part_t>       slot_part;
  DeviceBuffer<wgt_t>        slot_wgt;
  DeviceBuffer<char>         dirty;
  /// When the graph's host-known maximum degree (GpuGraph::max_degree)
  /// is <= k, every vertex's capacity min(deg, k) equals its degree and
  /// the slab offsets ARE the graph's adjp — alias it instead of running
  /// the capacity kernel + device scan per level.  Points into the
  /// level's GpuGraph, which the driver keeps alive for the whole
  /// uncoarsening walk.
  const idx_t* off_alias = nullptr;

  GpuGainCache() = default;

  [[nodiscard]] GpuGainCacheView view() {
    return {id.data(),
            ed.data(),
            off_alias ? off_alias : off.data(),
            cnt.data(),
            slot_part.data(),
            slot_wgt.data(),
            dirty.data()};
  }

  /// Frees every array but `ed` and `dirty`, the only ones a level
  /// transition reads (GpuGainCacheView::project_vertex), so the next
  /// level allocates its cache and refinement buffers after the rest of
  /// this one is gone.
  void keep_projection_inputs() {
    id.release();
    off.release();
    cnt.release();
    slot_part.release();
    slot_wgt.release();
  }

  /// An all-free cache for `g` (every entry exact for a graph with no
  /// boundary: zero degrees, empty tables).  The slab shape comes from
  /// the graph's host-known `max_degree`; an unset one (-1) throws
  /// std::logic_error.  When the slab needs offsets of its own (max
  /// degree > k), the capacity kernel and its scan run in `chain` — a
  /// stage of the caller's dispatch — or, when `chain` is null, in a
  /// chain of their own labelled `tag/offscan`.
  [[nodiscard]] static GpuGainCache alloc(Device& dev, const GpuGraph& g,
                                          part_t k, const std::string& tag,
                                          GpuScanMode mode,
                                          KernelChain* chain = nullptr);

  /// Full build from the device partition labels.  `tag` prefixes the
  /// kernel labels (pass an "uncoarsen/..."-rooted tag so per-phase
  /// label queries such as bench_e2e's kernel counts find the work).
  [[nodiscard]] static GpuGainCache build(
      Device& dev, const GpuGraph& g, const DeviceBuffer<part_t>& where,
      part_t k, const std::string& tag, std::int64_t n_threads,
      GpuScanMode mode = GpuScanMode::kLookback);

  /// Paranoid cross-check: downloads the cache and compares it against a
  /// fresh host-side recompute over (g, where).  Moved-dirty vertices are
  /// exempt — stale-until-rebuilt is their contract; a lazy vertex with
  /// ed == 0 must genuinely be interior; duplicate slots are summed per
  /// part.  Returns "" on success, else the first mismatch.
  [[nodiscard]] std::string compare_to_host(
      const CsrGraph& g, const std::vector<part_t>& where) const;
};

}  // namespace gp
