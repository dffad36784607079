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
// costs O(1) to project and O(1) to skip in propose; the moment a
// neighbour's commit raises its ed, the next propose pass rebuilds it
// (id included) before evaluating it, so laziness is never observable.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "core/csr_graph.hpp"
#include "gpu/device_atomics.hpp"
#include "gpu/device_buffer.hpp"
#include "hybrid/gpu_graph.hpp"

namespace gp {

inline constexpr char kDirtyMoved = 1;  ///< entry stale: rebuild before use
inline constexpr char kDirtyLazy = 2;   ///< interior shortcut: ed/table exact, id unset

/// Raw-pointer view of the cache for kernel bodies (device code never
/// touches DeviceBuffer wrappers, only the underlying storage).
struct GpuGainCacheView {
  wgt_t*        id = nullptr;
  wgt_t*        ed = nullptr;
  const eid_t*  off = nullptr;  ///< n+1 slab offsets (adjp itself when deg <= k everywhere)
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
    const eid_t base = off[u];
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
    const eid_t base = off[u];
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

  /// Owner-exclusive rebuild of v's entry from a full adjacency scan.
  /// Only valid where no launch is concurrently writing v's entry (the
  /// build/projection kernels, or the propose kernel's dirty rebuild —
  /// explore never overlaps those).  The whole capacity range is reset to
  /// free so stale parts from an earlier epoch can never alias a live
  /// part during a later explore-time slot scan.  `conn` is k zeroes on
  /// entry and is restored before returning; `parts` is scratch.  Returns
  /// work units.
  std::uint64_t rebuild_vertex(const eid_t* adjp, const vid_t* adjncy,
                               const wgt_t* adjwgt, const part_t* wh, vid_t v,
                               std::vector<wgt_t>& conn,
                               std::vector<part_t>& parts) const {
    const eid_t lo = adjp[v], hi = adjp[v + 1];
    const part_t pv = racy_load(wh[v]);
    parts.clear();
    wgt_t internal = 0;
    for (eid_t j = lo; j < hi; ++j) {
      const part_t pu = racy_load(wh[adjncy[j]]);
      if (pu == pv) {
        internal += adjwgt[j];
        continue;
      }
      if (conn[static_cast<std::size_t>(pu)] == 0) parts.push_back(pu);
      conn[static_cast<std::size_t>(pu)] += adjwgt[j];
    }
    const eid_t base = off[v];
    const eid_t cap = off[v + 1] - base;
    for (eid_t s = 0; s < cap; ++s) {
      slot_part[base + s] = 0;
      slot_wgt[base + s] = 0;
    }
    std::int32_t used = 0;
    wgt_t external = 0;
    for (const part_t q : parts) {
      slot_part[base + used] = static_cast<part_t>(q + 1);
      slot_wgt[base + used] = conn[static_cast<std::size_t>(q)];
      external += conn[static_cast<std::size_t>(q)];
      conn[static_cast<std::size_t>(q)] = 0;
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
/// projected (not rebuilt) down each uncoarsening level; all buffers come
/// from the device's size-bucketed pool like every other per-level array.
struct GpuGainCache {
  vid_t  n = 0;
  part_t k = 0;
  DeviceBuffer<wgt_t>        id;
  DeviceBuffer<wgt_t>        ed;
  DeviceBuffer<eid_t>        off;
  DeviceBuffer<std::int32_t> cnt;
  DeviceBuffer<part_t>       slot_part;
  DeviceBuffer<wgt_t>        slot_wgt;
  DeviceBuffer<char>         dirty;
  /// When the graph's maximum degree is <= k, every vertex's capacity
  /// min(deg, k) equals its degree and the slab offsets ARE the graph's
  /// adjp — alias it instead of running the capacity kernel + device scan
  /// per level.  Points into the level's GpuGraph, which the driver keeps
  /// alive for the whole uncoarsening walk.
  const eid_t* off_alias = nullptr;

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

  /// Full build from the device partition labels.  `tag` prefixes the
  /// kernel labels (pass an "uncoarsen/..."-rooted tag so per-phase
  /// label queries such as bench_e2e's kernel counts find the work).
  /// Under GpuScanMode::kLookback the offset construction (capacity
  /// kernel + device scan, when needed) is one fused dispatch.
  [[nodiscard]] static GpuGainCache build(
      Device& dev, const GpuGraph& g, const DeviceBuffer<part_t>& where,
      part_t k, const std::string& tag, std::int64_t n_threads,
      GpuScanMode mode = GpuScanMode::kLookback);

  /// Projects the coarse level's cache onto the fine graph: a fine vertex
  /// whose coarse parent has exact ed == 0 (not moved-dirty) is provably
  /// interior — it is marked lazy at O(1), its slab entries already free
  /// in the fresh slab; every other vertex gets the full rebuild.
  [[nodiscard]] static GpuGainCache project(
      Device& dev, GpuGainCache& coarse, const GpuGraph& fine,
      const DeviceBuffer<part_t>& where_fine, const DeviceBuffer<vid_t>& cmap,
      const std::string& tag, std::int64_t n_threads,
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
