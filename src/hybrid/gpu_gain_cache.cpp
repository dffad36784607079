#include "hybrid/gpu_gain_cache.hpp"

#include <stdexcept>

#include "gpu/scan.hpp"

namespace gp {

GpuGainCache GpuGainCache::alloc(Device& dev, const GpuGraph& g, part_t k,
                                 const std::string& tag, GpuScanMode mode,
                                 KernelChain* chain) {
  if (g.max_degree < 0) {
    throw std::logic_error("GpuGainCache: graph " + tag +
                           " has no host-known max degree");
  }
  GpuGainCache c;
  c.n = g.n;
  c.k = k;
  const auto n = static_cast<std::size_t>(g.n);
  const idx_t* adjp = g.adjp.data();
  idx_t slab = 0;
  if (g.max_degree <= static_cast<idx_t>(k)) {
    // No degree exceeds k, so every capacity min(deg, k) is the degree
    // and the graph's own adjp serves as the offsets (the common case on
    // meshes and road networks, where deg << k).
    c.off_alias = adjp;
    slab = static_cast<idx_t>(g.adjncy.size());
  } else {
    c.off = DeviceBuffer<idx_t>(dev, n + 1, "gaincache/off");
    idx_t* off = c.off.data();
    auto cap_of = [&](std::int64_t i) -> idx_t {
      return (i == 0) ? 0
                      : std::min<idx_t>(adjp[i] - adjp[i - 1],
                                        static_cast<idx_t>(c.k));
    };
    auto offsets = [&](KernelChain& ch) {
      if (Device::Fused* f = ch.fused()) {
        // The capacity kernel folds into the scan's load transform.
        slab = lookback_scan_stage<idx_t>(
            *f, "cap_scan", static_cast<std::int64_t>(n) + 1,
            sizeof(idx_t), cap_of,
            [&](std::int64_t i, idx_t inc, idx_t) { off[i] = inc; });
      } else {
        ch.sweep("cap", static_cast<std::int64_t>(n) + 1,
                 [&](std::int64_t i) -> std::uint64_t {
                   off[i] = cap_of(i);
                   return 1;
                 });
        slab = device_inclusive_scan(dev, c.off, ch.label("scan"),
                                     GpuScanMode::kBlocked);
      }
    };
    if (chain) {
      offsets(*chain);
    } else {
      run_chain(dev, mode, tag + "/offscan", offsets);
    }
  }
  c.id = DeviceBuffer<wgt_t>(dev, n, "gaincache/id");
  c.ed = DeviceBuffer<wgt_t>(dev, n, "gaincache/ed");
  c.cnt = DeviceBuffer<std::int32_t>(dev, n, "gaincache/cnt");
  c.slot_part = DeviceBuffer<part_t>(dev, static_cast<std::size_t>(slab),
                                     "gaincache/slot_part");
  c.slot_wgt = DeviceBuffer<wgt_t>(dev, static_cast<std::size_t>(slab),
                                   "gaincache/slot_wgt");
  c.dirty = DeviceBuffer<char>(dev, n, "gaincache/dirty");
  return c;
}

GpuGainCache GpuGainCache::build(Device& dev, const GpuGraph& g,
                                 const DeviceBuffer<part_t>& where, part_t k,
                                 const std::string& tag,
                                 std::int64_t n_threads, GpuScanMode mode) {
  GpuGainCache c = alloc(dev, g, k, tag, mode);
  const vid_t n = g.n;
  const idx_t* adjp = g.adjp.data();
  const vid_t* adjncy = g.adjncy.data();
  const idx_t* adjwgt = g.adjwgt.data();
  const part_t* wh = where.data();
  const GpuGainCacheView cv = c.view();
  const std::int64_t T = launch_width(n_threads, n);
  dev.launch(tag + "/build", T, [&](std::int64_t t) -> std::uint64_t {
    std::uint64_t work = 0;
    SlotGather& s = SlotGather::local(k);
    for (vid_t v = static_cast<vid_t>(t); v < n; v += static_cast<vid_t>(T)) {
      work += cv.rebuild_vertex(adjp, adjncy, adjwgt, wh, v, s);
    }
    return work;
  });
  return c;
}

std::string GpuGainCache::compare_to_host(
    const CsrGraph& g, const std::vector<part_t>& where) const {
  if (static_cast<vid_t>(g.num_vertices()) != n) {
    return "shape mismatch: cache has " + std::to_string(n) +
           " vertices, graph has " + std::to_string(g.num_vertices());
  }
  GainCache fresh;
  fresh.build(g, where, k);
  auto h_id = id.d2h_vector();
  auto h_ed = ed.d2h_vector();
  // Aliased offsets are the graph's own adjp, whose host copy is `g`.
  const std::vector<idx_t> h_off =
      off_alias ? std::vector<idx_t>(g.adjp().begin(), g.adjp().end())
                : off.d2h_vector();
  auto h_cnt = cnt.d2h_vector();
  auto h_part = slot_part.d2h_vector();
  auto h_wgt = slot_wgt.d2h_vector();
  auto h_dirty = dirty.d2h_vector();
  const GpuGainCacheView host{h_id.data(),  h_ed.data(),   h_off.data(),
                              h_cnt.data(), h_part.data(), h_wgt.data(),
                              h_dirty.data()};
  SlotGather& s = SlotGather::local(k);
  for (vid_t v = 0; v < n; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    if (h_dirty[sv] == kDirtyLazy && h_ed[sv] == 0) {
      // An undisturbed lazy vertex claims to be interior; its id was
      // never materialised, but the interiority claim is checkable.
      if (fresh.external(v) != 0 || fresh.conn_count(v) != 0) {
        return "lazy vertex v=" + std::to_string(v) +
               " is not interior: recomputed ed " +
               std::to_string(fresh.external(v));
      }
      continue;
    }
    if (h_dirty[sv]) continue;  // stale until the next propose rebuild
    if (h_id[sv] != fresh.internal(v) || h_ed[sv] != fresh.external(v)) {
      return "id/ed mismatch at v=" + std::to_string(v) + ": device (" +
             std::to_string(h_id[sv]) + "," + std::to_string(h_ed[sv]) +
             ") recomputed (" + std::to_string(fresh.internal(v)) + "," +
             std::to_string(fresh.external(v)) + ")";
    }
    // Sum duplicate slots per part, then compare the sparse sets.
    host.gather_slots(v, s);
    std::string err;
    std::int32_t nonzero = 0;
    for (const part_t q : s.parts) {
      const wgt_t c = s.conn[static_cast<std::size_t>(q)];
      if (c != 0) ++nonzero;
      if (c != 0 && c != fresh.conn_to(v, q)) {
        err = "conn mismatch at v=" + std::to_string(v) + " part " +
              std::to_string(q) + ": device " + std::to_string(c) +
              " recomputed " + std::to_string(fresh.conn_to(v, q));
      }
    }
    if (err.empty() && nonzero != fresh.conn_count(v)) {
      err = "conn-count mismatch at v=" + std::to_string(v) + ": device " +
            std::to_string(nonzero) + " recomputed " +
            std::to_string(fresh.conn_count(v));
    }
    s.clear();
    if (!err.empty()) return err;
  }
  return {};
}

}  // namespace gp
