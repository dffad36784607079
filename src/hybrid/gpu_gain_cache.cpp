#include "hybrid/gpu_gain_cache.hpp"

#include "core/gain_cache.hpp"
#include "gpu/scan.hpp"

namespace gp {

namespace {

/// Allocates the per-vertex arrays and the connectivity slab.  A cheap
/// max-degree reduction decides the slab shape: when no degree exceeds k
/// the per-vertex capacity min(deg, k) is just the degree, so the graph's
/// own adjp serves as the offsets and the capacity kernel + device scan
/// are skipped entirely (the common case on meshes and road networks,
/// where deg << k).  Otherwise the offsets are built CSR-style.
GpuGainCache alloc_cache(Device& dev, const GpuGraph& g, part_t k,
                         const std::string& tag, std::int64_t n_threads,
                         GpuScanMode mode) {
  GpuGainCache c;
  c.n = g.n;
  c.k = k;
  const auto n = static_cast<std::size_t>(g.n);
  const eid_t* adjp = g.adjp.data();
  DeviceBuffer<eid_t> md(dev, 1, "gaincache/maxdeg");
  eid_t* mdp = md.data();
  const std::int64_t T = std::max<std::int64_t>(
      1, std::min<std::int64_t>(n_threads, static_cast<std::int64_t>(n)));
  dev.launch(tag + "/maxdeg", T, [&](std::int64_t t) -> std::uint64_t {
    std::uint64_t work = 0;
    eid_t local = 0;
    for (auto v = static_cast<std::int64_t>(t);
         v < static_cast<std::int64_t>(n); v += T) {
      local = std::max(local, adjp[v + 1] - adjp[v]);
      ++work;
    }
    atomic_max(*mdp, local);
    // Coalesced streaming reduction over adjp: per-transaction charge.
    return (work * sizeof(eid_t) + 127) / 128;
  });
  eid_t slab = 0;
  if (md.d2h_vector()[0] <= static_cast<eid_t>(k)) {
    c.off_alias = adjp;
    slab = static_cast<eid_t>(g.adjncy.size());
  } else {
    c.off = DeviceBuffer<eid_t>(dev, n + 1, "gaincache/off");
    eid_t* off = c.off.data();
    auto cap_of = [&](std::int64_t i) -> eid_t {
      return (i == 0) ? 0
                      : std::min<eid_t>(adjp[i] - adjp[i - 1],
                                        static_cast<eid_t>(c.k));
    };
    if (mode == GpuScanMode::kLookback) {
      // The capacity kernel folds into the scan's load transform: one
      // dispatch builds the offsets instead of cap + three-kernel scan.
      dev.launch_fused(tag + "/offscan", [&](Device::Fused& f) {
        slab = lookback_scan_stage<eid_t>(
            dev, f, "cap_scan", static_cast<std::int64_t>(n) + 1,
            sizeof(eid_t), cap_of,
            [&](std::int64_t i, eid_t inc, eid_t) { off[i] = inc; });
      });
    } else {
      dev.launch_simple(tag + "/cap", static_cast<std::int64_t>(n) + 1,
                        [&](std::int64_t i) { off[i] = cap_of(i); });
      slab = device_inclusive_scan(dev, c.off, tag + "/offscan",
                                   GpuScanMode::kBlocked);
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

}  // namespace

GpuGainCache GpuGainCache::build(Device& dev, const GpuGraph& g,
                                 const DeviceBuffer<part_t>& where, part_t k,
                                 const std::string& tag,
                                 std::int64_t n_threads, GpuScanMode mode) {
  GpuGainCache c = alloc_cache(dev, g, k, tag, n_threads, mode);
  const vid_t n = g.n;
  const eid_t* adjp = g.adjp.data();
  const vid_t* adjncy = g.adjncy.data();
  const wgt_t* adjwgt = g.adjwgt.data();
  const part_t* wh = where.data();
  const GpuGainCacheView cv = c.view();
  const std::int64_t T =
      std::max<std::int64_t>(1, std::min<std::int64_t>(n_threads, n));
  dev.launch(tag + "/build", T, [&](std::int64_t t) -> std::uint64_t {
    std::uint64_t work = 0;
    thread_local std::vector<wgt_t> conn;
    thread_local std::vector<part_t> parts;
    if (conn.size() < static_cast<std::size_t>(k)) {
      conn.assign(static_cast<std::size_t>(k), 0);
    }
    for (vid_t v = static_cast<vid_t>(t); v < n; v += static_cast<vid_t>(T)) {
      work += cv.rebuild_vertex(adjp, adjncy, adjwgt, wh, v, conn, parts);
    }
    return work;
  });
  return c;
}

GpuGainCache GpuGainCache::project(Device& dev, GpuGainCache& coarse,
                                   const GpuGraph& fine,
                                   const DeviceBuffer<part_t>& where_fine,
                                   const DeviceBuffer<vid_t>& cmap,
                                   const std::string& tag,
                                   std::int64_t n_threads, GpuScanMode mode) {
  GpuGainCache c = alloc_cache(dev, fine, coarse.k, tag, n_threads, mode);
  const vid_t n = fine.n;
  const eid_t* adjp = fine.adjp.data();
  const vid_t* adjncy = fine.adjncy.data();
  const wgt_t* adjwgt = fine.adjwgt.data();
  const part_t* wh = where_fine.data();
  const vid_t* cm = cmap.data();
  const wgt_t* ced = coarse.ed.data();
  const char* cdirty = coarse.dirty.data();
  const GpuGainCacheView cv = c.view();
  const part_t k = coarse.k;
  const std::int64_t T =
      std::max<std::int64_t>(1, std::min<std::int64_t>(n_threads, n));
  dev.launch(tag + "/project", T, [&](std::int64_t t) -> std::uint64_t {
    std::uint64_t work = 0;
    thread_local std::vector<wgt_t> conn;
    thread_local std::vector<part_t> parts;
    if (conn.size() < static_cast<std::size_t>(k)) {
      conn.assign(static_cast<std::size_t>(k), 0);
    }
    for (vid_t v = static_cast<vid_t>(t); v < n; v += static_cast<vid_t>(T)) {
      const vid_t p = cm[v];
      // A moved-dirty parent's ed is stale; a lazy parent's ed only ever
      // grew from 0, so ed == 0 is exact for it too.
      if (cdirty[p] == kDirtyMoved || ced[p] != 0) {
        // Boundary (or stale) parent: the fine vertex may touch foreign
        // parts; full rebuild for this vertex only.
        work += cv.rebuild_vertex(adjp, adjncy, adjwgt, wh, v, conn, parts);
        continue;
      }
      // Interior parent: every coarse neighbour of p shares its part and
      // v's neighbours all map into that closed neighbourhood, so v is
      // interior too.  The fresh slab is already all-free and ed/cnt
      // already zero — recording laziness is a single flag store; id is
      // materialised by the rebuild the first boundary delta triggers.
      cv.dirty[v] = kDirtyLazy;
      ++work;
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
  const auto h_id = id.d2h_vector();
  const auto h_ed = ed.d2h_vector();
  const std::vector<eid_t> h_off_local =
      off_alias ? std::vector<eid_t>{} : off.d2h_vector();
  const std::vector<eid_t>& h_off = off_alias ? g.adjp() : h_off_local;
  const auto h_cnt = cnt.d2h_vector();
  const auto h_part = slot_part.d2h_vector();
  const auto h_wgt = slot_wgt.d2h_vector();
  const auto h_dirty = dirty.d2h_vector();
  std::vector<wgt_t> conn(static_cast<std::size_t>(k), 0);
  std::vector<char> mark(static_cast<std::size_t>(k), 0);
  std::vector<part_t> parts;
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
    const eid_t base = h_off[sv];
    const auto  cap = static_cast<std::int32_t>(h_off[sv + 1] - base);
    const std::int32_t used = std::min(h_cnt[sv], cap);
    parts.clear();
    for (std::int32_t i = 0; i < used; ++i) {
      const part_t qp1 = h_part[static_cast<std::size_t>(base + i)];
      if (qp1 <= 0) continue;
      const part_t q = static_cast<part_t>(qp1 - 1);
      if (!mark[static_cast<std::size_t>(q)]) {
        mark[static_cast<std::size_t>(q)] = 1;
        parts.push_back(q);
      }
      conn[static_cast<std::size_t>(q)] +=
          h_wgt[static_cast<std::size_t>(base + i)];
    }
    std::string err;
    std::int32_t nonzero = 0;
    for (const part_t q : parts) {
      const wgt_t c = conn[static_cast<std::size_t>(q)];
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
    for (const part_t q : parts) {
      conn[static_cast<std::size_t>(q)] = 0;
      mark[static_cast<std::size_t>(q)] = 0;
    }
    if (!err.empty()) return err;
  }
  return {};
}

}  // namespace gp
