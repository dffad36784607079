#include "hybrid/multi_gpu_partitioner.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "core/audit.hpp"
#include "core/vcycle.hpp"
#include "gpu/device_atomics.hpp"
#include "gpu/device_buffer.hpp"
#include "gpu/scan.hpp"
#include "mt/mt_partitioner.hpp"
#include "serial/metis_partitioner.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace gp {

namespace {

/// One device's share of a level: local vertices are the contiguous
/// global-id block [begin, end); adjncy stores GLOBAL ids (halo arcs point
/// outside the block).  The host keeps a mirror of the arrays it needs to
/// build halo tables; the device holds the working copies.
struct DeviceShard {
  vid_t begin = 0, end = 0;  ///< global id range of local vertices

  // Device-resident level graph (adjncy in global ids).
  DeviceBuffer<eid_t> adjp;
  DeviceBuffer<vid_t> adjncy;
  DeviceBuffer<wgt_t> adjwgt;
  DeviceBuffer<wgt_t> vwgt;

  // Host mirror of the same arrays (used to compute halo tables and to
  // merge the final coarse graph without re-downloading).
  std::vector<eid_t> h_adjp;
  std::vector<vid_t> h_adjncy;
  std::vector<wgt_t> h_adjwgt;
  std::vector<wgt_t> h_vwgt;

  [[nodiscard]] vid_t local_n() const { return end - begin; }
};

/// Per-level per-device coarsening artifacts kept for uncoarsening.
struct ShardLevel {
  std::vector<DeviceShard> shards;          ///< fine shards of this level
  std::vector<std::vector<vid_t>> cmaps;    ///< per device: local fine -> GLOBAL coarse
  std::vector<vid_t> fine_vtxdist;
};

/// Sorted halo translation table uploaded to a device for one level:
/// ids[] (sorted unique global ids outside the local block) and vals[]
/// (their translation).  Kernels translate by binary search — the way
/// real distributed-GPU codes resolve ghost ids.
struct HaloTable {
  DeviceBuffer<vid_t> ids;
  DeviceBuffer<vid_t> vals;
  std::size_t size = 0;
};

/// Builds the sorted unique halo-id list of a shard from its host mirror.
std::vector<vid_t> halo_ids_of(const DeviceShard& s) {
  std::vector<vid_t> halo;
  for (const vid_t u : s.h_adjncy) {
    if (u < s.begin || u >= s.end) halo.push_back(u);
  }
  std::sort(halo.begin(), halo.end());
  halo.erase(std::unique(halo.begin(), halo.end()), halo.end());
  return halo;
}

/// Charges the main ledger with the max over the per-device ledger deltas
/// (devices run concurrently, so a stage costs its slowest device).
class ConcurrentStage {
 public:
  ConcurrentStage(CostLedger& main, std::vector<CostLedger>& dev_ledgers,
                  std::string label)
      : main_(main), devs_(dev_ledgers), label_(std::move(label)) {
    before_.reserve(devs_.size());
    for (const auto& l : devs_) before_.push_back(l.total_seconds());
  }
  ~ConcurrentStage() {
    double mx = 0;
    for (std::size_t i = 0; i < devs_.size(); ++i) {
      mx = std::max(mx, devs_[i].total_seconds() - before_[i]);
    }
    main_.charge_raw(label_, mx);
  }

  ConcurrentStage(const ConcurrentStage&) = delete;
  ConcurrentStage& operator=(const ConcurrentStage&) = delete;

 private:
  CostLedger& main_;
  std::vector<CostLedger>& devs_;
  std::string label_;
  std::vector<double> before_;
};

struct HostMoveRequest {
  vid_t  v;
  part_t from, to;
  wgt_t  gain;
};

/// Modeled cost of tearing down and re-establishing the device contexts
/// after a fault, before the vertex blocks are redistributed.
constexpr double kDeviceResetSeconds = 2e-3;

/// Bounded OOM retries (each raises the CPU handoff) before the run
/// degrades to a pure mt-metis fallback.
constexpr int kMaxOomRetries = 2;

/// One full multi-device attempt over the surviving physical devices
/// listed in `phys`.  Throws DeviceOutOfMemory / DeviceFailure (tagged
/// with the physical device id); the driver below owns the
/// redistribution / retry / fallback policy.
void multi_gpu_attempt(const CsrGraph& g, const PartitionOptions& opts,
                       MultiGpuLog* log, const std::vector<int>& phys,
                       vid_t handoff, FaultInjector* injector,
                       RefinementShed& shed, PartitionResult& res) {
  const int D = static_cast<int>(phys.size());
  const AuditLevel audit = opts.audit_level;
  // Audits are tallied here; a failed one throws for the driver's retry
  // ladder (the distributed shard state has no cheaper recovery unit
  // than the attempt).
  RunHealth* health = &res.health;

  // One simulated device per GPU, each with its own ledger so stages can
  // be rolled up as max-over-devices.
  Device::Config dc;
  if (opts.gpu_memory_bytes > 0) dc.memory_bytes = opts.gpu_memory_bytes;
  if (opts.gpu_host_workers > 0) dc.host_workers = opts.gpu_host_workers;
  std::vector<std::unique_ptr<Device>> devices;
  std::vector<CostLedger> dev_ledgers(static_cast<std::size_t>(D));
  for (int d = 0; d < D; ++d) {
    devices.push_back(std::make_unique<Device>(dc));
    devices.back()->set_ledger(&dev_ledgers[static_cast<std::size_t>(d)]);
    devices.back()->set_fault_injector(injector,
                                       phys[static_cast<std::size_t>(d)]);
    devices.back()->set_cancel_token(opts.cancel);
    devices.back()->set_leak_sink(&res.exec.pool_leaked_blocks);
  }

  // ---- initial block split + shard upload ----
  auto make_shards = [&](const std::vector<eid_t>& adjp,
                         const std::vector<vid_t>& adjncy,
                         const std::vector<wgt_t>& adjwgt,
                         const std::vector<wgt_t>& vwgt,
                         const std::vector<vid_t>& vtxdist,
                         const std::string& tag) {
    std::vector<DeviceShard> shards(static_cast<std::size_t>(D));
    for (int d = 0; d < D; ++d) {
      auto& s = shards[static_cast<std::size_t>(d)];
      s.begin = vtxdist[static_cast<std::size_t>(d)];
      s.end = vtxdist[static_cast<std::size_t>(d) + 1];
      const auto nb = static_cast<std::size_t>(s.begin);
      const auto ne = static_cast<std::size_t>(s.end);
      const auto ab = static_cast<std::size_t>(adjp[nb]);
      const auto ae = static_cast<std::size_t>(adjp[ne]);
      s.h_adjp.assign(adjp.begin() + static_cast<std::ptrdiff_t>(nb),
                      adjp.begin() + static_cast<std::ptrdiff_t>(ne) + 1);
      for (auto& x : s.h_adjp) x -= static_cast<eid_t>(ab);  // local offsets
      s.h_adjncy.assign(adjncy.begin() + static_cast<std::ptrdiff_t>(ab),
                        adjncy.begin() + static_cast<std::ptrdiff_t>(ae));
      s.h_adjwgt.assign(adjwgt.begin() + static_cast<std::ptrdiff_t>(ab),
                        adjwgt.begin() + static_cast<std::ptrdiff_t>(ae));
      s.h_vwgt.assign(vwgt.begin() + static_cast<std::ptrdiff_t>(nb),
                      vwgt.begin() + static_cast<std::ptrdiff_t>(ne));
      Device& dev = *devices[static_cast<std::size_t>(d)];
      s.adjp = DeviceBuffer<eid_t>(dev, s.h_adjp.size(), tag + "/adjp");
      s.adjp.h2d(s.h_adjp);
      s.adjncy = DeviceBuffer<vid_t>(dev, s.h_adjncy.size(), tag + "/adjncy");
      s.adjncy.h2d(s.h_adjncy);
      s.adjwgt = DeviceBuffer<wgt_t>(dev, s.h_adjwgt.size(), tag + "/adjwgt");
      s.adjwgt.h2d(s.h_adjwgt);
      s.vwgt = DeviceBuffer<wgt_t>(dev, s.h_vwgt.size(), tag + "/vwgt");
      s.vwgt.h2d(s.h_vwgt);
      // Transfer-integrity audit: kernels index through the device copy
      // of the structure arrays, so a flipped bit there (a `flip` fault
      // rule) must be caught BEFORE any kernel consumes it — afterwards
      // it is an out-of-bounds access, not a wrong answer.
      if (audit != AuditLevel::kOff) {
        const bool clean = s.adjp.d2h_vector() == s.h_adjp &&
                           s.adjncy.d2h_vector() == s.h_adjncy &&
                           s.adjwgt.d2h_vector() == s.h_adjwgt &&
                           s.vwgt.d2h_vector() == s.h_vwgt;
        require_audit(health,
                      clean ? AuditFailure{}
                            : AuditFailure{AuditFailure::Kind::kCsr,
                                           "transfer-integrity",
                                           tag + ": device shard of gpu " +
                                               std::to_string(d) +
                                               " differs from host source"});
      }
    }
    return shards;
  };

  std::vector<vid_t> vtxdist(static_cast<std::size_t>(D) + 1);
  for (int d = 0; d <= D; ++d) {
    vtxdist[static_cast<std::size_t>(d)] = static_cast<vid_t>(
        (static_cast<std::int64_t>(g.num_vertices()) * d) / D);
  }

  std::vector<ShardLevel> levels;
  {
    const PhaseScope transfer(&res.ledger, Phase::kTransfer);
    ConcurrentStage stage(res.ledger, dev_ledgers, "transfer/h2d/shards");
    ShardLevel l0;
    l0.shards = make_shards(g.adjp(), g.adjncy(), g.adjwgt(), g.vwgt(),
                            vtxdist, "G0");
    l0.fine_vtxdist = vtxdist;
    levels.push_back(std::move(l0));
  }

  // ---- multi-device coarsening ----
  PhaseScope phase(&res.ledger, Phase::kCoarsen);
  std::uint64_t halo_bytes = 0;
  int lvl = 0;
  std::int64_t launch_threads = opts.gpu_threads;
  while (true) {
    check_cancelled(opts, "multi/gpu-coarsen");
    ShardLevel& cur = levels.back();
    vid_t total_n = 0;
    for (const auto& s : cur.shards) total_n += s.local_n();
    if (total_n <= handoff) break;
    const std::string L = "/L" + std::to_string(lvl);

    // 1. local matching + conflict resolution + local cmap, per device.
    cur.cmaps.assign(static_cast<std::size_t>(D), {});
    std::vector<vid_t> coarse_count(static_cast<std::size_t>(D), 0);
    {
      ConcurrentStage stage(res.ledger, dev_ledgers,
                            "kernel/coarsen/mgpu-match" + L);
      for (int d = 0; d < D; ++d) {
        DeviceShard& s = cur.shards[static_cast<std::size_t>(d)];
        Device& dev = *devices[static_cast<std::size_t>(d)];
        const vid_t n = s.local_n();
        const std::int64_t T = std::max<std::int64_t>(
            1, std::min<std::int64_t>(launch_threads / D, n));

        DeviceBuffer<vid_t> match(dev, static_cast<std::size_t>(n),
                                  "coarsen/match" + L);
        vid_t* mt = match.data();
        const eid_t* adjp = s.adjp.data();
        const vid_t* adjncy = s.adjncy.data();
        const wgt_t* adjwgt = s.adjwgt.data();
        const vid_t sb = s.begin, se = s.end;

        auto match_body = [&](std::int64_t t) -> std::uint64_t {
          Rng rng(opts.seed + static_cast<std::uint64_t>(lvl) * 977 +
                  static_cast<std::uint64_t>(d) * 131071 +
                  static_cast<std::uint64_t>(t));
          std::uint64_t work = 0;
          for (vid_t v = static_cast<vid_t>(t); v < n;
               v += static_cast<vid_t>(T)) {
            if (racy_load(mt[v]) != kInvalidVid) continue;
            const eid_t lo = adjp[v], hi = adjp[v + 1];
            work += static_cast<std::uint64_t>(hi - lo);
            vid_t best = kInvalidVid;
            wgt_t best_w = -1;
            const auto deg = static_cast<std::size_t>(hi - lo);
            const std::size_t rot = deg ? rng.next_below(deg) : 0;
            for (std::size_t j = 0; j < deg; ++j) {
              const eid_t idx = lo + static_cast<eid_t>((j + rot) % deg);
              const vid_t gu = adjncy[idx];
              if (gu < sb || gu >= se) continue;  // halo: never matched
              const vid_t u = gu - sb;
              if (racy_load(mt[u]) != kInvalidVid) continue;
              if (adjwgt[idx] > best_w) {
                best_w = adjwgt[idx];
                best = u;
              }
            }
            if (best == kInvalidVid) {
              racy_store(mt[v], v);
            } else {
              racy_store(mt[v], best);
              racy_store(mt[best], v);
            }
          }
          return work;
        };
        auto resolve_body = [&](std::int64_t t) -> std::uint64_t {
          std::uint64_t work = 0;
          for (vid_t v = static_cast<vid_t>(t); v < n;
               v += static_cast<vid_t>(T)) {
            ++work;
            const vid_t m = racy_load(mt[v]);
            if (m == kInvalidVid) {
              racy_store(mt[v], v);
              continue;
            }
            if (m != v && racy_load(mt[m]) != v) {
              racy_store(mt[v], v);
            }
          }
          return work;
        };

        // cmap (4-kernel pipeline, local labels 0..nc-1).
        DeviceBuffer<vid_t> cmap(dev, static_cast<std::size_t>(n),
                                 "cmap" + L);
        vid_t* cm = cmap.data();
        auto final_body = [&](std::int64_t t) -> std::uint64_t {
          std::uint64_t w = 0;
          for (vid_t v = static_cast<vid_t>(t); v < n;
               v += static_cast<vid_t>(T)) {
            if (v > mt[v]) cm[v] = cm[mt[v]];
            ++w;
          }
          return w;
        };

        vid_t nc = 0;
        if (opts.gpu_scan == GpuScanMode::kLookback) {
          // The whole per-device level chain is one fused dispatch; the
          // cmap init/scan/sub triple collapses into a single look-back
          // scan stage (same transform as gpu_match's fused path).
          dev.launch_fused("coarsen/level" + L, [&](Device::Fused& f) {
            f.stage_streamed("fill", n, sizeof(vid_t),
                             [&](std::int64_t v) { mt[v] = kInvalidVid; });
            f.stage("match", T, match_body);
            f.stage("resolve", T, resolve_body);
            if (n > 0) {
              nc = lookback_scan_stage<vid_t>(
                  dev, f, "cmap_scan", n, sizeof(vid_t),
                  [&](std::int64_t v) -> vid_t {
                    return (v <= mt[v]) ? 1 : 0;
                  },
                  [&](std::int64_t v, vid_t inc, vid_t) { cm[v] = inc - 1; });
            }
            f.stage("cmap_final", T, final_body);
          });
        } else {
          match.fill(kInvalidVid);
          dev.launch("coarsen/match" + L, T, match_body);
          dev.launch("coarsen/resolve" + L, T, resolve_body);
          dev.launch("coarsen/cmap/init" + L, T,
                     [&](std::int64_t t) -> std::uint64_t {
                       std::uint64_t w = 0;
                       for (vid_t v = static_cast<vid_t>(t); v < n;
                            v += static_cast<vid_t>(T)) {
                         cm[v] = (v <= mt[v]) ? 1 : 0;
                         ++w;
                       }
                       return w;
                     });
          nc = n > 0 ? device_inclusive_scan(dev, cmap,
                                             "coarsen/cmap/scan" + L,
                                             GpuScanMode::kBlocked)
                     : 0;
          dev.launch("coarsen/cmap/sub" + L, T,
                     [&](std::int64_t t) -> std::uint64_t {
                       std::uint64_t w = 0;
                       for (vid_t v = static_cast<vid_t>(t); v < n;
                            v += static_cast<vid_t>(T)) {
                         cm[v] -= 1;
                         ++w;
                       }
                       return w;
                     });
          dev.launch("coarsen/cmap/final" + L, T, final_body);
        }
        coarse_count[static_cast<std::size_t>(d)] = nc;
        cur.cmaps[static_cast<std::size_t>(d)] = cmap.d2h_vector();
        // Range audit BEFORE the host consumes the downloaded cmap: the
        // leader/partner scans and the halo owner lookups index host
        // arrays with these values, so a flipped entry would be an
        // out-of-bounds access there rather than a wrong answer.
        if (audit != AuditLevel::kOff) {
          AuditFailure f;
          for (const vid_t c : cur.cmaps[static_cast<std::size_t>(d)]) {
            if (c < 0 || c >= nc) {
              f = AuditFailure{
                  AuditFailure::Kind::kContraction, "cmap-range",
                  "gpu " + std::to_string(d) + " level " +
                      std::to_string(lvl) + ": coarse map entry " +
                      std::to_string(c) + " outside [0, " +
                      std::to_string(nc) + ")"};
              break;
            }
          }
          require_audit(health, std::move(f));
        }
      }
    }

    // 2. host: global coarse numbering (offset per device) and the
    // per-device cmap made GLOBAL.
    std::vector<vid_t> coarse_off(static_cast<std::size_t>(D) + 1, 0);
    for (int d = 0; d < D; ++d) {
      coarse_off[static_cast<std::size_t>(d) + 1] =
          coarse_off[static_cast<std::size_t>(d)] +
          coarse_count[static_cast<std::size_t>(d)];
    }
    const vid_t n_coarse = coarse_off[static_cast<std::size_t>(D)];
    for (int d = 0; d < D; ++d) {
      for (auto& c : cur.cmaps[static_cast<std::size_t>(d)]) {
        c += coarse_off[static_cast<std::size_t>(d)];
      }
    }
    if (static_cast<double>(n_coarse) >
        opts.min_shrink * static_cast<double>(total_n)) {
      break;  // matching stalled (halo-restricted matching can stall
              // earlier than single-device matching)
    }

    // 3. halo-cmap exchange: each device receives the sorted (halo id ->
    // global coarse id) table for its halo set (metered upload).
    std::vector<HaloTable> halo(static_cast<std::size_t>(D));
    {
      const PhaseScope transfer(&res.ledger, Phase::kTransfer);
      ConcurrentStage stage(res.ledger, dev_ledgers,
                            "transfer/mgpu-halo-cmap" + L);
      for (int d = 0; d < D; ++d) {
        DeviceShard& s = cur.shards[static_cast<std::size_t>(d)];
        Device& dev = *devices[static_cast<std::size_t>(d)];
        const auto ids = halo_ids_of(s);
        std::vector<vid_t> vals(ids.size());
        for (std::size_t i = 0; i < ids.size(); ++i) {
          // Owner lookup on the host (the exchange a real implementation
          // performs device-to-device through the PCIe switch).
          const vid_t gid = ids[i];
          // A corrupted coarse id from the previous level's contraction
          // (flipped halo-table upload) surfaces here as an id outside
          // the global range; trap it as a device fault before the owner
          // scan walks off the end of vtxdist.
          if (gid < 0 || gid >= cur.fine_vtxdist.back()) {
            throw DeviceFailure(
                "corrupted halo id in mgpu-halo-cmap exchange",
                dev.device_id());
          }
          int owner = 0;
          while (gid >= cur.fine_vtxdist[static_cast<std::size_t>(owner) + 1])
            ++owner;
          vals[i] = cur.cmaps[static_cast<std::size_t>(owner)]
                             [static_cast<std::size_t>(
                                 gid - cur.fine_vtxdist[static_cast<std::size_t>(
                                           owner)])];
        }
        halo_bytes += ids.size() * (sizeof(vid_t) * 2);
        auto& h = halo[static_cast<std::size_t>(d)];
        h.size = ids.size();
        h.ids = DeviceBuffer<vid_t>(dev, std::max<std::size_t>(1, ids.size()),
                                    "halo_ids" + L);
        h.vals = DeviceBuffer<vid_t>(dev, std::max<std::size_t>(1, ids.size()),
                                     "halo_vals" + L);
        if (!ids.empty()) {
          h.ids.h2d(std::span<const vid_t>(ids.data(), ids.size()));
          h.vals.h2d(std::span<const vid_t>(vals.data(), vals.size()));
        }
      }
    }

    // 4. contraction per device into global-coarse-id adjacency.
    std::vector<vid_t> coarse_vtxdist = coarse_off;
    ShardLevel next;
    next.fine_vtxdist = coarse_vtxdist;
    next.shards.resize(static_cast<std::size_t>(D));
    {
      ConcurrentStage stage(res.ledger, dev_ledgers,
                            "kernel/coarsen/mgpu-contract" + L);
      for (int d = 0; d < D; ++d) {
        DeviceShard& s = cur.shards[static_cast<std::size_t>(d)];
        Device& dev = *devices[static_cast<std::size_t>(d)];
        const vid_t n = s.local_n();
        const vid_t nc = coarse_count[static_cast<std::size_t>(d)];
        const auto& cmap = cur.cmaps[static_cast<std::size_t>(d)];
        const auto& h = halo[static_cast<std::size_t>(d)];
        const vid_t* hid = h.ids.data();
        const vid_t* hval = h.vals.data();
        const std::size_t hsz = h.size;
        const vid_t sb = s.begin, se = s.end;
        const vid_t cb = coarse_off[static_cast<std::size_t>(d)];

        // Leader list: local coarse ordinal -> local fine leader (the
        // first fine vertex mapping to the coarse id, by construction of
        // the cmap pipeline).
        std::vector<vid_t> leaders(static_cast<std::size_t>(nc));
        std::vector<char> seen(static_cast<std::size_t>(nc), 0);
        for (vid_t v = 0; v < n; ++v) {
          const auto lc = static_cast<std::size_t>(
              cmap[static_cast<std::size_t>(v)] - cb);
          if (!seen[lc]) {
            seen[lc] = 1;
            leaders[lc] = v;
          }
        }
        DeviceBuffer<vid_t> d_leaders(dev, std::max<std::size_t>(1, leaders.size()),
                                      "leaders" + L);
        if (!leaders.empty()) {
          d_leaders.h2d(std::span<const vid_t>(leaders.data(), leaders.size()));
        }
        DeviceBuffer<vid_t> d_cmap(dev, std::max<std::size_t>(1, cmap.size()),
                                   "gcmap" + L);
        if (!cmap.empty()) {
          d_cmap.h2d(std::span<const vid_t>(cmap.data(), cmap.size()));
        }
        const vid_t* ld = d_leaders.data();
        const vid_t* cm = d_cmap.data();
        const eid_t* adjp = s.adjp.data();
        const vid_t* adjncy = s.adjncy.data();
        const wgt_t* adjwgt = s.adjwgt.data();
        const wgt_t* vw = s.vwgt.data();

        // Pair partner of a leader: second fine vertex with the same
        // coarse id (if any) — recovered on host for kernel simplicity.
        std::vector<vid_t> partner(static_cast<std::size_t>(nc),
                                   kInvalidVid);
        {
          std::vector<char> first(static_cast<std::size_t>(nc), 0);
          for (vid_t v = 0; v < n; ++v) {
            const auto lc = static_cast<std::size_t>(
                cmap[static_cast<std::size_t>(v)] - cb);
            if (!first[lc]) {
              first[lc] = 1;
            } else {
              partner[lc] = v;
            }
          }
        }
        DeviceBuffer<vid_t> d_partner(
            dev, std::max<std::size_t>(1, partner.size()), "partner" + L);
        if (!partner.empty()) {
          d_partner.h2d(std::span<const vid_t>(partner.data(), partner.size()));
        }
        const vid_t* pt = d_partner.data();

        const std::int64_t T = std::max<std::int64_t>(
            1, std::min<std::int64_t>(launch_threads / D,
                                      std::max<vid_t>(1, nc)));
        auto block = [&](std::int64_t t) {
          const std::int64_t chunk = nc / T, rem = nc % T;
          const std::int64_t b = t * chunk + std::min<std::int64_t>(t, rem);
          return std::pair<vid_t, vid_t>(
              static_cast<vid_t>(b),
              static_cast<vid_t>(b + chunk + (t < rem ? 1 : 0)));
        };

        // Merge kernel with on-the-fly halo translation (binary search).
        struct Out {
          std::vector<vid_t> adjncy;
          std::vector<wgt_t> adjwgt;
        };
        std::vector<Out> outs(static_cast<std::size_t>(T));
        std::vector<eid_t> cdeg(static_cast<std::size_t>(nc) + 1, 0);
        std::vector<wgt_t> cvwgt(static_cast<std::size_t>(nc), 0);
        dev.launch("coarsen/contract/merge" + L, T,
                   [&](std::int64_t t) -> std::uint64_t {
                     auto [bb, ee] = block(t);
                     auto& out = outs[static_cast<std::size_t>(t)];
                     std::uint64_t work = 0;
                     std::vector<std::pair<vid_t, wgt_t>> scratch;
                     // The kernel indexes through device copies (leaders,
                     // partners, adjacency, halo table) that cross the
                     // corruptible bus; a flipped word there must surface
                     // as a device fault, not an out-of-bounds host read.
                     auto trap = [&](const char* what) {
                       throw DeviceFailure(
                           std::string("corrupted index in "
                                       "coarsen/contract/merge (") +
                               what + ")",
                           dev.device_id());
                     };
                     auto translate = [&](vid_t gu) -> vid_t {
                       if (gu >= sb && gu < se) return cm[gu - sb];
                       // halo: binary search the sorted table
                       std::size_t lo = 0, hi = hsz;
                       while (lo < hi) {
                         const std::size_t mid = (lo + hi) / 2;
                         if (hid[mid] < gu) lo = mid + 1;
                         else hi = mid;
                       }
                       work += 4;  // log-factor charge
                       if (lo >= hsz || hid[lo] != gu) trap("halo id");
                       return hval[lo];
                     };
                     const eid_t me = static_cast<eid_t>(s.adjncy.size());
                     for (vid_t c = bb; c < ee; ++c) {
                       const vid_t v = ld[c];
                       const vid_t u = pt[c];
                       if (v < 0 || v >= n) trap("leader");
                       if (u != kInvalidVid && (u < 0 || u >= n))
                         trap("partner");
                       const vid_t gc = cb + c;
                       cvwgt[static_cast<std::size_t>(c)] =
                           vw[v] + (u != kInvalidVid ? vw[u] : 0);
                       scratch.clear();
                       auto absorb = [&](vid_t src) {
                         const eid_t jb = adjp[src], je = adjp[src + 1];
                         if (jb < 0 || je < jb || je > me) trap("adjp row");
                         for (eid_t j = jb; j < je; ++j) {
                           const vid_t cu = translate(adjncy[j]);
                           if (cu == gc) continue;
                           scratch.emplace_back(cu, adjwgt[j]);
                           ++work;
                         }
                       };
                       absorb(v);
                       if (u != kInvalidVid) absorb(u);
                       std::sort(scratch.begin(), scratch.end());
                       work += scratch.size();
                       std::size_t o = 0;
                       for (std::size_t i = 0; i < scratch.size();) {
                         const vid_t k = scratch[i].first;
                         wgt_t x = 0;
                         while (i < scratch.size() && scratch[i].first == k)
                           x += scratch[i++].second;
                         scratch[o++] = {k, x};
                       }
                       scratch.resize(o);
                       cdeg[static_cast<std::size_t>(c) + 1] =
                           static_cast<eid_t>(o);
                       for (std::size_t i = 0; i < o; ++i) {
                         out.adjncy.push_back(scratch[i].first);
                         out.adjwgt.push_back(scratch[i].second);
                       }
                     }
                     return work;
                   });
        for (vid_t c = 0; c < nc; ++c) {
          cdeg[static_cast<std::size_t>(c) + 1] +=
              cdeg[static_cast<std::size_t>(c)];
        }
        std::vector<vid_t> cadjncy;
        std::vector<wgt_t> cadjwgt;
        cadjncy.reserve(static_cast<std::size_t>(cdeg.back()));
        cadjwgt.reserve(static_cast<std::size_t>(cdeg.back()));
        for (const auto& o : outs) {
          cadjncy.insert(cadjncy.end(), o.adjncy.begin(), o.adjncy.end());
          cadjwgt.insert(cadjwgt.end(), o.adjwgt.begin(), o.adjwgt.end());
        }

        // Upload the coarse shard to the device; keep the host mirror.
        DeviceShard cs;
        cs.begin = coarse_vtxdist[static_cast<std::size_t>(d)];
        cs.end = coarse_vtxdist[static_cast<std::size_t>(d) + 1];
        cs.h_adjp = std::move(cdeg);
        cs.h_adjncy = std::move(cadjncy);
        cs.h_adjwgt = std::move(cadjwgt);
        cs.h_vwgt = std::move(cvwgt);
        cs.adjp = DeviceBuffer<eid_t>(dev, cs.h_adjp.size(), "cadjp" + L);
        cs.adjp.h2d(cs.h_adjp);
        cs.adjncy =
            DeviceBuffer<vid_t>(dev, std::max<std::size_t>(1, cs.h_adjncy.size()),
                                "cadjncy" + L);
        if (!cs.h_adjncy.empty()) cs.adjncy.h2d(cs.h_adjncy);
        cs.adjwgt =
            DeviceBuffer<wgt_t>(dev, std::max<std::size_t>(1, cs.h_adjwgt.size()),
                                "cadjwgt" + L);
        if (!cs.h_adjwgt.empty()) cs.adjwgt.h2d(cs.h_adjwgt);
        cs.vwgt = DeviceBuffer<wgt_t>(dev, std::max<std::size_t>(1, cs.h_vwgt.size()),
                                      "cvwgt" + L);
        if (!cs.h_vwgt.empty()) cs.vwgt.h2d(cs.h_vwgt);
        if (audit != AuditLevel::kOff) {
          const bool clean = cs.adjp.d2h_vector() == cs.h_adjp &&
                             (cs.h_adjncy.empty() ||
                              cs.adjncy.d2h_vector() == cs.h_adjncy) &&
                             (cs.h_adjwgt.empty() ||
                              cs.adjwgt.d2h_vector() == cs.h_adjwgt) &&
                             (cs.h_vwgt.empty() ||
                              cs.vwgt.d2h_vector() == cs.h_vwgt);
          require_audit(health,
                        clean ? AuditFailure{}
                              : AuditFailure{AuditFailure::Kind::kCsr,
                                             "transfer-integrity",
                                             "coarse shard of gpu " +
                                                 std::to_string(d) +
                                                 " at level " +
                                                 std::to_string(lvl) +
                                                 " differs from host source"});
        }
        next.shards[static_cast<std::size_t>(d)] = std::move(cs);
      }
    }

    // Cross-device conservation audit: contraction only merges vertices,
    // so the shard-summed vertex weight is level-invariant.  This is the
    // cheapest whole-level check that catches a corrupted contraction on
    // any one device after the per-device artifacts are merged.
    if (audit != AuditLevel::kOff) {
      wgt_t fine_w = 0, coarse_w = 0;
      for (const auto& s : cur.shards)
        for (const wgt_t w : s.h_vwgt) fine_w += w;
      for (const auto& s : next.shards)
        for (const wgt_t w : s.h_vwgt) coarse_w += w;
      require_audit(health,
                    fine_w == coarse_w
                        ? AuditFailure{}
                        : AuditFailure{AuditFailure::Kind::kContraction,
                                       "vertex-weight-conservation",
                                       "level " + std::to_string(lvl) +
                                           ": fine shards weigh " +
                                           std::to_string(fine_w) +
                                           ", coarse shards weigh " +
                                           std::to_string(coarse_w)});
    }

    levels.push_back(std::move(next));
    ++lvl;
    launch_threads = std::max<std::int64_t>(256 * D, launch_threads / 2);
  }
  const int gpu_lvls = static_cast<int>(levels.size()) - 1;

  // ---- gather coarse graph, CPU stage ----
  const ShardLevel& top = levels.back();
  CsrGraph cpu_graph;
  {
    std::vector<eid_t> adjp{0};
    std::vector<vid_t> adjncy;
    std::vector<wgt_t> adjwgt, vwgt;
    for (const auto& s : top.shards) {
      const eid_t base = adjp.back();
      for (std::size_t i = 1; i < s.h_adjp.size(); ++i) {
        adjp.push_back(base + s.h_adjp[i]);
      }
      adjncy.insert(adjncy.end(), s.h_adjncy.begin(), s.h_adjncy.end());
      adjwgt.insert(adjwgt.end(), s.h_adjwgt.begin(), s.h_adjwgt.end());
      vwgt.insert(vwgt.end(), s.h_vwgt.begin(), s.h_vwgt.end());
    }
    // The gather is a real D2H of every shard.
    std::uint64_t bytes = 0;
    for (const auto& s : top.shards) {
      bytes += s.h_adjp.size() * sizeof(eid_t) +
               s.h_adjncy.size() * (sizeof(vid_t) + sizeof(wgt_t)) +
               s.h_vwgt.size() * sizeof(wgt_t);
    }
    res.ledger.charge_transfer("transfer/d2h/mgpu-gather", bytes);
    cpu_graph = CsrGraph(std::move(adjp), std::move(adjncy),
                         std::move(adjwgt), std::move(vwgt));
  }

  // Handoff audit: the CPU stage trusts this gathered graph completely,
  // so it is the last place a corrupted coarsening can be caught before
  // it silently shapes the initial partition.
  if (audit != AuditLevel::kOff) {
    require_audit(health, audit_csr(cpu_graph, audit));
    wgt_t handoff_w = 0;
    for (vid_t v = 0; v < cpu_graph.num_vertices(); ++v) {
      handoff_w += cpu_graph.vertex_weight(v);
    }
    require_audit(health,
                  handoff_w == g.total_vertex_weight()
                      ? AuditFailure{}
                      : AuditFailure{AuditFailure::Kind::kContraction,
                                     "handoff-weight",
                                     "gathered coarse graph weighs " +
                                         std::to_string(handoff_w) +
                                         ", input weighs " +
                                         std::to_string(
                                             g.total_vertex_weight())});
  }

  check_cancelled(opts, "multi/cpu-middle");
  ThreadPool pool(opts.threads);
  pool.set_cancel_token(opts.cancel);
  pool.set_fault_injector(injector);
  MtBackend mt_backend(opts, MtContext{&pool, &res.ledger, opts.seed});
  const auto mt_out =
      vcycle_pipeline(cpu_graph, opts, mt_backend, gpu_lvls,
                      VcycleControl{injector, &res.health, &shed});

  // ---- uncoarsening: host-authoritative labels, device proposals ----
  phase.enter(Phase::kUncoarsen);
  std::vector<part_t> where = mt_out.partition.where;  // coarse level
  const wgt_t total_w = g.total_vertex_weight();
  const wgt_t max_pw = max_part_weight(total_w, opts.k, opts.eps);
  const wgt_t min_pw = min_part_weight(total_w, opts.k, opts.eps);
  std::uint64_t replay_moves = 0;

  for (int i = gpu_lvls - 1; i >= 0; --i) {
    check_cancelled(opts, "multi/gpu-uncoarsen");
    const ShardLevel& fine_level = levels[static_cast<std::size_t>(i)];
    const std::string L = "/L" + std::to_string(i);

    // Projection (host-side through the stored global cmaps — one gather
    // already paid; the per-device projection kernel is charged).
    vid_t fine_n = 0;
    for (const auto& s : fine_level.shards) fine_n += s.local_n();
    std::vector<part_t> fwhere(static_cast<std::size_t>(fine_n));
    {
      ConcurrentStage stage(res.ledger, dev_ledgers,
                            "kernel/uncoarsen/mgpu-project" + L);
      for (int d = 0; d < D; ++d) {
        const DeviceShard& s = fine_level.shards[static_cast<std::size_t>(d)];
        Device& dev = *devices[static_cast<std::size_t>(d)];
        const auto& cmap = fine_level.cmaps[static_cast<std::size_t>(d)];
        const vid_t n = s.local_n();
        const std::int64_t T = std::max<std::int64_t>(
            1, std::min<std::int64_t>(launch_threads, n));
        dev.launch("uncoarsen/project" + L, T,
                   [&](std::int64_t t) -> std::uint64_t {
                     std::uint64_t w = 0;
                     for (vid_t v = static_cast<vid_t>(t); v < n;
                          v += static_cast<vid_t>(T)) {
                       fwhere[static_cast<std::size_t>(s.begin + v)] =
                           where[static_cast<std::size_t>(
                               cmap[static_cast<std::size_t>(v)])];
                       ++w;
                     }
                     return w;
                   });
      }
    }
    where = std::move(fwhere);

    // Past the deadline, projection still runs (correctness) but the
    // propose/replay passes are shed — the partition stays valid, just
    // less refined.
    if (shed.expired()) continue;

    // Refinement: devices propose, host replays.
    std::vector<wgt_t> pw(static_cast<std::size_t>(opts.k), 0);
    for (int d = 0; d < D; ++d) {
      const DeviceShard& s = fine_level.shards[static_cast<std::size_t>(d)];
      for (vid_t v = 0; v < s.local_n(); ++v) {
        pw[static_cast<std::size_t>(
            where[static_cast<std::size_t>(s.begin + v)])] += s.h_vwgt
            [static_cast<std::size_t>(v)];
      }
    }
    int idle_passes = 0;
    for (int pass = 0; pass < opts.refine_passes; ++pass) {
      const bool upward = (pass % 2 == 0);
      std::vector<HostMoveRequest> all;
      {
        ConcurrentStage stage(
            res.ledger, dev_ledgers,
            "kernel/uncoarsen/mgpu-propose" + L + "/p" + std::to_string(pass));
        for (int d = 0; d < D; ++d) {
          const DeviceShard& s =
              fine_level.shards[static_cast<std::size_t>(d)];
          Device& dev = *devices[static_cast<std::size_t>(d)];
          const vid_t n = s.local_n();
          // Label slice + halo labels travel to the device each pass.
          dev.meter_h2d(static_cast<std::size_t>(n) * sizeof(part_t),
                        "where-slice" + L);
          const std::int64_t T = std::max<std::int64_t>(
              1, std::min<std::int64_t>(launch_threads, n));
          std::vector<std::vector<HostMoveRequest>> per_chunk(
              static_cast<std::size_t>(T));
          const eid_t* adjp = s.adjp.data();
          const vid_t* adjncy = s.adjncy.data();
          const wgt_t* adjwgt = s.adjwgt.data();
          dev.launch(
              "uncoarsen/refine/propose" + L, T,
              [&](std::int64_t t) -> std::uint64_t {
                std::uint64_t work = 0;
                auto& out = per_chunk[static_cast<std::size_t>(t)];
                std::vector<wgt_t> conn(static_cast<std::size_t>(opts.k), 0);
                std::vector<part_t> parts;
                for (vid_t v = static_cast<vid_t>(t); v < n;
                     v += static_cast<vid_t>(T)) {
                  const vid_t gv = s.begin + v;
                  const part_t pv = where[static_cast<std::size_t>(gv)];
                  const eid_t lo = adjp[v], hi = adjp[v + 1];
                  work += static_cast<std::uint64_t>(hi - lo) + 1;
                  parts.clear();
                  wgt_t internal = 0;
                  for (eid_t j = lo; j < hi; ++j) {
                    const part_t pu =
                        where[static_cast<std::size_t>(adjncy[j])];
                    if (pu == pv) {
                      internal += adjwgt[j];
                      continue;
                    }
                    if (conn[static_cast<std::size_t>(pu)] == 0)
                      parts.push_back(pu);
                    conn[static_cast<std::size_t>(pu)] += adjwgt[j];
                  }
                  const bool over =
                      pw[static_cast<std::size_t>(pv)] > max_pw;
                  part_t best = kInvalidPart;
                  wgt_t best_conn =
                      over ? std::numeric_limits<wgt_t>::min() : internal;
                  for (const part_t q : parts) {
                    if (upward ? (q <= pv) : (q >= pv)) continue;
                    if (conn[static_cast<std::size_t>(q)] > best_conn) {
                      best_conn = conn[static_cast<std::size_t>(q)];
                      best = q;
                    }
                  }
                  for (const part_t q : parts)
                    conn[static_cast<std::size_t>(q)] = 0;
                  if (best == kInvalidPart) continue;
                  out.push_back({gv, pv, best, best_conn - internal});
                }
                return work;
              });
          std::size_t cnt = 0;
          for (const auto& c : per_chunk) cnt += c.size();
          dev.meter_d2h(cnt * sizeof(HostMoveRequest), "proposals" + L);
          for (auto& c : per_chunk) {
            all.insert(all.end(), c.begin(), c.end());
          }
        }
      }

      // Host replay, deterministic: sort by gain desc then vertex id.
      std::sort(all.begin(), all.end(),
                [](const HostMoveRequest& a, const HostMoveRequest& b) {
                  if (a.gain != b.gain) return a.gain > b.gain;
                  return a.v < b.v;
                });
      auto vwgt_of = [&](vid_t gv) -> wgt_t {
        const auto it =
            std::upper_bound(fine_level.fine_vtxdist.begin(),
                             fine_level.fine_vtxdist.end(), gv);
        const auto d = static_cast<std::size_t>(
            it - fine_level.fine_vtxdist.begin() - 1);
        const DeviceShard& sh = fine_level.shards[d];
        return sh.h_vwgt[static_cast<std::size_t>(gv - sh.begin)];
      };
      std::uint64_t committed = 0;
      for (const auto& mv : all) {
        const wgt_t vw = vwgt_of(mv.v);
        if (pw[static_cast<std::size_t>(mv.to)] + vw > max_pw) continue;
        if (pw[static_cast<std::size_t>(mv.from)] - vw < min_pw) continue;
        pw[static_cast<std::size_t>(mv.from)] -= vw;
        pw[static_cast<std::size_t>(mv.to)] += vw;
        where[static_cast<std::size_t>(mv.v)] = mv.to;
        ++committed;
      }
      res.ledger.charge_serial(
          "uncoarsen/mgpu-replay" + L + "/p" + std::to_string(pass),
          all.size());
      replay_moves += committed;
      // Both alternating directions must go idle before stopping.
      idle_passes = (committed == 0) ? idle_passes + 1 : 0;
      if (idle_passes >= 2) break;
    }
  }

  res.partition.k = opts.k;
  res.partition.where = std::move(where);
  // Final audit gates the metric computations: a corrupted label would
  // index the per-part accumulators out of bounds inside edge_cut.
  if (audit != AuditLevel::kOff) {
    require_audit(health, audit_partition(g, res.partition, opts.k, opts.eps,
                                          /*expected_cut=*/-1, audit));
  }
  res.cut = edge_cut(g, res.partition);
  res.balance = partition_balance(g, res.partition);
  res.coarsen_levels = gpu_lvls + mt_out.levels;
  res.coarsest_vertices = mt_out.coarsest_vertices;
  for (const auto& dev : devices) {
    res.exec += DeviceExecStats{dev->kernels_launched(), dev->pool_hits(),
                                dev->pool_misses(),
                                dev->pool_recycled_bytes()};
  }

  if (log) {
    log->devices = D;
    log->gpu_coarsen_levels = gpu_lvls;
    std::size_t peak = 0;
    for (const auto& dev : devices) peak = std::max(peak, dev->peak_bytes());
    log->peak_device_bytes = peak;
    log->halo_exchange_bytes = halo_bytes;
    log->refine_replay_moves = replay_moves;
  }
}

}  // namespace

PartitionResult multi_gpu_run(const CsrGraph& g, const PartitionOptions& opts,
                              MultiGpuLog* log) {
  validate_options(g, opts);
  WallTimer wall;
  PartitionResult res;
  const std::unique_ptr<FaultInjector> injector = opts.make_fault_injector();
  const Watchdog watchdog(opts.time_budget_seconds);
  RefinementShed shed(watchdog, res.health);

  // Surviving physical devices.  A lost device is excluded and the vertex
  // blocks are redistributed over the remainder — the vtxdist rebuild at
  // the top of the attempt IS the redistribution (per-device blocks are
  // recomputed over the survivors).
  std::vector<int> phys(static_cast<std::size_t>(std::max(1, opts.gpu_devices)));
  std::iota(phys.begin(), phys.end(), 0);

  vid_t handoff =
      std::max<vid_t>(opts.gpu_cpu_threshold, opts.coarsen_target());
  const int max_attempts =
      static_cast<int>(phys.size()) + kMaxOomRetries + 1;
  bool gpu_ok = false;
  int attempts = 0;
  int oom_retries = 0;
  int audit_failures = 0;
  while (!gpu_ok && !phys.empty() && attempts < max_attempts) {
    if (log) *log = MultiGpuLog{};
    ++attempts;
    try {
      multi_gpu_attempt(g, opts, log, phys, handoff, injector.get(), shed,
                        res);
      gpu_ok = true;
    } catch (const AuditError& e) {
      // Without an injector an audit failure is a genuine logic bug —
      // never mask it behind a fallback.
      if (!injector) throw;
      ++res.health.rollbacks;
      ++res.health.gpu_retries;
      res.health.degraded = true;
      res.ledger.charge_raw("fault/device-reset", kDeviceResetSeconds);
      if (++audit_failures == 1) {
        res.health.note(
            "rollback: gp-metis-multi attempt restarted after failed audit (" +
            std::string(e.what()) + ")");
        log_warn("gp-metis-multi: audit failed, restarting attempt: %s",
                 e.what());
      } else {
        res.health.note("gp-metis-multi: repeated audit failure (" +
                        std::string(e.what()) +
                        "); abandoning the GPU path");
        log_warn("gp-metis-multi: repeated audit failure, degrading: %s",
                 e.what());
        break;
      }
    } catch (const DeviceFailure& e) {
      res.health.degraded = true;
      res.ledger.charge_raw("fault/device-reset", kDeviceResetSeconds);
      const auto it = std::find(phys.begin(), phys.end(), e.device_id());
      if (it != phys.end()) phys.erase(it);
      res.health.note("gp-metis-multi: device " +
                      std::to_string(e.device_id()) + " failed (" + e.what() +
                      "); redistributing over " +
                      std::to_string(phys.size()) + " surviving device(s)");
      log_warn("gp-metis-multi: lost device %d, %zu survive: %s",
               e.device_id(), phys.size(), e.what());
    } catch (const ThreadPoolTaskError& e) {
      // Injected `task` fault in a CPU phase: the attempt unwound at a
      // job boundary, so restart it like a transient device failure (one
      // rung — a second throw abandons the GPU path for the CPU ladder).
      ++res.health.gpu_retries;
      res.health.degraded = true;
      res.ledger.charge_raw("fault/task-restart", kDeviceResetSeconds);
      if (++audit_failures > 1) {
        res.health.note("gp-metis-multi: repeated pool task fault (" +
                        std::string(e.what()) +
                        "); abandoning the GPU path");
        break;
      }
      res.health.note("gp-metis-multi: pool task fault (" +
                      std::string(e.what()) + "); restarting attempt");
      log_warn("gp-metis-multi: pool task fault, restarting attempt: %s",
               e.what());
    } catch (const DeviceOutOfMemory& e) {
      res.health.gpu_retries += 1;
      res.health.degraded = true;
      res.ledger.charge_raw("fault/device-reset", kDeviceResetSeconds);
      if (++oom_retries > kMaxOomRetries || handoff >= g.num_vertices()) {
        res.health.note("gp-metis-multi: OOM retries exhausted (" +
                        std::string(e.what()) + ")");
        break;
      }
      const vid_t raised = handoff > g.num_vertices() / 4
                               ? g.num_vertices()
                               : handoff * 4;
      res.health.note("gp-metis-multi: OOM (" + std::string(e.what()) +
                      "); retrying with CPU handoff at " +
                      std::to_string(raised) + " vertices");
      log_warn("gp-metis-multi: device OOM, raising CPU handoff %d -> %d",
               handoff, raised);
      handoff = raised;
    }
  }
  if (!gpu_ok) {
    res.health.fallbacks += 1;
    res.health.degraded = true;
    res.health.note("gp-metis-multi: no usable GPU path; degrading to a "
                    "pure mt-metis run");
    log_warn("gp-metis-multi: degrading to pure mt-metis after %d attempts",
             attempts);
    if (log) *log = MultiGpuLog{};
    try {
      ThreadPool pool(opts.threads);
      pool.set_cancel_token(opts.cancel);
      pool.set_fault_injector(injector.get());
      MtBackend backend(opts, MtContext{&pool, &res.ledger, opts.seed});
      vcycle_attempt(g, opts, backend,
                     VcycleControl{injector.get(), &res.health, &shed},
                     res);
    } catch (const AuditError& e) {
      if (!injector) throw;
      // Terminal rung: serial reference implementation with corruption
      // suppressed — guaranteed to converge under probabilistic rules.
      serial_fallback(g, opts, injector.get(), "gp-metis-multi: CPU fallback",
                      e, res);
    }
  }
  finish_run(res, injector.get());
  if (log) {
    log->attempts = attempts;
    log->cpu_fallback = !gpu_ok;
    log->devices_lost = static_cast<int>(res.health.devices_lost);
  }
  res.wall_seconds = wall.seconds();
  return res;
}

PartitionResult MultiGpuPartitioner::run(const CsrGraph& g,
                                         const PartitionOptions& opts) const {
  return multi_gpu_run(g, opts, nullptr);
}

std::unique_ptr<Partitioner> make_multi_gpu_partitioner() {
  return std::make_unique<MultiGpuPartitioner>();
}

}  // namespace gp
