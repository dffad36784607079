#include "hybrid/multi_gpu_partitioner.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "core/distribution.hpp"
#include "hybrid/gpu_driver.hpp"
#include "hybrid/gpu_matching.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace gp {

namespace {

/// One level of the multi-device hierarchy, the way parmetis keeps its
/// levels: the level graph in global ids on the host, its block
/// distribution over the devices, and (once the level is coarsened) the
/// global fine -> coarse map.  Device d holds rows [dist.begin(d),
/// dist.end(d)) as shards[d], whose adjncy keeps global ids (halo arcs
/// point outside the block).
struct ShardLevel {
  const CsrGraph* graph = nullptr;
  Distribution dist;
  std::vector<GpuGraph> shards;
  std::vector<vid_t> cmap;
};

/// Uploads rows [b, e) of a level graph in global ids to device `d` as its
/// shard, adjp rebased to the range's first arc, and audits the transfer.
/// `g` may be a level still being assembled: only rows < e are read.
GpuGraph upload_rows(Device& dev, int d, const HostCsr& g, vid_t b, vid_t e,
                     const std::string& tag, AuditLevel audit,
                     RunHealth* health) {
  std::vector<eid_t> adjp(g.adjp.begin() + b, g.adjp.begin() + e + 1);
  const eid_t first = adjp.front();
  for (auto& x : adjp) x -= first;
  const auto arcs = static_cast<std::size_t>(adjp.back());
  const HostCsr rows(adjp,
                     g.adjncy.subspan(static_cast<std::size_t>(first), arcs),
                     g.adjwgt.subspan(static_cast<std::size_t>(first), arcs),
                     g.vwgt.subspan(static_cast<std::size_t>(b),
                                    static_cast<std::size_t>(e - b)));
  GpuGraph shard = GpuGraph::upload(dev, rows, tag);
  audit_transfer(audit, health, shard, rows, AuditFailure::Kind::kCsr,
                 tag + ": device shard of gpu " + std::to_string(d) +
                     " differs from host source");
  return shard;
}

/// Sorted halo translation table uploaded to a device for one level:
/// ids[] (sorted unique global ids outside the local block) and vals[]
/// (their translation).  Kernels translate by binary search — the way
/// real distributed-GPU codes resolve ghost ids.
struct HaloTable {
  DeviceBuffer<vid_t> ids;
  DeviceBuffer<vid_t> vals;
  std::size_t size = 0;
};

/// Builds the sorted unique halo-id list of device d's rows of a level.
std::vector<vid_t> halo_ids_of(const ShardLevel& level, int d) {
  const vid_t b = level.dist.begin(d), e = level.dist.end(d);
  std::vector<vid_t> halo;
  for (vid_t v = b; v < e; ++v) {
    for (const vid_t u : level.graph->neighbors(v)) {
      if (u < b || u >= e) halo.push_back(u);
    }
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
  std::vector<std::unique_ptr<Device>> devices;
  std::vector<CostLedger> dev_ledgers(static_cast<std::size_t>(D));
  for (int d = 0; d < D; ++d) {
    devices.push_back(make_device(opts,
                                  &dev_ledgers[static_cast<std::size_t>(d)],
                                  injector, phys[static_cast<std::size_t>(d)],
                                  res));
  }

  // ---- initial block split + shard upload ----
  // Level 0 is the input graph; each coarse level's graph lives in
  // coarse_graphs, whose elements never move.
  std::deque<CsrGraph> coarse_graphs;
  std::vector<ShardLevel> levels(1);
  {
    const PhaseScope transfer(&res.ledger, Phase::kTransfer);
    ConcurrentStage stage(res.ledger, dev_ledgers, "transfer/h2d/shards");
    ShardLevel& l0 = levels.front();
    l0.graph = &g;
    l0.dist = Distribution::block(g.num_vertices(), D);
    for (int d = 0; d < D; ++d) {
      l0.shards.push_back(upload_rows(*devices[static_cast<std::size_t>(d)],
                                      d, g, l0.dist.begin(d), l0.dist.end(d),
                                      "G0", audit, health));
    }
  }

  // ---- multi-device coarsening ----
  PhaseScope phase(&res.ledger, Phase::kCoarsen);
  std::uint64_t halo_bytes = 0;
  int lvl = 0;
  std::int64_t launch_threads = opts.gpu_threads;
  while (true) {
    check_cancelled(opts, "multi/gpu-coarsen");
    ShardLevel& cur = levels.back();
    const CsrGraph& fine = *cur.graph;
    const vid_t total_n = fine.num_vertices();
    if (total_n <= handoff) break;
    const std::string L = "/L" + std::to_string(lvl);

    // 1. per device: gp-metis's match, resolve and cmap kernels on the
    // shard (halo arcs never match), with device d on seed + d.  Device
    // d's local coarse labels land in its block of the level's cmap.
    cur.cmap.assign(static_cast<std::size_t>(total_n), 0);
    std::vector<vid_t> coarse_count(static_cast<std::size_t>(D), 0);
    {
      ConcurrentStage stage(res.ledger, dev_ledgers,
                            "kernel/coarsen/mgpu-match" + L);
      for (int d = 0; d < D; ++d) {
        const GpuGraph& s = cur.shards[static_cast<std::size_t>(d)];
        const vid_t sb = cur.dist.begin(d);
        const GpuMatchResult m = gpu_match(
            *devices[static_cast<std::size_t>(d)], s, lvl,
            opts.seed + static_cast<std::uint64_t>(d), launch_threads / D,
            opts.gpu_scan, sb);
        const vid_t nc = m.n_coarse;
        coarse_count[static_cast<std::size_t>(d)] = nc;
        const std::span<vid_t> local(cur.cmap.data() + sb,
                                     static_cast<std::size_t>(s.n));
        m.cmap.d2h(local);
        // Range audit BEFORE the host consumes the downloaded cmap: the
        // leader/partner scans and the halo lookups index host arrays
        // with these values, so a flipped entry would be an
        // out-of-bounds access there rather than a wrong answer.
        if (audit != AuditLevel::kOff) {
          AuditFailure f;
          for (const vid_t c : local) {
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

    // 2. host: global coarse numbering, block by block, and the cmap
    // made GLOBAL.
    ShardLevel next;
    next.dist = Distribution::from_counts(coarse_count);
    const vid_t n_coarse = next.dist.vtxdist.back();
    for (int d = 0; d < D; ++d) {
      for (vid_t v = cur.dist.begin(d); v < cur.dist.end(d); ++v) {
        cur.cmap[static_cast<std::size_t>(v)] += next.dist.begin(d);
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
        Device& dev = *devices[static_cast<std::size_t>(d)];
        const auto ids = halo_ids_of(cur, d);
        std::vector<vid_t> vals(ids.size());
        for (std::size_t i = 0; i < ids.size(); ++i) {
          const vid_t gid = ids[i];
          // A corrupted coarse id from the previous level's contraction
          // (flipped halo-table upload) surfaces here as an id outside
          // the level; trap it as a device fault before it indexes the
          // cmap.
          if (gid < 0 || gid >= total_n) {
            throw DeviceFailure(
                "corrupted halo id in mgpu-halo-cmap exchange",
                dev.device_id());
          }
          // Read on the host: the exchange a real implementation performs
          // device-to-device through the PCIe switch.
          vals[i] = cur.cmap[static_cast<std::size_t>(gid)];
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

    // 4. contraction per device into global-coarse-id adjacency.  Device
    // d merges coarse rows [next.dist.begin(d), next.dist.end(d)) of the
    // next level; rows are assembled in device order, so each device's
    // shard uploads as soon as its rows are final.
    std::vector<eid_t> cadjp(static_cast<std::size_t>(n_coarse) + 1, 0);
    std::vector<vid_t> cadjncy;
    std::vector<wgt_t> cadjwgt;
    std::vector<wgt_t> cvwgt(static_cast<std::size_t>(n_coarse), 0);
    {
      ConcurrentStage stage(res.ledger, dev_ledgers,
                            "kernel/coarsen/mgpu-contract" + L);
      for (int d = 0; d < D; ++d) {
        const GpuGraph& s = cur.shards[static_cast<std::size_t>(d)];
        Device& dev = *devices[static_cast<std::size_t>(d)];
        const vid_t n = s.n;
        const vid_t nc = coarse_count[static_cast<std::size_t>(d)];
        const vid_t sb = cur.dist.begin(d), se = cur.dist.end(d);
        const std::span<const vid_t> cmap(cur.cmap.data() + sb,
                                          static_cast<std::size_t>(n));
        const auto& h = halo[static_cast<std::size_t>(d)];
        const vid_t* hid = h.ids.data();
        const vid_t* hval = h.vals.data();
        const std::size_t hsz = h.size;
        const vid_t cb = next.dist.begin(d);

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
        if (!cmap.empty()) d_cmap.h2d(cmap);
        const vid_t* ld = d_leaders.data();
        const vid_t* cm = d_cmap.data();
        const idx_t* adjp = s.adjp.data();
        const vid_t* adjncy = s.adjncy.data();
        const idx_t* adjwgt = s.adjwgt.data();
        const idx_t* vw = s.vwgt.data();

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
        // Row c's degree lands in cadjp[cb + c + 1] and is prefix-summed
        // after the launch.
        struct Out {
          std::vector<vid_t> adjncy;
          std::vector<wgt_t> adjwgt;
        };
        std::vector<Out> outs(static_cast<std::size_t>(T));
        eid_t* cdeg = cadjp.data() + cb;
        wgt_t* crow_w = cvwgt.data() + cb;
        dev.launch("coarsen/contract/merge" + L, T,
                   [&](std::int64_t t) -> std::uint64_t {
                     auto [bb, ee] = block(t);
                     Out out;
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
                     const eid_t me = s.m;
                     for (vid_t c = bb; c < ee; ++c) {
                       const vid_t v = ld[c];
                       const vid_t u = pt[c];
                       if (v < 0 || v >= n) trap("leader");
                       if (u != kInvalidVid && (u < 0 || u >= n))
                         trap("partner");
                       const vid_t gc = cb + c;
                       crow_w[c] = wgt_t{vw[v]} +
                                   (u != kInvalidVid ? wgt_t{vw[u]} : 0);
                       scratch.clear();
                       auto absorb = [&](vid_t src) {
                         const idx_t jb = adjp[src], je = adjp[src + 1];
                         if (jb < 0 || je < jb || je > me) trap("adjp row");
                         for (idx_t j = jb; j < je; ++j) {
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
                       cdeg[c + 1] = static_cast<eid_t>(o);
                       for (std::size_t i = 0; i < o; ++i) {
                         out.adjncy.push_back(scratch[i].first);
                         out.adjwgt.push_back(scratch[i].second);
                       }
                     }
                     outs[static_cast<std::size_t>(t)] = std::move(out);
                     return work;
                   });
        for (vid_t c = 0; c < nc; ++c) cdeg[c + 1] += cdeg[c];
        for (const auto& o : outs) {
          cadjncy.insert(cadjncy.end(), o.adjncy.begin(), o.adjncy.end());
          cadjwgt.insert(cadjwgt.end(), o.adjwgt.begin(), o.adjwgt.end());
        }
        next.shards.push_back(upload_rows(
            dev, d, HostCsr(cadjp, cadjncy, cadjwgt, cvwgt), cb, cb + nc,
            "G" + std::to_string(lvl + 1), audit, health));
      }
    }
    next.graph = &coarse_graphs.emplace_back(
        std::move(cadjp), std::move(cadjncy), std::move(cadjwgt),
        std::move(cvwgt));

    // Cross-device conservation audit: contraction only merges vertices,
    // so the level's total vertex weight is invariant.  This is the
    // cheapest whole-level check that catches a corrupted contraction on
    // any one device after the per-device artifacts are merged.
    if (audit != AuditLevel::kOff) {
      const wgt_t fine_w = fine.total_vertex_weight();
      const wgt_t coarse_w = next.graph->total_vertex_weight();
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
    // As in gp-metis: halve the launch width per level when asked to, down
    // to 256 threads per device.
    if (opts.gpu_shrink_launch) {
      launch_threads = std::max<std::int64_t>(256 * D, launch_threads / 2);
    }
  }
  const int gpu_lvls = static_cast<int>(levels.size()) - 1;

  // ---- gather coarse graph, CPU stage ----
  // The top level's graph is the CPU stage's input.  The gather is a real
  // D2H of every shard (each with its own adjp).
  const CsrGraph& cpu_graph = *levels.back().graph;
  res.ledger.charge_transfer(
      "transfer/d2h/mgpu-gather",
      GpuGraph::footprint(static_cast<std::size_t>(cpu_graph.num_vertices()),
                          static_cast<std::size_t>(cpu_graph.num_arcs())) +
          static_cast<std::size_t>(D - 1) * sizeof(idx_t));

  // Handoff audit: the CPU stage trusts this gathered graph completely,
  // so it is the last place a corrupted coarsening can be caught before
  // it silently shapes the initial partition.
  audit_handoff(audit, health, cpu_graph, g.total_vertex_weight());
  check_cancelled(opts, "multi/cpu-middle");
  const auto mt_out =
      cpu_middle(cpu_graph, opts, gpu_lvls,
                 VcycleControl{injector, &res.health, &shed}, res);

  // ---- uncoarsening: host-authoritative labels, device proposals ----
  phase.enter(Phase::kUncoarsen);
  Partition part{opts.k, mt_out.partition.where};  // coarse level
  const wgt_t total_w = g.total_vertex_weight();
  const wgt_t max_pw = max_part_weight(total_w, opts.k, opts.eps);
  const wgt_t min_pw = min_part_weight(total_w, opts.k, opts.eps);
  std::uint64_t replayed = 0;

  for (int i = gpu_lvls - 1; i >= 0; --i) {
    check_cancelled(opts, "multi/gpu-uncoarsen");
    const ShardLevel& fine_level = levels[static_cast<std::size_t>(i)];
    const CsrGraph& fine = *fine_level.graph;
    const std::string L = "/L" + std::to_string(i);

    // Projection (host-side through the stored global cmap — one gather
    // already paid; the per-device projection kernel is charged).
    std::vector<part_t> fwhere(static_cast<std::size_t>(fine.num_vertices()));
    {
      ConcurrentStage stage(res.ledger, dev_ledgers,
                            "kernel/uncoarsen/mgpu-project" + L);
      for (int d = 0; d < D; ++d) {
        Device& dev = *devices[static_cast<std::size_t>(d)];
        const vid_t b = fine_level.dist.begin(d);
        const vid_t n = fine_level.shards[static_cast<std::size_t>(d)].n;
        const std::int64_t T = std::max<std::int64_t>(
            1, std::min<std::int64_t>(launch_threads, n));
        dev.launch("uncoarsen/project" + L, T,
                   [&](std::int64_t t) -> std::uint64_t {
                     std::uint64_t w = 0;
                     for (vid_t v = b + static_cast<vid_t>(t); v < b + n;
                          v += static_cast<vid_t>(T)) {
                       fwhere[static_cast<std::size_t>(v)] =
                           part.where[static_cast<std::size_t>(
                               fine_level.cmap[static_cast<std::size_t>(v)])];
                       ++w;
                     }
                     return w;
                   });
      }
    }
    part.where = std::move(fwhere);

    // Past the deadline, projection still runs (correctness) but the
    // propose/replay passes are shed — the partition stays valid, just
    // less refined.
    if (shed.expired()) continue;

    // Refinement: devices propose, host replays.
    std::vector<wgt_t> pw = partition_weights(fine, part);
    int idle_passes = 0;
    for (int pass = 0; pass < opts.refine_passes; ++pass) {
      const bool upward = (pass % 2 == 0);
      std::vector<MoveProposal> all;
      {
        ConcurrentStage stage(
            res.ledger, dev_ledgers,
            "kernel/uncoarsen/mgpu-propose" + L + "/p" + std::to_string(pass));
        for (int d = 0; d < D; ++d) {
          const GpuGraph& s = fine_level.shards[static_cast<std::size_t>(d)];
          Device& dev = *devices[static_cast<std::size_t>(d)];
          const vid_t b = fine_level.dist.begin(d);
          const vid_t n = s.n;
          // Label slice + halo labels travel to the device each pass.
          dev.meter_h2d(static_cast<std::size_t>(n) * sizeof(part_t),
                        "where-slice" + L);
          const std::int64_t T = std::max<std::int64_t>(
              1, std::min<std::int64_t>(launch_threads, n));
          std::vector<std::vector<MoveProposal>> per_chunk(
              static_cast<std::size_t>(T));
          const idx_t* adjp = s.adjp.data();
          const vid_t* adjncy = s.adjncy.data();
          const idx_t* adjwgt = s.adjwgt.data();
          const std::vector<part_t>& where = part.where;
          dev.launch(
              "uncoarsen/refine/propose" + L, T,
              [&](std::int64_t t) -> std::uint64_t {
                std::uint64_t work = 0;
                std::vector<MoveProposal> out;
                std::vector<wgt_t> conn(static_cast<std::size_t>(opts.k), 0);
                std::vector<part_t> parts;
                for (vid_t v = static_cast<vid_t>(t); v < n;
                     v += static_cast<vid_t>(T)) {
                  const vid_t gv = b + v;
                  const part_t pv = where[static_cast<std::size_t>(gv)];
                  const idx_t lo = adjp[v], hi = adjp[v + 1];
                  work += static_cast<std::uint64_t>(hi - lo) + 1;
                  parts.clear();
                  wgt_t internal = 0;
                  for (idx_t j = lo; j < hi; ++j) {
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
                per_chunk[static_cast<std::size_t>(t)] = std::move(out);
                return work;
              });
          std::size_t cnt = 0;
          for (const auto& c : per_chunk) cnt += c.size();
          dev.meter_d2h(cnt * sizeof(MoveProposal), "proposals" + L);
          for (auto& c : per_chunk) {
            all.insert(all.end(), c.begin(), c.end());
          }
        }
      }

      // Host replay in the global gain order, against the true part
      // weights; the host applies the committed labels.
      const std::size_t proposed = all.size();
      const auto committed =
          replay_moves(fine, std::move(all), pw, max_pw, min_pw);
      for (const auto& mv : committed) {
        part.where[static_cast<std::size_t>(mv.v)] = mv.to;
      }
      res.ledger.charge_serial(
          "uncoarsen/mgpu-replay" + L + "/p" + std::to_string(pass),
          proposed);
      replayed += committed.size();
      // Both alternating directions must go idle before stopping.
      idle_passes = committed.empty() ? idle_passes + 1 : 0;
      if (idle_passes >= 2) break;
    }
  }

  res.partition = std::move(part);
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
  for (const auto& dev : devices) res.exec += device_exec_stats(*dev);

  if (log) {
    log->devices = D;
    log->gpu_coarsen_levels = gpu_lvls;
    std::size_t peak = 0;
    for (const auto& dev : devices) peak = std::max(peak, dev->peak_bytes());
    log->peak_device_bytes = peak;
    log->halo_exchange_bytes = halo_bytes;
    log->refine_replay_moves = replayed;
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
  // blocks are redistributed over the remainder — the block Distribution
  // built at the top of the attempt IS the redistribution (per-device
  // blocks are recomputed over the survivors).
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
  const bool fits = device_csr_fits(g, "gp-metis-multi", res.health);
  while (fits && !gpu_ok && !phys.empty() && attempts < max_attempts) {
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
      count_gpu_restart(res, "fault/device-reset");
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
      count_gpu_restart(res, "fault/device-reset");
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
      count_gpu_restart(res, "fault/task-restart");
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
      count_gpu_restart(res, "fault/device-reset");
      if (++oom_retries > kMaxOomRetries || handoff >= g.num_vertices()) {
        res.health.note("gp-metis-multi: OOM retries exhausted (" +
                        std::string(e.what()) + ")");
        break;
      }
      raise_handoff_after_oom("gp-metis-multi", e, g.num_vertices(), handoff,
                              res.health);
    }
  }
  if (!gpu_ok) {
    res.health.note("gp-metis-multi: no usable GPU path; degrading to a "
                    "pure mt-metis run");
    log_warn("gp-metis-multi: degrading to pure mt-metis after %d attempts",
             attempts);
    if (log) *log = MultiGpuLog{};
    pure_cpu_rung(g, opts, injector.get(), shed,
                  "gp-metis-multi: CPU fallback", res);
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
