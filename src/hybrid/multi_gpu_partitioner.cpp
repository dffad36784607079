#include "hybrid/multi_gpu_partitioner.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "core/distribution.hpp"
#include "hybrid/gpu_driver.hpp"
#include "hybrid/gpu_matching.hpp"
#include "mt/mt_partitioner.hpp"
#include "util/timer.hpp"

namespace gp {

namespace {

/// Uploads rows [b, e) of a level graph in global ids to device `d` as its
/// shard, adjp rebased to the range's first arc, and guards the transfer.
/// `g` may be a level still being assembled: only rows < e are read.
GpuGraph upload_rows(Device& dev, const HostCsr& g, vid_t b, vid_t e,
                     const std::string& tag, const BusGuard& guard) {
  std::vector<eid_t> adjp(g.adjp.begin() + b, g.adjp.begin() + e + 1);
  const eid_t first = adjp.front();
  for (auto& x : adjp) x -= first;
  const auto arcs = static_cast<std::size_t>(adjp.back());
  const HostCsr rows(adjp,
                     g.adjncy.subspan(static_cast<std::size_t>(first), arcs),
                     g.adjwgt.subspan(static_cast<std::size_t>(first), arcs),
                     g.vwgt.subspan(static_cast<std::size_t>(b),
                                    static_cast<std::size_t>(e - b)));
  return upload_graph(dev, rows, tag, guard);
}

/// Uploads `count` ids under the bus guard: the contraction kernels index
/// through them, so a flipped word must become an AuditError (the
/// skeleton rolls the level back), not a fault that drops a healthy
/// device.
DeviceBuffer<vid_t> upload_ids(Device& dev, const vid_t* ids,
                               std::size_t count, const std::string& label,
                               const BusGuard& guard) {
  return upload_array<vid_t>(dev, {ids, count}, label, guard,
                             AuditFailure::Kind::kContraction);
}

/// A device's halo translation table for one level: sorted unique global
/// ids outside its block, and their coarse ids.  Kernels translate by
/// binary search, the way distributed-GPU codes resolve ghost ids.
struct HaloTable {
  DeviceBuffer<vid_t> ids;
  DeviceBuffer<vid_t> vals;
  std::size_t size = 0;
};

/// gp-metis-multi's levels are host graphs.  A level the skeleton rebuilt
/// on the host (a rolled-back level's reference contraction) is not the
/// graph contract() uploaded: storing it drops those shards.
struct MultiStore : HostStore {
  std::function<void(int level)> drop_shards_from;
  using HostStore::put;
  CsrGraph put(CsrGraph g, int level) {
    drop_shards_from(level + 1);
    return g;
  }
};

/// Charges the main ledger with the max over the per-device ledger deltas
/// (devices run concurrently, so a stage costs its slowest device).
class ConcurrentStage {
 public:
  ConcurrentStage(CostLedger& main, std::vector<CostLedger>& dev_ledgers,
                  std::string label)
      : main_(main), devs_(dev_ledgers), label_(std::move(label)) {
    for (const auto& l : devs_) before_.push_back(l.total_seconds());
  }
  ~ConcurrentStage() {
    double mx = 0;
    for (std::size_t i = 0; i < devs_.size(); ++i) {
      mx = std::max(mx, devs_[i].total_seconds() - before_[i]);
    }
    main_.charge_raw(label_, mx);
  }
  ConcurrentStage(const ConcurrentStage&) = delete;  // would charge twice

 private:
  CostLedger& main_;
  std::vector<CostLedger>& devs_;
  std::string label_;
  std::vector<double> before_;
};

/// gp-metis-multi's V-cycle backend (see the header): levels_[i] keeps
/// level i's block distribution and one shard per device.  The owned mt
/// backend runs every level from the gathered one on.
class MultiGpuBackend final : public BasicVcycleBackend<MultiStore> {
 public:
  /// One simulated device per physical id in `phys`, each with its own
  /// ledger so stages can be rolled up as max-over-devices.
  MultiGpuBackend(const PartitionOptions& opts, const std::vector<int>& phys,
                  vid_t handoff, FaultInjector* injector, PartitionResult& res)
      : BasicVcycleBackend({"multi/coarsen", "multi/initpart",
                            "multi/uncoarsen",
                            /*refine_attempts=*/2,
                            /*coarsest_refine=*/Phase::kUncoarsen},
                           &res.ledger, MultiStore{{}, [this](int level) {
                             const auto l = static_cast<std::size_t>(level);
                             if (levels_.size() > l) levels_.resize(l);
                           }}),
        opts_(opts),
        D_(static_cast<int>(phys.size())),
        handoff_(handoff),
        guard_{opts.audit_level, injector, &res.health},
        pool_(opts.threads),
        mt_(opts, MtContext{&pool_, &res.ledger, opts.seed}),
        dev_ledgers_(phys.size()) {
    pool_.set_cancel_token(opts.cancel);
    pool_.set_fault_injector(injector);
    for (std::size_t d = 0; d < phys.size(); ++d) {
      devices_.push_back(
          make_device(opts, &dev_ledgers_[d], injector, phys[d], res));
    }
  }

  void begin(const CsrGraph& g) override {
    levels_.clear();
    host_from_ = kOnDevices;
    stats_ = MultiGpuLog{D_};
    coarsest_level_ = 0;
    launch_threads_ = opts_.gpu_threads;
    upload_level(g, 0, Distribution::block(g.num_vertices(), D_));
  }
  MatchResult match(const CsrGraph& g, int level) override;
  CsrGraph contract(const CsrGraph& fine, const MatchResult& m,
                    int level) override;
  Partition initial_partition(const CsrGraph& g,
                              VcycleLevels& levels) override {
    gather(g, coarsest_level_);
    return mt_.initial_partition(g, levels);
  }
  bool caches_gains(int level) const override { return on_host(level); }
  void build_cache(const CsrGraph& g, const std::vector<part_t>& where,
                   GainCache& cache, RefineSite site) override {
    mt_.build_cache(g, where, cache, site);
  }
  void refine(const CsrGraph& g, Partition& p, GainCache& cache,
              RefineSite site) override;
  std::string refine_name(RefineSite site) const override {
    return mt_.refine_name(site);
  }
  std::vector<part_t> project(const CsrGraph& fine,
                              const std::vector<vid_t>& cmap,
                              const std::vector<part_t>& coarse_where,
                              int level) override;
  GainCache project_cache(const CsrGraph& fine,
                          const std::vector<part_t>& fine_where,
                          const std::vector<vid_t>& cmap,
                          const GainCache& coarse, int level) override {
    return mt_.project_cache(fine, fine_where, cmap, coarse, level);
  }

  /// The finished attempt's log; adds the devices' stats to `res`.
  MultiGpuLog finish(PartitionResult& res) {
    for (const auto& dev : devices_) {
      res.exec += device_exec_stats(*dev);
      stats_.peak_device_bytes =
          std::max(stats_.peak_device_bytes, dev->peak_bytes());
    }
    return stats_;
  }

 private:
  static constexpr int kOnDevices = std::numeric_limits<int>::max();

  struct ShardLevel {
    Distribution dist;
    std::vector<GpuGraph> shards;
  };

  [[nodiscard]] bool on_host(int level) const { return level >= host_from_; }
  [[nodiscard]] Device& dev(int d) const {
    return *devices_[static_cast<std::size_t>(d)];
  }
  [[nodiscard]] ConcurrentStage stage(std::string label) {
    return {*ledger(), dev_ledgers_, std::move(label)};
  }

  /// Uploads `g` as level `level`'s shards under `dist`.
  void upload_level(const CsrGraph& g, int level, Distribution dist) {
    const PhaseScope transfer(ledger(), Phase::kTransfer);
    ConcurrentStage st = stage("transfer/h2d/shards");
    ShardLevel lv{std::move(dist), {}};
    const std::string tag = 'G' + std::to_string(level);
    for (int d = 0; d < D_; ++d) {
      lv.shards.push_back(upload_rows(dev(d), g, lv.dist.begin(d),
                                      lv.dist.end(d), tag, guard_));
    }
    levels_.push_back(std::move(lv));
  }

  /// Hands level `level`'s graph to the host once: every shard is read
  /// back, each with its own adjp.
  void gather(const CsrGraph& g, int level) {
    if (host_from_ != kOnDevices) return;
    host_from_ = stats_.gpu_coarsen_levels = level;
    ledger()->charge_transfer(
        "transfer/d2h/mgpu-gather",
        GpuGraph::footprint(static_cast<std::size_t>(g.num_vertices()),
                            static_cast<std::size_t>(g.num_arcs())) +
            static_cast<std::size_t>(D_ - 1) * sizeof(idx_t));
  }

  const PartitionOptions& opts_;
  int D_;
  vid_t handoff_;
  BusGuard guard_;
  ThreadPool pool_;
  MtBackend mt_;
  std::vector<CostLedger> dev_ledgers_;
  std::vector<std::unique_ptr<Device>> devices_;

  std::vector<ShardLevel> levels_;
  /// Fixed by the device match: device d numbers its coarse vertices in
  /// block d of the next level.
  Distribution next_dist_;
  int host_from_ = kOnDevices;  ///< first level on the host
  int coarsest_level_ = 0;
  /// Launch width of the next coarsening level.  As in gp-metis it halves
  /// per level when asked to, down to 256 threads per device.  An
  /// uncoarsening level launches at uncoarsen_launch_width, as gp-metis's
  /// do.
  std::int64_t launch_threads_ = 0;
  MultiGpuLog stats_;
};

MatchResult MultiGpuBackend::match(const CsrGraph& g, int level) {
  coarsest_level_ = level + 1;
  const vid_t n = g.num_vertices();
  if (on_host(level) || n <= handoff_) {
    gather(g, level);
    return mt_.match(g, level);
  }
  // A rolled-back level has no shards: it goes to the devices afresh, on
  // the distribution the device match fixed (build_cmap_serial numbers
  // leaders in the same blocks).
  const auto lsz = static_cast<std::size_t>(level);
  if (levels_.size() <= lsz) {
    levels_.resize(lsz);
    upload_level(g, level,
                 next_dist_.vtxdist.back() == n ? next_dist_
                                                : Distribution::block(n, D_));
  }
  const ShardLevel& cur = levels_[lsz];

  // gp-metis's match, resolve and cmap kernels on each shard (halo arcs
  // never match), device d on seed + d.  Device d's local coarse labels
  // land in its block of the cmap, then are numbered block by block.
  MatchResult m;
  m.cmap.assign(static_cast<std::size_t>(n), 0);
  next_dist_.vtxdist.assign(static_cast<std::size_t>(D_) + 1, 0);
  {
    ConcurrentStage st =
        stage("kernel/coarsen/mgpu-match/L" + std::to_string(level));
    for (int d = 0; d < D_; ++d) {
      const GpuGraph& s = cur.shards[static_cast<std::size_t>(d)];
      const vid_t sb = cur.dist.begin(d);
      const GpuMatchResult gm = gpu_match(
          dev(d), s, level, opts_.seed + static_cast<std::uint64_t>(d),
          launch_threads_ / D_, opts_.gpu_scan, sb);
      next_dist_.vtxdist[static_cast<std::size_t>(d) + 1] =
          next_dist_.vtxdist[static_cast<std::size_t>(d)] + gm.n_coarse;
      gm.cmap.d2h(std::span<vid_t>(m.cmap.data() + sb,
                                   static_cast<std::size_t>(s.n)));
    }
  }
  // Global numbering, and the match array recovered from the downloaded
  // cmap: a coarse id's first two members are a pair.  Ids out of range (a
  // flipped download) and third members stay unmatched, so contract()'s
  // rejection of such a cmap rolls the level back onto an involution.
  m.n_coarse = next_dist_.vtxdist.back();
  m.match.resize(static_cast<std::size_t>(n));
  std::vector<vid_t> first(static_cast<std::size_t>(m.n_coarse), kInvalidVid);
  for (int d = 0; d < D_; ++d) {
    for (vid_t v = cur.dist.begin(d); v < cur.dist.end(d); ++v) {
      auto& c = m.cmap[static_cast<std::size_t>(v)];
      c += next_dist_.begin(d);
      m.match[static_cast<std::size_t>(v)] = v;
      if (c < 0 || c >= m.n_coarse) continue;
      const vid_t u = first[static_cast<std::size_t>(c)];
      if (u == kInvalidVid) {
        first[static_cast<std::size_t>(c)] = v;
      } else if (m.match[static_cast<std::size_t>(u)] == u) {
        m.match[static_cast<std::size_t>(u)] = v;
        m.match[static_cast<std::size_t>(v)] = u;
      }
    }
  }
  if (static_cast<double>(m.n_coarse) >
      opts_.min_shrink * static_cast<double>(n)) {
    // Halo-restricted matching can stall earlier than single-device
    // matching: the level goes to the host, whose matching may not.
    gather(g, level);
    return mt_.match(g, level);
  }
  return m;
}

CsrGraph MultiGpuBackend::contract(const CsrGraph& fine, const MatchResult& m,
                                   int level) {
  if (on_host(level)) return mt_.contract(fine, m, level);
  const ShardLevel& cur = levels_[static_cast<std::size_t>(level)];
  const Distribution& next = next_dist_;
  const vid_t n_coarse = next.vtxdist.back();
  const std::string L = "/L" + std::to_string(level);

  // Leader scan on the host: coarse id -> its first and second fine
  // member (device-local ids).  The skeleton may have perturbed the cmap
  // since match(), so every id is checked before it indexes anything: it
  // must lie in its device's block and have one or two fine members.
  std::vector<vid_t> leader(static_cast<std::size_t>(n_coarse), kInvalidVid);
  std::vector<vid_t> partner(leader);
  for (int d = 0; d < D_; ++d) {
    auto reject = [&](vid_t c, const char* what) {
      guard_.require({AuditFailure::Kind::kContraction,
                      "contraction-invariant",
                      "gpu " + std::to_string(d) + " level " +
                          std::to_string(level) + ": coarse id " +
                          std::to_string(c) + what});
    };
    for (vid_t v = cur.dist.begin(d); v < cur.dist.end(d); ++v) {
      const vid_t c = m.cmap[static_cast<std::size_t>(v)];
      if (c < next.begin(d) || c >= next.end(d)) reject(c, " off its block");
      vid_t& slot = leader[static_cast<std::size_t>(c)] == kInvalidVid
                        ? leader[static_cast<std::size_t>(c)]
                        : partner[static_cast<std::size_t>(c)];
      if (slot != kInvalidVid) reject(c, " has three members");
      slot = v - cur.dist.begin(d);
    }
    const auto end = leader.begin() + next.end(d);
    const auto hole = std::find(end - (next.end(d) - next.begin(d)), end,
                                kInvalidVid);
    if (hole != end) reject(vid_t(hole - leader.begin()), " has no member");
  }

  // Halo-cmap exchange: each device receives the sorted (halo id ->
  // global coarse id) table for its halo set, read on the host here.
  std::vector<HaloTable> halo(static_cast<std::size_t>(D_));
  {
    const PhaseScope transfer(ledger(), Phase::kTransfer);
    ConcurrentStage st = stage("transfer/mgpu-halo-cmap" + L);
    for (int d = 0; d < D_; ++d) {
      const vid_t b = cur.dist.begin(d), e = cur.dist.end(d);
      std::vector<vid_t> ids;
      for (vid_t v = b; v < e; ++v) {
        for (const vid_t u : fine.neighbors(v)) {
          if (u < b || u >= e) ids.push_back(u);
        }
      }
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      std::vector<vid_t> vals(ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        vals[i] = m.cmap[static_cast<std::size_t>(ids[i])];
      }
      stats_.halo_exchange_bytes += ids.size() * (sizeof(vid_t) * 2);
      auto& h = halo[static_cast<std::size_t>(d)];
      h.size = ids.size();
      h.ids = upload_ids(dev(d), ids.data(), h.size, "halo_ids" + L, guard_);
      h.vals =
          upload_ids(dev(d), vals.data(), h.size, "halo_vals" + L, guard_);
    }
  }

  // Contraction per device into global-coarse-id adjacency.  Device d
  // merges coarse rows [next.begin(d), next.end(d)); rows are assembled
  // in device order, so each device's shard uploads as soon as its rows
  // are final.
  std::vector<eid_t> cadjp(static_cast<std::size_t>(n_coarse) + 1, 0);
  std::vector<vid_t> cadjncy;
  std::vector<wgt_t> cadjwgt;
  std::vector<wgt_t> cvwgt(static_cast<std::size_t>(n_coarse), 0);
  ShardLevel coarse_level{next, {}};
  {
    ConcurrentStage st = stage("kernel/coarsen/mgpu-contract" + L);
    for (int d = 0; d < D_; ++d) {
      const GpuGraph& s = cur.shards[static_cast<std::size_t>(d)];
      Device& device = dev(d);
      const vid_t n = s.n;
      const vid_t cb = next.begin(d);
      const vid_t nc = next.end(d) - cb;
      const vid_t sb = cur.dist.begin(d), se = cur.dist.end(d);
      const auto& h = halo[static_cast<std::size_t>(d)];
      const vid_t* hid = h.ids.data();
      const vid_t* hval = h.vals.data();
      const std::size_t hsz = h.size;
      const auto unc = static_cast<std::size_t>(nc);
      const auto d_leaders = upload_ids(device, leader.data() + cb, unc,
                                        "leaders" + L, guard_);
      const auto d_cmap =
          upload_ids(device, m.cmap.data() + sb, static_cast<std::size_t>(n),
                     "gcmap" + L, guard_);
      const auto d_partner = upload_ids(device, partner.data() + cb, unc,
                                        "partner" + L, guard_);
      const vid_t* ld = d_leaders.data();
      const vid_t* cm = d_cmap.data();
      const vid_t* pt = d_partner.data();
      const idx_t* adjp = s.adjp.data();
      const vid_t* adjncy = s.adjncy.data();
      const idx_t* adjwgt = s.adjwgt.data();
      const idx_t* vw = s.vwgt.data();

      const std::int64_t T = std::max<std::int64_t>(
          1, std::min<std::int64_t>(launch_threads_ / D_,
                                    std::max<vid_t>(1, nc)));

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
      device.launch(
          "coarsen/contract/merge" + L, T,
          [&](std::int64_t t) -> std::uint64_t {
            const auto [bb, ee] = ThreadPool::block_range(
                nc, static_cast<int>(T), static_cast<int>(t));
            Out out;
            std::uint64_t work = 0;
            std::vector<std::pair<vid_t, wgt_t>> scratch;
            // The leaders, partners, cmap and halo table are checked
            // after their uploads (upload_ids) and the host validated
            // every id before: an id out of range here is a bug, and it
            // must surface as a device fault, not as an out-of-bounds
            // read here or a level later.
            auto trap = [&](const char* what) {
              throw DeviceFailure(
                  std::string("corrupted index in coarsen/contract/merge (") +
                      what + ")",
                  device.device_id());
            };
            auto translate = [&](vid_t gu) -> vid_t {
              vid_t c = 0;
              if (gu >= sb && gu < se) {
                c = cm[gu - sb];
              } else {
                // halo: binary search the sorted table
                std::size_t lo = 0, hi = hsz;
                while (lo < hi) {
                  const std::size_t mid = (lo + hi) / 2;
                  if (hid[mid] < gu) lo = mid + 1;
                  else hi = mid;
                }
                work += 4;  // log-factor charge
                if (lo >= hsz || hid[lo] != gu) trap("halo id");
                c = hval[lo];
              }
              if (c < 0 || c >= n_coarse) trap("coarse id");
              return c;
            };
            for (auto c = static_cast<vid_t>(bb); c < ee; ++c) {
              const vid_t v = ld[c];
              const vid_t u = pt[c];
              if (v < 0 || v >= n) trap("leader");
              if (u != kInvalidVid && (u < 0 || u >= n)) trap("partner");
              const vid_t gc = cb + c;
              crow_w[c] =
                  wgt_t{vw[v]} + (u != kInvalidVid ? wgt_t{vw[u]} : 0);
              scratch.clear();
              auto absorb = [&](vid_t src) {
                for (idx_t j = adjp[src]; j < adjp[src + 1]; ++j) {
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
      coarse_level.shards.push_back(upload_rows(
          device, HostCsr(cadjp, cadjncy, cadjwgt, cvwgt), cb, cb + nc,
          "G" + std::to_string(level + 1), guard_));
    }
  }
  CsrGraph coarse(std::move(cadjp), std::move(cadjncy), std::move(cadjwgt),
                  std::move(cvwgt));
  levels_.push_back(std::move(coarse_level));
  launch_threads_ = std::max<std::int64_t>(256 * D_, launch_threads_ / 2);
  return coarse;
}

std::vector<part_t> MultiGpuBackend::project(
    const CsrGraph& fine, const std::vector<vid_t>& cmap,
    const std::vector<part_t>& coarse_where, int level) {
  if (on_host(level)) return mt_.project(fine, cmap, coarse_where, level);
  const ShardLevel& lv = levels_[static_cast<std::size_t>(level)];
  const std::string L = "/L" + std::to_string(level);
  std::vector<part_t> where(static_cast<std::size_t>(fine.num_vertices()));
  ConcurrentStage st = stage("kernel/uncoarsen/mgpu-project" + L);
  for (int d = 0; d < D_; ++d) {
    const vid_t b = lv.dist.begin(d);
    const vid_t n = lv.shards[static_cast<std::size_t>(d)].n;
    const std::int64_t T = uncoarsen_launch_width(opts_, n);
    dev(d).launch("uncoarsen/project" + L, T,
                  [&](std::int64_t t) -> std::uint64_t {
                    std::uint64_t w = 0;
                    for (vid_t v = b + static_cast<vid_t>(t); v < b + n;
                         v += static_cast<vid_t>(T)) {
                      where[static_cast<std::size_t>(v)] =
                          coarse_where[static_cast<std::size_t>(
                              cmap[static_cast<std::size_t>(v)])];
                      ++w;
                    }
                    return w;
                  });
  }
  return where;
}

void MultiGpuBackend::refine(const CsrGraph& g, Partition& p,
                             GainCache& cache, RefineSite site) {
  if (on_host(site.level)) {
    mt_.refine(g, p, cache, site);
    return;
  }
  // Devices propose; the host replays the proposals in the global gain
  // order against the true part weights and applies the committed moves.
  const ShardLevel& lv = levels_[static_cast<std::size_t>(site.level)];
  const std::string L = "/L" + std::to_string(site.level);
  const wgt_t total_w = g.total_vertex_weight();
  const wgt_t max_pw = max_part_weight(total_w, opts_.k, opts_.eps);
  const wgt_t min_pw = min_part_weight(total_w, opts_.k, opts_.eps);
  std::vector<wgt_t> pw = partition_weights(g, p);
  int idle_passes = 0;
  for (int pass = 0; pass < opts_.refine_passes; ++pass) {
    const bool upward = (pass % 2 == 0);
    const std::string P = L + "/p" + std::to_string(pass);
    std::vector<MoveProposal> all;
    {
      ConcurrentStage st = stage("kernel/uncoarsen/mgpu-propose" + P);
      for (int d = 0; d < D_; ++d) {
        const GpuGraph& s = lv.shards[static_cast<std::size_t>(d)];
        Device& device = dev(d);
        const vid_t b = lv.dist.begin(d);
        const vid_t n = s.n;
        // Label slice + halo labels travel to the device each pass.
        device.meter_h2d(static_cast<std::size_t>(n) * sizeof(part_t),
                         "where-slice" + L);
        const std::int64_t T = uncoarsen_launch_width(opts_, n);
        std::vector<std::vector<MoveProposal>> per_chunk(
            static_cast<std::size_t>(T));
        const idx_t* adjp = s.adjp.data();
        const vid_t* adjncy = s.adjncy.data();
        const idx_t* adjwgt = s.adjwgt.data();
        const std::vector<part_t>& where = p.where;
        device.launch(
            "uncoarsen/refine/propose" + L, T,
            [&](std::int64_t t) -> std::uint64_t {
              std::uint64_t work = 0;
              std::vector<MoveProposal> out;
              std::vector<wgt_t> conn(static_cast<std::size_t>(opts_.k), 0);
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
                  const part_t pu = where[static_cast<std::size_t>(adjncy[j])];
                  if (pu == pv) {
                    internal += adjwgt[j];
                    continue;
                  }
                  if (conn[static_cast<std::size_t>(pu)] == 0)
                    parts.push_back(pu);
                  conn[static_cast<std::size_t>(pu)] += adjwgt[j];
                }
                const bool over = pw[static_cast<std::size_t>(pv)] > max_pw;
                part_t best = kInvalidPart;
                wgt_t best_conn =
                    over ? std::numeric_limits<wgt_t>::min() : internal;
                for (const part_t q : parts) {
                  const wgt_t c =
                      std::exchange(conn[static_cast<std::size_t>(q)], 0);
                  if ((upward ? q > pv : q < pv) && c > best_conn) {
                    best_conn = c;
                    best = q;
                  }
                }
                if (best == kInvalidPart) continue;
                out.push_back({gv, pv, best, best_conn - internal});
              }
              per_chunk[static_cast<std::size_t>(t)] = std::move(out);
              return work;
            });
        std::size_t cnt = 0;
        for (const auto& c : per_chunk) cnt += c.size();
        device.meter_d2h(cnt * sizeof(MoveProposal), "proposals" + L);
        for (auto& c : per_chunk) all.insert(all.end(), c.begin(), c.end());
      }
    }
    const std::size_t proposed = all.size();
    const auto committed = replay_moves(g, std::move(all), pw, max_pw, min_pw);
    for (const auto& mv : committed) {
      p.where[static_cast<std::size_t>(mv.v)] = mv.to;
    }
    charge_serial("uncoarsen/mgpu-replay" + P, proposed);
    stats_.refine_replay_moves += committed.size();
    // Both alternating directions must go idle before stopping.
    idle_passes = committed.empty() ? idle_passes + 1 : 0;
    if (idle_passes >= 2) break;
  }
}

}  // namespace

PartitionResult multi_gpu_run(const CsrGraph& g, const PartitionOptions& opts,
                              MultiGpuLog* log) {
  validate_options(g, opts);
  WallTimer wall;
  PartitionResult res;
  const std::unique_ptr<FaultInjector> injector = opts.make_fault_injector();

  // Surviving physical devices.  A lost device is excluded, and the next
  // attempt's block distribution spreads the vertices over the survivors.
  std::vector<int> phys(static_cast<std::size_t>(std::max(1, opts.gpu_devices)));
  std::iota(phys.begin(), phys.end(), 0);
  MultiGpuLog stats;
  const GpuRungs rungs{
      "gp-metis-multi",
      static_cast<int>(phys.size()) + kMaxGpuOomRetries + 1,
      [&](const DeviceFailure& e) {
        const auto it = std::find(phys.begin(), phys.end(), e.device_id());
        if (it != phys.end()) phys.erase(it);
        res.health.note("gp-metis-multi: device " +
                        std::to_string(e.device_id()) + " failed (" +
                        e.what() + "); redistributing over " +
                        std::to_string(phys.size()) + " surviving device(s)");
        return !phys.empty();
      }};
  const GpuLadderOutcome out = run_gpu_ladder(
      g, opts, injector.get(), rungs, res,
      [&](vid_t handoff, const VcycleControl& control) {
        MultiGpuBackend backend(opts, phys, handoff, injector.get(), res);
        vcycle_attempt(g, opts, backend, control, res);
        stats = backend.finish(res);
      });
  finish_run(res, injector.get());
  if (log) {
    *log = out.on_gpu ? stats : MultiGpuLog{};
    log->attempts = out.attempts;
    log->cpu_fallback = !out.on_gpu;
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
