#include "hybrid/gp_partitioner.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "core/distribution.hpp"
#include "core/vcycle.hpp"
#include "gpu/device_atomics.hpp"
#include "hybrid/gpu_contract.hpp"
#include "hybrid/gpu_graph.hpp"
#include "hybrid/gpu_gain_cache.hpp"
#include "hybrid/gpu_matching.hpp"
#include "hybrid/gpu_refine.hpp"
#include "hybrid/multi_gpu_partitioner.hpp"
#include "mt/mt_partitioner.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace gp {

namespace {

constexpr int kMaxGpuAttempts = 3;    ///< of gp-metis, before the CPU rung
constexpr int kMaxGpuOomRetries = 2;  ///< each raises the CPU handoff
/// Modeled cost of recovering from a device fault before a retry: a
/// cudaDeviceReset and re-init take milliseconds on real hardware.
constexpr double kDeviceResetSeconds = 2e-3;

/// Launch width of an uncoarsening level whose fine graph has `fine_n`
/// vertices (per device): the configured width, but at least 256 threads
/// and no more threads than vertices beyond that.
std::int64_t uncoarsen_launch_width(const PartitionOptions& opts,
                                    vid_t fine_n) {
  return std::min<std::int64_t>(opts.gpu_threads,
                                std::max<std::int64_t>(256, fine_n));
}

/// A check on data that crossed the bus, made before anything indexes
/// through it.  With audits on it is an audit.  With audits off it runs
/// only when an injector is attached (nothing flips a bit otherwise),
/// counts no audit, and throws the AuditError the audit would throw.
struct BusGuard {
  AuditLevel level;
  const FaultInjector* injector;
  RunHealth* health;

  [[nodiscard]] bool on() const {
    return level != AuditLevel::kOff || injector != nullptr;
  }
  void require(AuditFailure f) const {
    if (level == AuditLevel::kOff && !f.ok()) throw AuditError(std::move(f));
    if (level != AuditLevel::kOff) require_audit(health, std::move(f));
  }
};

/// True when the device copy reads back equal to its (maybe wider) host
/// source, value by value.  Every read-back is a metered d2h and a flip
/// site; a graph's arrays are read in order, up to the first that differs.
template <typename T, typename U = T>
bool upload_intact(const DeviceBuffer<T>& dev,
                   std::type_identity_t<std::span<const U>> host) {
  const auto back = dev.d2h_vector();
  return std::equal(back.begin(), back.end(), host.begin(), host.end());
}
bool upload_intact(const GpuGraph& dev, const HostCsr& host) {
  return upload_intact<idx_t, eid_t>(dev.adjp, host.adjp) &&
         upload_intact(dev.adjncy, host.adjncy) &&
         upload_intact<idx_t, wgt_t>(dev.adjwgt, host.adjwgt) &&
         upload_intact<idx_t, wgt_t>(dev.vwgt, host.vwgt);
}

/// Guarded upload: the copy is read back and checked, since the kernels
/// index through it: a flipped bit must be caught before any kernel
/// consumes it, not as an out-of-bounds access.  An array gets one slot
/// at least.
template <typename Dev, typename Host>
Dev guarded(Dev copy, const Host& host, const std::string& label,
            const BusGuard& guard, AuditFailure::Kind kind, int device) {
  if (!guard.on()) return copy;
  guard.require(upload_intact(copy, host)
                    ? AuditFailure{}
                    : AuditFailure{kind, "transfer-integrity",
                                   label + ": device copy on gpu " +
                                       std::to_string(device) +
                                       " differs from its host source"});
  return copy;
}
template <typename T>
DeviceBuffer<T> upload_array(Device& dev, std::span<const T> host,
                             const std::string& label, const BusGuard& guard,
                             AuditFailure::Kind kind) {
  DeviceBuffer<T> buf(dev, std::max<std::size_t>(1, host.size()), label);
  if (host.empty()) return buf;
  buf.h2d(host);
  return guarded(std::move(buf), host, label, guard, kind, dev.device_id());
}

/// Entry d of a per-device vector.
template <typename V>
auto& at(V& v, int d) { return v[static_cast<std::size_t>(d)]; }

/// `ids` sorted, each once.
std::vector<vid_t> sorted_set(std::vector<vid_t> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// An array of a level split over the devices, one shard per block.
template <typename T>
using Shards = std::vector<DeviceBuffer<T>>;

/// A level in device memory (DESIGN.md §3.11): shard d numbers block d's
/// rows [0, n_d), then the vertices outside the block they reach (its
/// halo, whose ids `halo[d]` lists sorted) [n_d, n_d + h_d).  One device
/// holds the level, with no halo.
struct ShardedGraph {
  std::vector<GpuGraph> shards;
  Distribution dist;
  std::vector<std::vector<vid_t>> halo;
  wgt_t total_vwgt = 0;  ///< host-known, as GpuGraph's

  [[nodiscard]] vid_t num_vertices() const { return dist.vtxdist.back(); }
  [[nodiscard]] eid_t num_edges() const {
    eid_t arcs = 0;
    for (const GpuGraph& s : shards) arcs += s.m;
    return arcs / 2;
  }
  /// Vertex v's slot on device d: its row, its halo slot, or -1.
  [[nodiscard]] vid_t slot(int d, vid_t v) const {
    const vid_t n = dist.end(d) - dist.begin(d), i = v - dist.begin(d);
    if (i >= 0 && i < n) return i;
    const auto& h = at(halo, d);
    const auto it = std::lower_bound(h.begin(), h.end(), v);
    return it != h.end() && *it == v ? n + static_cast<vid_t>(it - h.begin())
                                     : -1;
  }
  /// The vertex at slot s of device d, or -1 for a slot out of range.
  [[nodiscard]] vid_t id(int d, vid_t s) const {
    const vid_t n = dist.end(d) - dist.begin(d);
    if (s < 0 || s >= n + std::ssize(at(halo, d))) return -1;
    return s < n ? dist.begin(d) + s
                 : at(halo, d)[static_cast<std::size_t>(s - n)];
  }
};

/// A level's coarse map: each fine vertex's coarse id within its device's
/// block of `coarse`, since a device matches and contracts its own rows.
struct ShardedCmap {
  Shards<vid_t> local;
  Distribution coarse;
};

struct ShardedMatch {
  Shards<vid_t> match;  ///< ids within the block
  ShardedCmap cmap;
  vid_t n_coarse = 0;
};

/// A partition whose labels live in device memory.
struct GpuPartition {
  Shards<part_t> where;
};

/// The `cmap` corruption site on a sharded level: the entry stays in its
/// device's coarse block, which that device's kernels index.
void corrupt_cmap_site(FaultInjector* injector, ShardedCmap& cmap,
                       vid_t n_coarse) {
  std::size_t n = 0;
  for (const auto& s : cmap.local) n += s.size();
  gp::corrupt_cmap_site(injector, n, n_coarse, [&](std::size_t i) {
    int d = 0;
    for (; i >= at(cmap.local, d).size(); ++d) i -= at(cmap.local, d).size();
    return std::pair{at(cmap.local, d).data() + i,
                     cmap.coarse.end(d) - cmap.coarse.begin(d)};
  });
}

/// Device d's rows of `g` uploaded under the bus guard as its shard of
/// `level` (halo set), adjp rebased and each row's arcs in slot order, the
/// order gpu_contract emits.  With no halo, device 0's rows go up as given.
GpuGraph upload_rows(Device& dev, const CsrGraph& g, const ShardedGraph& level,
                     int d, const std::string& tag, const BusGuard& guard) {
  const vid_t b = level.dist.begin(d), e = level.dist.end(d);
  std::vector<eid_t> adjp(g.adjp().begin() + b, g.adjp().begin() + e + 1);
  const auto first = static_cast<std::size_t>(adjp.front());
  for (eid_t& x : adjp) x -= static_cast<eid_t>(first);
  const auto arcs = static_cast<std::size_t>(adjp.back());
  std::span<const vid_t> adjncy = std::span(g.adjncy()).subspan(first, arcs);
  std::span<const wgt_t> adjwgt = std::span(g.adjwgt()).subspan(first, arcs);
  std::vector<vid_t> slots;
  std::vector<wgt_t> wgts;
  if (b > 0 || !at(level.halo, d).empty()) {
    std::vector<std::pair<vid_t, wgt_t>> arc;
    for (std::size_t j = 0; j < arcs; ++j) {
      arc.emplace_back(level.slot(d, adjncy[j]), adjwgt[j]);
    }
    for (vid_t v = 0; v < e - b; ++v) {
      std::sort(arc.begin() + adjp[v], arc.begin() + adjp[v + 1]);
    }
    for (const auto& [x, w] : arc) {
      slots.push_back(x);
      wgts.push_back(w);
    }
    adjncy = slots;
    adjwgt = wgts;
  }
  const HostCsr rows(adjp, adjncy, adjwgt,
                     {g.vwgt().data() + b, static_cast<std::size_t>(e - b)});
  return guarded(GpuGraph::upload(dev, rows, tag), rows, tag, guard,
                 AuditFailure::Kind::kCsr, dev.device_id());
}

/// gp-metis's level store: GPU levels, coarse maps and labels stay in
/// device memory, one shard per device.  A host view is a metered
/// download, checked through the bus guard before anything indexes through
/// it (offsets and ids in range; whether the data is right is the audits'
/// verdict).  A level rebuilt on the host is uploaded under the guard.
class DeviceStore {
 public:
  using Graph = ShardedGraph;
  using Match = ShardedMatch;
  using Cmap = ShardedCmap;
  using Where = Shards<part_t>;
  using Labels = GpuPartition;
  using Cache = GpuGainCache;

  /// One device per id in `ids`.  One device charges the run's ledger;
  /// several charge one ledger each, which on_devices rolls up.
  DeviceStore(const PartitionOptions& opts, const std::vector<int>& ids,
              FaultInjector* injector, PartitionResult& res)
      : k_(opts.k),
        guard_{opts.audit_level, injector, &res.health},
        ledger_(&res.ledger),
        ledgers_(ids.size() > 1 ? ids.size() : 0) {
    // GTX-Titan-like devices sized by `opts`, leaks reported in res.exec.
    Device::Config config;
    if (opts.gpu_memory_bytes > 0) config.memory_bytes = opts.gpu_memory_bytes;
    if (opts.gpu_host_workers > 0) config.host_workers = opts.gpu_host_workers;
    for (std::size_t d = 0; d < ids.size(); ++d) {
      Device& dev = *devs_.emplace_back(std::make_unique<Device>(config));
      dev.set_ledger(ledgers_.empty() ? ledger_ : &ledgers_[d]);
      dev.set_fault_injector(injector, ids[d]);
      dev.set_cancel_token(opts.cancel);
      dev.set_leak_sink(&res.exec.pool_leaked_blocks);
    }
  }

  [[nodiscard]] int devices() const { return static_cast<int>(devs_.size()); }
  [[nodiscard]] Device& dev(int d) const { return *at(devs_, d); }
  [[nodiscard]] const BusGuard& guard() const { return guard_; }

  /// Runs step(d) for every device.  Several run concurrently: the run's
  /// ledger gets `stage` at the slowest device's kernel and bus seconds
  /// (kernel/, transfer/), also when a step throws.
  template <typename Step>
  void on_devices(const std::string& stage, Step&& step) const {
    std::vector<std::size_t> from;
    for (const CostLedger& l : ledgers_) from.push_back(l.entries().size());
    auto roll_up = [&] {
      double slowest[2] = {0, 0};  // kernels, transfers
      for (std::size_t d = 0; d < ledgers_.size(); ++d) {
        double sum[2] = {0, 0};
        const auto& rows = ledgers_[d].entries();
        for (std::size_t i = from[d]; i < rows.size(); ++i) {
          sum[rows[i].phase == Phase::kTransfer] += rows[i].seconds;
        }
        for (int t : {0, 1}) slowest[t] = std::max(slowest[t], sum[t]);
      }
      if (slowest[0] > 0) ledger_->charge_raw("kernel/" + stage, slowest[0]);
      if (slowest[1] > 0) {
        const PhaseScope transfer(ledger_, Phase::kTransfer);
        ledger_->charge_raw("transfer/" + stage, slowest[1]);
      }
    };
    try {
      for (int d = 0; d < devices(); ++d) step(d);
    } catch (...) {
      roll_up();
      throw;
    }
    roll_up();
  }

  /// The level read back, shard after shard, in ids.
  CsrGraph download(const ShardedGraph& g) const {
    if (devices() == 1) return g.shards.front().download();
    std::vector<eid_t> adjp{0};
    std::vector<vid_t> adjncy;
    std::vector<wgt_t> adjwgt, vwgt;
    on_devices("d2h/level", [&](int d) {
      const CsrGraph rows = at(g.shards, d).download();
      const eid_t base = adjp.back();
      for (auto x = rows.adjp().begin() + 1; x != rows.adjp().end(); ++x) {
        adjp.push_back(base + *x);
      }
      // A slot out of range (a flipped word) reads back as id -1, which
      // view's bus guard or the handoff audit rejects.
      for (const vid_t x : rows.adjncy()) adjncy.push_back(g.id(d, x));
      adjwgt.insert(adjwgt.end(), rows.adjwgt().begin(), rows.adjwgt().end());
      vwgt.insert(vwgt.end(), rows.vwgt().begin(), rows.vwgt().end());
    });
    return {std::move(adjp), std::move(adjncy), std::move(adjwgt),
            std::move(vwgt)};
  }
  CsrGraph view(const ShardedGraph& g) const {
    CsrGraph host = download(g);
    const auto& adjp = host.adjp();
    require_ids(host.adjncy(), host.num_vertices(),
                adjp.front() == 0 && adjp.back() == host.num_arcs() &&
                    std::is_sorted(adjp.begin(), adjp.end()));
    return host;
  }
  /// A match, in global ids: the one of the level being coarsened.
  std::vector<vid_t> view(const Shards<vid_t>& match) const {
    return ids(gather(match, [&](int d) { return fine_blocks.begin(d); }));
  }
  std::vector<vid_t> view(const ShardedCmap& cmap) const {
    return ids(gather(cmap.local, [&](int d) { return cmap.coarse.begin(d); }));
  }
  Partition view(const GpuPartition& p) const {
    return {k_, gather(p.where, [](int) { return part_t{0}; })};
  }
  AuditFailure audit_cache(const ShardedGraph& g, const Where& where,
                           const GpuGainCache& cache, AuditLevel) const {
    const CsrGraph host = view(g);
    const Partition p{k_, gather(where, [](int) { return part_t{0}; })};
    std::string err = validate_partition(host, p);
    if (err.empty()) err = cache.compare_to_host(host, p.where);
    if (err.empty()) return {};
    return {AuditFailure::Kind::kGainCache, "recompute", std::move(err)};
  }

  /// Uploads the input in blocks after seeding the pools from the level-0
  /// footprint, which bounds every buffer a level allocates: first-touch
  /// allocations, this upload's included, become pool hits.
  const ShardedGraph& input(const CsrGraph& g) {
    for (int d = 0; d < devices(); ++d) {
      dev(d).pool_presize(
          GpuGraph::footprint(static_cast<std::size_t>(g.num_vertices()),
                              static_cast<std::size_t>(g.num_arcs())),
          /*copies=*/2);
    }
    g0_ = upload(g, Distribution::block(g.num_vertices(), devices()), "G0");
    return g0_;
  }
  /// A level built on the host, on the blocks its level's matching fixed
  /// (a serial rebuild numbers leaders block by block too) when they fit.
  /// Its rows go up in slot order, so a level rebuilt from the device's
  /// matching equals the device's.
  ShardedGraph put(const CsrGraph& g, int level) {
    if (coarse_blocks.vtxdist.back() != g.num_vertices()) {
      coarse_blocks = Distribution::block(g.num_vertices(), devices());
    }
    return upload(g, coarse_blocks, "G" + std::to_string(level + 1));
  }
  /// A coarse map built on the host, split over the level's blocks.  An
  /// entry off its device's block of the level put last (a pair across
  /// devices) fails the guard.
  Cmap put(const std::vector<vid_t>& cmap, int level) {
    Cmap out{{}, coarse_blocks};
    on_devices("h2d/cmap", [&](int d) {
      const vid_t base = coarse_blocks.begin(d);
      std::vector<vid_t> local(cmap.begin() + fine_blocks.begin(d),
                               cmap.begin() + fine_blocks.end(d));
      for (vid_t& c : local) {
        c -= base;
        if (c >= 0 && c < coarse_blocks.end(d) - base) continue;
        guard_.require({AuditFailure::Kind::kContraction, "shard-locality",
                        "a rebuilt coarse map pairs rows of two devices"});
      }
      out.local.push_back(upload_array<vid_t>(
          dev(d), local, "cmap/L" + std::to_string(level), guard_,
          AuditFailure::Kind::kContraction));
    });
    return out;
  }
  /// Labels from the host, split over `dist`: the kernels index
  /// part-weight tables with them.
  Where put(const std::vector<part_t>& where, const Distribution& dist) {
    Where out;
    on_devices("h2d/where", [&](int d) {
      out.push_back(upload_array<part_t>(
          dev(d),
          {where.data() + dist.begin(d),
           static_cast<std::size_t>(dist.end(d) - dist.begin(d))},
          "where", guard_, AuditFailure::Kind::kPartition));
    });
    return out;
  }
  /// A checkpoint restore: the labels came back over the bus.
  void load(Where& where, const std::vector<part_t>& host) {
    require_labels({k_, host});
    std::vector<vid_t> sizes;
    for (const auto& s : where) sizes.push_back(static_cast<vid_t>(s.size()));
    where = put(host, Distribution::from_counts(sizes));
  }
  /// With audits on, the skeleton's final audit checks the labels before
  /// the metrics index by them; with audits off, the bus guard does.
  Partition take(const GpuPartition& p) {
    Partition out = view(p);
    if (guard_.level == AuditLevel::kOff) require_labels(out);
    return out;
  }

  /// The blocks of the level being coarsened and of its coarse level, as
  /// its matching fixed them.
  Distribution fine_blocks;
  Distribution coarse_blocks{{0}};
  std::uint64_t halo_bytes = 0;  ///< halo values moved, both ways

  /// Device d's halo values on `g`: value(e, i) of each halo vertex, row
  /// i of owner e, read on the owners (metered as `tag`).
  std::vector<vid_t> read_halo(const ShardedGraph& g, int d,
                               const std::function<vid_t(int, vid_t)>& value,
                               const std::string& tag) const {
    std::vector<vid_t> vals;
    std::vector<std::size_t> read(static_cast<std::size_t>(devices()), 0);
    for (const vid_t u : at(g.halo, d)) {
      const int e = g.dist.owner(u);
      vals.push_back(value(e, u - g.dist.begin(e)));
      ++at(read, e);
    }
    for (int e = 0; e < devices(); ++e) {
      if (at(read, e) > 0) dev(e).meter_d2h(at(read, e) * sizeof(vid_t), tag);
    }
    return vals;
  }
  /// Device d's halo values sent up under the guard, one per halo slot.
  DeviceBuffer<vid_t> send_halo(int d, std::span<const vid_t> vals,
                                const std::string& tag,
                                AuditFailure::Kind kind) {
    if (vals.empty()) return {};
    halo_bytes += 2 * vals.size() * sizeof(vid_t);  // down, then up
    return upload_array<vid_t>(dev(d), vals, tag, guard_, kind);
  }

 private:
  /// Shards read back one after another, shard d's entries plus offset(d).
  template <typename T, typename Offset>
  std::vector<T> gather(const Shards<T>& shards, Offset&& offset) const {
    std::vector<T> out;
    on_devices("d2h/array", [&](int d) {
      const T off = offset(d);
      for (const T x : at(shards, d).d2h_vector()) out.push_back(x + off);
    });
    return out;
  }
  std::vector<vid_t> ids(std::vector<vid_t> host) const {
    require_ids(host, static_cast<vid_t>(host.size()), true);
    return host;
  }
  ShardedGraph upload(const CsrGraph& g, Distribution dist,
                      const std::string& tag) {
    ShardedGraph out{{}, std::move(dist), {}, g.total_vertex_weight()};
    on_devices("h2d/" + tag, [&](int d) {
      const vid_t b = out.dist.begin(d), e = out.dist.end(d);
      std::vector<vid_t> halo;
      for (vid_t v = b; v < e && devices() > 1; ++v) {
        for (const vid_t u : g.neighbors(v)) {
          if (u < b || u >= e) halo.push_back(u);
        }
      }
      out.halo.push_back(sorted_set(std::move(halo)));
      out.shards.push_back(upload_rows(dev(d), g, out, d, tag, guard_));
    });
    return out;
  }
  void require_ids(std::span<const vid_t> ids, vid_t n, bool ok) const {
    if (!guard_.on()) return;
    ok = ok && std::all_of(ids.begin(), ids.end(),
                           [n](vid_t x) { return x >= 0 && x < n; });
    guard_.require(ok ? AuditFailure{}
                      : AuditFailure{AuditFailure::Kind::kCsr,
                                     "transfer-integrity",
                                     "a read-back holds an offset or id out "
                                     "of range"});
  }
  void require_labels(const Partition& p) const {
    if (!guard_.on()) return;
    guard_.require(audit_labels(static_cast<vid_t>(p.where.size()), p, k_,
                                AuditLevel::kPhase));
  }

  part_t k_;
  BusGuard guard_;
  CostLedger* ledger_;
  std::vector<CostLedger> ledgers_;  // first: outlive the devices
  std::vector<std::unique_ptr<Device>> devs_;  // outlive every buffer below
  ShardedGraph g0_;
};

/// gp-metis as a device-store backend (see the header).  The initial
/// partition is the CPU middle phase, an mt V-cycle on the downloaded,
/// guarded handoff graph.  On one device a refined uncoarsening level is
/// one gpu_uncoarsen_level dispatch, from a gain cache built once, on the
/// handoff graph; several devices refine through refine_shards.
class GpBackend final : public BasicVcycleBackend<DeviceStore> {
 public:
  GpBackend(const PartitionOptions& opts, const std::vector<int>& devices,
            vid_t handoff, const VcycleControl& control, PartitionResult& res)
      : BasicVcycleBackend({"gp/gpu-coarsen", "gp/cpu-middle",
                            "gp/gpu-uncoarsen",
                            /*refine_attempts=*/1,
                            /*coarsest_refine=*/Phase::kUncoarsen},
                           &res.ledger,
                           DeviceStore(opts, devices, control.injector, res)),
        opts_(opts),
        devices_(static_cast<int>(devices.size())),
        handoff_(handoff),
        control_(control),
        pool_(opts.threads),
        mt_(opts, MtContext{&pool_, &res.ledger, opts.seed}) {
    pool_.set_cancel_token(opts.cancel);
    pool_.set_fault_injector(control.injector);
  }

  void begin(const ShardedGraph& g) override { input_vwgt_ = g.total_vwgt; }
  vid_t coarsen_target(const PartitionOptions&) const override {
    return handoff_;
  }
  /// Each device matches its own rows, device d on seed + d, and numbers
  /// its coarse vertices in block d of the coarse level.
  ShardedMatch match(const ShardedGraph& g, int level) override {
    ShardedMatch m;
    m.cmap.coarse.vtxdist = {0};
    store().on_devices("coarsen/match/L" + std::to_string(level), [&](int d) {
      GpuMatchResult r =
          gpu_match(dev(d), at(g.shards, d), level,
                    opts_.seed + static_cast<std::uint64_t>(d),
                    coarsen_width(level), opts_.gpu_scan);
      log_.match_conflicts += r.conflicts;
      m.cmap.coarse.vtxdist.push_back(m.cmap.coarse.vtxdist.back() +
                                      r.n_coarse);
      m.match.push_back(std::move(r.match));
      m.cmap.local.push_back(std::move(r.cmap));
    });
    m.n_coarse = m.cmap.coarse.vtxdist.back();
    store().fine_blocks = g.dist;
    store().coarse_blocks = m.cmap.coarse;
    return m;
  }
  /// Each device contracts its own rows into its shard of the coarse
  /// level.  The host reads its halo's coarse ids off their owners, sets
  /// the coarse halo to their set and sends it their coarse slots.
  ShardedGraph contract(const ShardedGraph& fine, const ShardedMatch& m,
                        int level) override {
    const std::string L = "/L" + std::to_string(level);
    const Distribution& next = m.cmap.coarse;
    ShardedGraph coarse{{}, next, {}, fine.total_vwgt};
    try {
      store().on_devices("coarsen/contract" + L, [&](int d) {
        std::vector<vid_t> ids = store().read_halo(
            fine, d,
            [&](int e, vid_t i) {
              return at(m.cmap.local, e).data()[i] + next.begin(e);
            },
            "halo-cmap" + L);
        coarse.halo.push_back(sorted_set(ids));
        for (vid_t& c : ids) c = coarse.slot(d, c);
        const DeviceBuffer<vid_t> halo = store().send_halo(
            d, ids, "halo-cmap" + L, AuditFailure::Kind::kContraction);
        coarse.shards.push_back(gpu_contract(
            dev(d), at(fine.shards, d), at(m.match, d), at(m.cmap.local, d),
            next.end(d) - next.begin(d), level, coarsen_width(level),
            opts_.gpu_hash_contraction, opts_.gpu_scan, nullptr,
            {halo.span()}));
      });
    } catch (const std::logic_error& e) {
      // The contraction's own invariants caught an inconsistent (match,
      // cmap) before writing past a buffer: a failed contraction audit.
      store().guard().require({AuditFailure::Kind::kContraction,
                               "contraction-invariant",
                               "gpu level " + std::to_string(level) + ": " +
                                   e.what()});
    }
    return coarse;
  }
  GpuPartition initial_partition(const ShardedGraph& g,
                                 VcycleLevels& levels) override;
  /// With no GPU level there is nothing to carry a cache down to; several
  /// devices refine without one.
  bool caches_gains(int) const override {
    return devices_ == 1 && log_.gpu_coarsen_levels > 0;
  }
  void build_cache(const ShardedGraph& g, const Shards<part_t>& where,
                   GpuGainCache& cache, RefineSite site) override {
    pw_ = {};  // part weights are recounted against these labels
    cache = GpuGainCache::build(
        dev(0), g.shards.front(), where.front(), opts_.k,
        site.coarsest ? "uncoarsen/gaincache/handoff"
                      : "uncoarsen/gaincache/L" + std::to_string(site.level),
        uncoarsen_launch_width(opts_, g.num_vertices()), opts_.gpu_scan);
  }
  void refine(const ShardedGraph& g, GpuPartition& p, GpuGainCache& cache,
              RefineSite site) override {
    if (site.coarsest) return;  // the CPU middle phase refined it
    if (devices_ > 1) {
      refine_shards(g, p, "/L" + std::to_string(site.level));
      return;
    }
    gpu_refine(dev(0), g.shards.front(), p.where.front(), opts_.k, opts_.eps,
               opts_.refine_passes, site.level,
               uncoarsen_launch_width(opts_, g.num_vertices()), &cache, &pw_,
               opts_.gpu_scan);
  }
  std::string refine_name(RefineSite site) const override {
    return "gpu-refine/L" + std::to_string(site.level);
  }
  Shards<part_t> project(const ShardedGraph& fine, const ShardedCmap& cmap,
                         const Shards<part_t>& coarse_where,
                         int level) override {
    Shards<part_t> where;
    store().on_devices("uncoarsen/project/L" + std::to_string(level),
                       [&](int d) {
                         const GpuGraph& s = at(fine.shards, d);
                         where.push_back(fine_labels(d, s, level));
                         gpu_project(dev(d), at(cmap.local, d),
                                     at(coarse_where, d), where.back(), level,
                                     uncoarsen_launch_width(opts_, s.n));
                       });
    return where;
  }
  /// One device only: several cache no gains.
  std::optional<Shards<part_t>> uncoarsen(const ShardedGraph& fine,
                                          const ShardedCmap& cmap,
                                          const Shards<part_t>& coarse_where,
                                          GpuGainCache& cache,
                                          int level) override {
    Shards<part_t> where;
    where.push_back(fine_labels(0, fine.shards.front(), level));
    gpu_uncoarsen_level(dev(0), fine.shards.front(), cmap.local.front(),
                        coarse_where.front(), where.front(), cache, pw_,
                        opts_.k, opts_.eps, opts_.refine_passes, level,
                        uncoarsen_launch_width(opts_, fine.num_vertices()),
                        opts_.gpu_scan);
    return where;
  }

  /// The attempt's log; adds the devices' stats to `res`.
  GpPhaseLog finish(PartitionResult& res) {
    for (int d = 0; d < devices_; ++d) {
      const Device& x = dev(d);  // leaked blocks come through the leak sink
      res.exec += {x.kernels_launched(), x.pool_hits(), x.pool_misses(),
                   x.pool_recycled_bytes(), 0, x.peak_bytes()};
      log_.h2d_bytes += x.total_h2d_bytes();
      log_.d2h_bytes += x.total_d2h_bytes();
    }
    log_.devices = devices_;
    log_.halo_exchange_bytes = store().halo_bytes;
    return log_;
  }

 private:
  [[nodiscard]] Device& dev(int d) { return store().dev(d); }
  /// A device's launch width at coarsening level `level`.  The paper
  /// shrinks the launch with the graph to avoid underutilized kernels
  /// (Section III-D's non-persistent data ownership): halved per level,
  /// down to 256, and shared by the devices, down to 256 each.
  [[nodiscard]] std::int64_t coarsen_width(int level) const {
    std::int64_t t = opts_.gpu_threads;
    for (int i = 0; i < level; ++i) {
      t = std::max<std::int64_t>(256, t / 2);
    }
    return devices_ > 1 ? std::max<std::int64_t>(256, t / devices_) : t;
  }
  DeviceBuffer<part_t> fine_labels(int d, const GpuGraph& fine, int level) {
    return {dev(d), static_cast<std::size_t>(fine.n),
            "where/L" + std::to_string(level)};
  }
  void refine_shards(const ShardedGraph& g, GpuPartition& p,
                     const std::string& L);

  const PartitionOptions& opts_;
  int devices_;
  vid_t handoff_;
  VcycleControl control_;
  ThreadPool pool_;
  MtBackend mt_;
  wgt_t input_vwgt_ = 0;  ///< host-known at the upload
  /// Part weights carried across uncoarsening levels: projection keeps
  /// per-part sums exact, so they are counted once per cache build.
  DeviceBuffer<wgt_t> pw_;
  GpPhaseLog log_;
};

GpuPartition GpBackend::initial_partition(const ShardedGraph& g,
                                          VcycleLevels& levels) {
  const BusGuard& guard = store().guard();
  const CsrGraph handoff = store().download(g);
  if (guard.on()) {
    // The handoff graph must be well-formed and conserve the input's
    // total vertex weight, since GPU contraction only merges vertices.
    AuditFailure f =
        audit_csr(handoff, std::max(guard.level, AuditLevel::kPhase));
    if (f.ok() && handoff.total_vertex_weight() != input_vwgt_) {
      f = {AuditFailure::Kind::kContraction, "vertex-weight-conservation",
           "handoff graph total vertex weight " +
               std::to_string(handoff.total_vertex_weight()) +
               " != input total " + std::to_string(input_vwgt_)};
    }
    guard.require(std::move(f));
  }
  log_.gpu_coarsen_levels = levels.levels;
  log_.handoff_vertices = handoff.num_vertices();
  const auto mt_out =
      vcycle_pipeline(handoff, opts_, mt_, levels.levels, control_);
  log_.cpu_levels = mt_out.levels;
  levels.append(mt_out);
  return {store().put(mt_out.partition.where, g.dist)};
}

/// Refinement on several devices (DESIGN.md §3.11), ledger suffix `L`.
/// Each device sums its rows' part weights and gets its halo's labels.
/// The passes run under refine_pass_committed.  Each pass, each device
/// proposes its rows' moves; the host commits them all and sends each
/// device the committed moves of its rows and halo as slots (a lookup per
/// move and device, charged with the replay), which the next pass's
/// dispatch applies.
void GpBackend::refine_shards(const ShardedGraph& g, GpuPartition& p,
                              const std::string& L) {
  const wgt_t max_pw = max_part_weight(g.total_vwgt, opts_.k, opts_.eps);
  const wgt_t min_pw = min_part_weight(g.total_vwgt, opts_.k, opts_.eps);
  std::vector<wgt_t> pw(static_cast<std::size_t>(opts_.k), 0);
  std::vector<wgt_t> vwgt(static_cast<std::size_t>(g.num_vertices()));
  Shards<part_t> halo;  // labels of each device's halo slots
  auto label = [&](int d, vid_t s) -> part_t& {
    const vid_t n = at(g.shards, d).n;
    return s < n ? at(p.where, d).data()[s] : at(halo, d).data()[s - n];
  };
  store().on_devices("uncoarsen/setup" + L, [&](int d) {
    const GpuGraph& s = at(g.shards, d);
    halo.push_back(store().send_halo(
        d,
        store().read_halo(
            g, d, [&](int e, vid_t i) { return at(p.where, e).data()[i]; },
            "halo-where" + L),
        "halo-where" + L, AuditFailure::Kind::kPartition));
    DeviceBuffer<wgt_t> sums(dev(d), pw.size(), "pw" + L);
    const auto T = static_cast<vid_t>(uncoarsen_launch_width(opts_, s.n));
    dev(d).launch("uncoarsen/setup" + L, T, [&](std::int64_t t) {
      std::uint64_t work = 0;
      for (auto i = static_cast<vid_t>(t); i < s.n; i += T) {
        atomic_add(sums.data()[label(d, i)], wgt_t{s.vwgt.data()[i]});
        ++work;
      }
      return work;
    });
    dev(d).meter_d2h(pw.size() * sizeof(wgt_t), "pw" + L);
    for (std::size_t q = 0; q < pw.size(); ++q) pw[q] += sums.data()[q];
  });
  std::vector<MoveProposal> moves;  // committed by the last pass
  std::size_t count = 0;            // proposed by the last pass
  // Pass `pass`'s dispatch on every device: apply `moves`, then propose
  // in the `upward` direction, if one is given.
  auto dispatch = [&](int pass, std::optional<bool> upward) {
    const std::string P = L + "/p" + std::to_string(pass);
    std::vector<MoveProposal> proposed;
    store().on_devices("uncoarsen/pass" + P, [&](int d) {
      const GpuGraph& s = at(g.shards, d);
      const std::int64_t T = uncoarsen_launch_width(opts_, s.n);
      std::vector<std::vector<MoveProposal>> found(static_cast<std::size_t>(T));
      // The committed moves of the device's rows and halo go up as slots,
      // with the part weights; one dispatch applies them, then proposes.
      std::vector<std::pair<vid_t, part_t>> mine;
      for (const MoveProposal& m : moves) {
        if (const vid_t x = g.slot(d, m.v); x >= 0) mine.emplace_back(x, m.to);
      }
      dev(d).meter_h2d(mine.size() * (sizeof(vid_t) + sizeof(part_t)) +
                           pw.size() * sizeof(wgt_t),
                       "moves" + P);
      dev(d).launch_fused("uncoarsen/pass" + P, [&](Device::Fused& f) {
        f.stage("apply", std::ssize(mine), [&](std::int64_t i) {
          const auto& [x, to] = at(mine, static_cast<int>(i));
          label(d, x) = to;
          return std::uint64_t{1};
        });
        if (!upward) return;
        f.stage("propose", T, [&](std::int64_t t) {
          // Per-executor scratch; conn is all 0 again after a vertex.
          thread_local std::vector<wgt_t> conn;
          thread_local std::vector<part_t> parts;
          if (conn.size() < pw.size()) conn.resize(pw.size(), 0);
          auto label_d = [&](vid_t x) { return label(d, x); };
          std::uint64_t work = 0;
          for (auto i = static_cast<vid_t>(t); i < s.n;
               i += static_cast<vid_t>(T)) {
            const part_t pv = label(d, i);
            const wgt_t internal =
                gather_conn(s.adjp.data(), s.adjncy.data(), s.adjwgt.data(),
                            label_d, i, pv, conn, parts);
            // parts is in first-arc order: ties need no rescan.
            const BestDest bd = choose_move(
                parts, [&](std::size_t j) { return at(conn, parts[j]); },
                at(pw, pv) > max_pw ? std::numeric_limits<wgt_t>::min()
                                    : internal,
                [&](part_t q) { return *upward ? q > pv : q < pv; },
                {}, label_d);
            for (const part_t q : parts) at(conn, q) = 0;
            work += 1 + static_cast<std::uint64_t>(s.adjp.data()[i + 1] -
                                                   s.adjp.data()[i]);
            if (bd.part == kInvalidPart) continue;
            at(found, static_cast<int>(t))
                .push_back({i, pv, bd.part, bd.conn - internal});
          }
          return work;
        });
      });
      if (!upward) return;
      const std::size_t before = proposed.size();
      for (const auto& list : found) {
        for (MoveProposal m : list) {  // each sent with its vertex weight
          const vid_t i = std::exchange(m.v, g.id(d, m.v));
          at(vwgt, m.v) = s.vwgt.data()[i];
          proposed.push_back(m);
        }
      }
      dev(d).meter_d2h((proposed.size() - before) *
                           (sizeof(MoveProposal) + sizeof(wgt_t)),
                       "proposals" + P);
    });
    count = proposed.size();
    return proposed;
  };
  const int passes = refine_pass_committed(
      vwgt, pw, max_pw, min_pw, opts_.refine_passes, dispatch,
      [&](int pass, std::vector<MoveProposal> committed) {
        moves = std::move(committed);
        charge_serial("uncoarsen/replay" + L + "/p" + std::to_string(pass),
                      count + devices_ * moves.size());
      });
  // The last pass's commits are applied by a dispatch of their own.
  if (!moves.empty()) (void)dispatch(passes, std::nullopt);
}

/// The compact device CSR's fit guard: true when the arc count, the total
/// vertex weight and the total arc weight of `g` all fit the device's
/// 32-bit `idx_t` (every coarse level then fits too — contraction only
/// merges).  Otherwise notes why in `health`.
bool device_csr_fits(const CsrGraph& g, const char* who, RunHealth& health) {
  constexpr wgt_t kMax = std::numeric_limits<idx_t>::max();
  const char* what = g.num_arcs() > kMax                ? "arc count"
                     : g.total_vertex_weight() > kMax   ? "total vertex weight"
                     : g.total_arc_weight() > kMax      ? "total arc weight"
                                                        : nullptr;
  if (what == nullptr) return true;
  health.note(std::string(who) + ": " + what +
              " exceeds the 32-bit device CSR; running on the CPU");
  log_warn("%s: %s does not fit the 32-bit device CSR; running on the CPU",
           who, what);
  return false;
}

/// One run of either GPU driver on `n_devices` devices: attempts under the
/// GPU attempt ladder, then maybe the pure-CPU rung, an mt V-cycle under
/// vcycle_run with the run's control (one deadline, one shed note).  A
/// restart is a retry and a modeled device reset.  An OOM raises the CPU
/// handoff (4x, or the whole graph); a task fault and a failed audit earn
/// one restart each; a device fault is retried by gp-metis and drops the
/// device for gp-metis-multi (`multi`), which redistributes over the
/// survivors.  An AuditError with no injector attached propagates; a CSR
/// too large for 32-bit device arrays stays on the CPU.
PartitionResult run_devices(const CsrGraph& g, const PartitionOptions& opts,
                            int n_devices, bool multi, GpPhaseLog* log) {
  validate_options(g, opts);
  WallTimer wall;
  PartitionResult res;
  const std::unique_ptr<FaultInjector> injector = opts.make_fault_injector();
  const Watchdog watchdog(opts.time_budget_seconds);
  RefinementShed shed(watchdog, res.health);
  const VcycleControl control{injector.get(), &res.health, &shed};
  const char* who = multi ? "gp-metis-multi" : "gp-metis";
  std::vector<int> devices(static_cast<std::size_t>(n_devices));  // alive
  std::iota(devices.begin(), devices.end(), 0);
  const vid_t n = g.num_vertices();
  vid_t handoff =
      std::max<vid_t>(opts.gpu_cpu_threshold, opts.coarsen_target());
  GpPhaseLog stats;
  bool on_gpu = false;
  int attempts = 0, oom_retries = 0, task_faults = 0, audit_failures = 0;
  auto say = [&](const std::string& what) {
    res.health.note(who + (": " + what));
    log_warn("%s: %s", who, what.c_str());
  };
  // A restart is a retry, a degraded run, and a modeled device reset.
  auto restart = [&](const char* label) {
    res.health.gpu_retries += 1;
    res.health.degraded = true;
    res.ledger.charge_raw(label, kDeviceResetSeconds);
  };
  const bool fits = device_csr_fits(g, who, res.health);
  while (fits && !on_gpu &&
         attempts < (multi ? n_devices + kMaxGpuOomRetries + 1
                           : kMaxGpuAttempts)) {
    ++attempts;
    try {
      // A device with no rows would have nothing to do.
      GpBackend backend(
          opts,
          {devices.begin(),
           devices.begin() + std::min<std::ptrdiff_t>(std::ssize(devices),
                                                      std::max<vid_t>(1, n))},
          handoff, control, res);
      try {
        vcycle_attempt(g, opts, backend, control, res);
      } catch (...) {
        (void)backend.finish(res);  // a failed attempt's devices count too
        throw;
      }
      stats = backend.finish(res);
      on_gpu = true;
    } catch (const DeviceOutOfMemory& e) {
      restart("fault/device-reset");
      // Once the handoff covers the whole graph the GPU does no level at
      // all, so further retries cannot help.
      if (++oom_retries > kMaxGpuOomRetries || handoff >= n) {
        say(std::string("OOM retries exhausted (") + e.what() + ")");
        break;
      }
      handoff = handoff > n / 4 ? n : handoff * 4;
      say(std::string("OOM (") + e.what() + "); retrying with CPU handoff at " +
          std::to_string(handoff) + " vertices");
    } catch (const DeviceFailure& e) {
      restart("fault/device-reset");
      if (!multi) {  // a transient fault: retry
        res.health.note("gp-metis: device failure (" + std::string(e.what()) +
                        "); retrying");
        continue;
      }
      std::erase(devices, e.device_id());
      res.health.note("gp-metis-multi: device " +
                      std::to_string(e.device_id()) + " failed (" + e.what() +
                      "); redistributing over " +
                      std::to_string(devices.size()) + " surviving device(s)");
      if (devices.empty()) break;
    } catch (const ThreadPoolTaskError& e) {
      // Injected `task` fault in a CPU phase: the attempt unwound at a job
      // boundary, so restart it once; occurrence counters keep advancing,
      // so a one-shot rule cannot refire.
      restart("fault/task-restart");
      if (++task_faults > 1) {
        say(std::string("repeated pool task fault (") + e.what() +
            "); leaving the GPU");
        break;
      }
      say(std::string("pool task fault (") + e.what() +
          "); restarting the attempt");
    } catch (const AuditError& e) {
      // Damage beyond level scope.  Without an injector it is a genuine
      // logic bug — never mask it behind a fallback.
      if (!injector) throw;
      ++res.health.rollbacks;
      restart("fault/device-reset");
      if (++audit_failures > 1 || watchdog.expired()) {
        say(std::string("audit failed again or past the time budget (") +
            e.what() + "); leaving the GPU");
        break;
      }
      res.health.note(std::string("rollback: ") + who +
                      " attempt restarted after failed audit (" + e.what() +
                      ")");
    }
  }
  if (!on_gpu) {
    say("no usable GPU path after " + std::to_string(attempts) +
        " attempt(s); degrading to a pure mt-metis run");
    res.health.fallbacks += 1;
    res.health.degraded = true;
    ThreadPool pool(opts.threads);
    pool.set_cancel_token(opts.cancel);
    pool.set_fault_injector(injector.get());
    MtBackend backend(opts, MtContext{&pool, &res.ledger, opts.seed});
    vcycle_run(g, opts, backend, control, res);
  }
  // Retried attempts' charges stay in the ledger, so degraded runs show
  // their wasted work in the phase roll-up.
  finish_run(res, injector.get());
  if (log) {
    *log = on_gpu ? stats : GpPhaseLog{0, res.coarsen_levels, n};
    log->attempts = attempts;
    log->devices_lost = static_cast<int>(res.health.devices_lost);
    log->cpu_fallback = !on_gpu;
  }
  res.wall_seconds = wall.seconds();
  return res;
}

}  // namespace

PartitionResult gp_metis_run(const CsrGraph& g, const PartitionOptions& opts,
                             GpPhaseLog* log) {
  return run_devices(g, opts, 1, /*multi=*/false, log);
}

PartitionResult multi_gpu_run(const CsrGraph& g, const PartitionOptions& opts,
                              GpPhaseLog* log) {
  return run_devices(g, opts, opts.gpu_devices, /*multi=*/true, log);
}

PartitionResult GpMetisPartitioner::run(const CsrGraph& g,
                                        const PartitionOptions& opts) const {
  return gp_metis_run(g, opts, nullptr);
}

PartitionResult MultiGpuPartitioner::run(const CsrGraph& g,
                                         const PartitionOptions& opts) const {
  return multi_gpu_run(g, opts, nullptr);
}

std::unique_ptr<Partitioner> make_hybrid_partitioner() {
  return std::make_unique<GpMetisPartitioner>();
}

std::unique_ptr<Partitioner> make_multi_gpu_partitioner() {
  return std::make_unique<MultiGpuPartitioner>();
}

}  // namespace gp
