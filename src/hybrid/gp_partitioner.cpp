#include "hybrid/gp_partitioner.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "hybrid/gpu_contract.hpp"
#include "hybrid/gpu_driver.hpp"
#include "hybrid/gpu_gain_cache.hpp"
#include "hybrid/gpu_matching.hpp"
#include "hybrid/gpu_refine.hpp"
#include "mt/mt_partitioner.hpp"
#include "util/timer.hpp"

namespace gp {

namespace {

/// Bounded GPU attempts before degrading to a pure mt-metis run.
constexpr int kMaxGpuAttempts = 3;

/// A partition whose labels live in device memory.
struct GpuPartition {
  part_t k = 0;
  DeviceBuffer<part_t> where;
};

/// gp-metis's level store: GPU levels, coarse maps and labels stay in
/// device memory.  A host view is a metered download, checked through the
/// bus guard before anything indexes through it (offsets and ids in
/// range; whether the data is right is the audits' verdict).  A level
/// rebuilt on the host is uploaded under the guard.
class DeviceStore {
 public:
  using Graph = GpuGraph;
  using Match = GpuMatchResult;
  using Cmap = DeviceBuffer<vid_t>;
  using Where = DeviceBuffer<part_t>;
  using Labels = GpuPartition;
  using Cache = GpuGainCache;

  DeviceStore(std::unique_ptr<Device> dev, part_t k, BusGuard guard)
      : dev_(std::move(dev)), k_(k), guard_(guard) {}

  [[nodiscard]] Device& dev() const { return *dev_; }
  [[nodiscard]] const BusGuard& guard() const { return guard_; }

  CsrGraph view(const GpuGraph& g) const {
    CsrGraph host = g.download();
    const auto adjp = host.adjp();
    require_ids(host.adjncy(), host.num_vertices(),
                adjp.front() == 0 && adjp.back() == host.num_arcs() &&
                    std::is_sorted(adjp.begin(), adjp.end()));
    return host;
  }
  std::vector<vid_t> view(const DeviceBuffer<vid_t>& ids) const {
    std::vector<vid_t> host = ids.d2h_vector();
    require_ids(host, static_cast<vid_t>(host.size()), true);
    return host;
  }
  Partition view(const GpuPartition& p) const {
    return {p.k, p.where.d2h_vector()};
  }
  AuditFailure audit_cache(const GpuGraph& g, const Where& where,
                           const GpuGainCache& cache, AuditLevel) const {
    const CsrGraph host = view(g);
    const Partition p{k_, where.d2h_vector()};
    std::string err = validate_partition(host, p);
    if (err.empty()) err = cache.compare_to_host(host, p.where);
    if (err.empty()) return {};
    return {AuditFailure::Kind::kGainCache, "recompute", std::move(err)};
  }

  /// Uploads the input, after seeding the pool from the level-0 footprint:
  /// every buffer a level allocates is bounded by the level-0 arrays, so
  /// the V-cycle's first-touch allocations, this upload's included, become
  /// pool hits.
  const GpuGraph& input(const CsrGraph& g) {
    dev_->pool_presize(
        GpuGraph::footprint(static_cast<std::size_t>(g.num_vertices()),
                            static_cast<std::size_t>(g.num_arcs())),
        /*copies=*/2);
    g0_ = upload_graph(*dev_, g, "G0", guard_);
    return g0_;
  }
  GpuGraph put(const CsrGraph& g, int level) {
    return upload_graph(*dev_, g, "G" + std::to_string(level + 1), guard_);
  }
  Cmap put(const std::vector<vid_t>& cmap, int level) {
    return upload_array<vid_t>(*dev_, cmap, "cmap/L" + std::to_string(level),
                               guard_, AuditFailure::Kind::kContraction);
  }
  /// Labels from the host: the kernels index part-weight tables with them.
  Where put(const std::vector<part_t>& where) {
    return upload_array<part_t>(*dev_, where, "where", guard_,
                                AuditFailure::Kind::kPartition);
  }
  /// A checkpoint restore: the labels came back over the bus.
  void load(Where& where, const std::vector<part_t>& host) {
    require_labels({k_, host});
    where = put(host);
  }
  /// With audits on, the skeleton's final audit checks the labels before
  /// the metrics index by them; with audits off, the bus guard does.
  Partition take(const GpuPartition& p) {
    Partition out = view(p);
    if (guard_.level == AuditLevel::kOff) require_labels(out);
    return out;
  }

 private:
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

  std::unique_ptr<Device> dev_;  // first: outlives every buffer below
  part_t k_;
  BusGuard guard_;
  GpuGraph g0_;
};

/// gp-metis as a device-store backend (see the header).  The initial
/// partition is the CPU middle phase: the handoff graph is downloaded,
/// guarded, partitioned by an mt V-cycle nested at the handoff level, and
/// its labels uploaded.  Each refined uncoarsening level is one
/// gpu_uncoarsen_level dispatch; the gain cache is built once, on the
/// handoff graph.
class GpBackend final : public BasicVcycleBackend<DeviceStore> {
 public:
  GpBackend(const PartitionOptions& opts, vid_t handoff,
            const VcycleControl& control, PartitionResult& res)
      : BasicVcycleBackend({"gp/gpu-coarsen", "gp/cpu-middle",
                            "gp/gpu-uncoarsen",
                            /*refine_attempts=*/1,
                            /*coarsest_refine=*/Phase::kUncoarsen},
                           &res.ledger,
                           DeviceStore(make_device(opts, &res.ledger,
                                                   control.injector, 0, res),
                                       opts.k,
                                       BusGuard{opts.audit_level,
                                                control.injector,
                                                &res.health})),
        opts_(opts),
        handoff_(handoff),
        control_(control),
        pool_(opts.threads),
        mt_(opts, MtContext{&pool_, &res.ledger, opts.seed}) {
    pool_.set_cancel_token(opts.cancel);
    pool_.set_fault_injector(control.injector);
  }

  void begin(const GpuGraph& g) override { input_vwgt_ = g.total_vwgt; }
  vid_t coarsen_target(const PartitionOptions&) const override {
    return handoff_;
  }
  GpuMatchResult match(const GpuGraph& g, int level) override {
    GpuMatchResult m = gpu_match(dev(), g, level, opts_.seed,
                                 coarsen_width(level), opts_.gpu_scan);
    log_.match_conflicts += m.conflicts;
    return m;
  }
  GpuGraph contract(const GpuGraph& fine, const GpuMatchResult& m,
                    int level) override {
    GpuGraph coarse;
    try {
      coarse = gpu_contract(dev(), fine, m.match, m.cmap, m.n_coarse, level,
                            coarsen_width(level),
                            opts_.gpu_hash_contraction, opts_.gpu_scan);
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
  GpuPartition initial_partition(const GpuGraph& g,
                                 VcycleLevels& levels) override;
  /// With no GPU level there is nothing to carry a cache down to.
  bool caches_gains(int) const override { return log_.gpu_coarsen_levels > 0; }
  void build_cache(const GpuGraph& g, const DeviceBuffer<part_t>& where,
                   GpuGainCache& cache, RefineSite site) override {
    pw_ = {};  // part weights are recounted against these labels
    cache = GpuGainCache::build(
        dev(), g, where, opts_.k,
        site.coarsest ? "uncoarsen/gaincache/handoff"
                      : "uncoarsen/gaincache/L" + std::to_string(site.level),
        uncoarsen_launch_width(opts_, g.n), opts_.gpu_scan);
  }
  void refine(const GpuGraph& g, GpuPartition& p, GpuGainCache& cache,
              RefineSite site) override {
    if (site.coarsest) return;  // the CPU middle phase refined it
    gpu_refine(dev(), g, p.where, opts_.k, opts_.eps, opts_.refine_passes,
               site.level, uncoarsen_launch_width(opts_, g.n), &cache, &pw_,
               opts_.gpu_scan);
  }
  std::string refine_name(RefineSite site) const override {
    return "gpu-refine/L" + std::to_string(site.level);
  }
  DeviceBuffer<part_t> project(const GpuGraph& fine,
                               const DeviceBuffer<vid_t>& cmap,
                               const DeviceBuffer<part_t>& coarse_where,
                               int level) override {
    DeviceBuffer<part_t> where = fine_labels(fine, level);
    gpu_project(dev(), cmap, coarse_where, where, level,
                uncoarsen_launch_width(opts_, fine.n));
    return where;
  }
  std::optional<DeviceBuffer<part_t>> uncoarsen(
      const GpuGraph& fine, const DeviceBuffer<vid_t>& cmap,
      const DeviceBuffer<part_t>& coarse_where, GpuGainCache& cache,
      int level) override {
    DeviceBuffer<part_t> where = fine_labels(fine, level);
    gpu_uncoarsen_level(dev(), fine, cmap, coarse_where, where, cache, pw_,
                        opts_.k, opts_.eps, opts_.refine_passes, level,
                        uncoarsen_launch_width(opts_, fine.n), opts_.gpu_scan);
    return where;
  }

  /// The finished attempt's log; adds the device's stats to `res`.
  GpPhaseLog finish(PartitionResult& res) {
    res.exec += device_exec_stats(dev());
    log_.h2d_bytes = dev().total_h2d_bytes();
    log_.d2h_bytes = dev().total_d2h_bytes();
    return log_;
  }

 private:
  [[nodiscard]] Device& dev() { return store().dev(); }
  /// Launch width of coarsening level `level`.  The paper reduces the
  /// launched threads as the graph shrinks to avoid underutilized kernels
  /// (Section III-D's non-persistent data ownership): halved per level,
  /// down to 256.
  [[nodiscard]] std::int64_t coarsen_width(int level) const {
    std::int64_t t = opts_.gpu_threads;
    for (int i = 0; i < level; ++i) {
      t = std::max<std::int64_t>(256, t / 2);
    }
    return t;
  }
  DeviceBuffer<part_t> fine_labels(const GpuGraph& fine, int level) {
    return {dev(), static_cast<std::size_t>(fine.n),
            "where/L" + std::to_string(level)};
  }

  const PartitionOptions& opts_;
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

GpuPartition GpBackend::initial_partition(const GpuGraph& g,
                                          VcycleLevels& levels) {
  const BusGuard& guard = store().guard();
  const CsrGraph handoff = g.download();
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
  return {opts_.k, store().put(mt_out.partition.where)};
}

}  // namespace

PartitionResult gp_metis_run(const CsrGraph& g, const PartitionOptions& opts,
                             GpPhaseLog* log) {
  validate_options(g, opts);
  WallTimer wall;
  PartitionResult res;
  const std::unique_ptr<FaultInjector> injector = opts.make_fault_injector();
  GpPhaseLog stats;
  const GpuRungs rungs{
      "gp-metis", kMaxGpuAttempts,
      [&](const DeviceFailure& e) {  // a transient fault: retry
        res.health.note("gp-metis: device failure (" + std::string(e.what()) +
                        "); retrying");
        return true;
      }};
  const GpuLadderOutcome out = run_gpu_ladder(
      g, opts, injector.get(), rungs, res,
      [&](vid_t handoff, const VcycleControl& control) {
        GpBackend backend(opts, handoff, control, res);
        vcycle_attempt(g, opts, backend, control, res);
        stats = backend.finish(res);
      });
  // Retried attempts' charges stay in the ledger, so degraded runs show
  // their wasted work in the phase roll-up.
  finish_run(res, injector.get());
  if (log) {
    *log = out.on_gpu ? stats
                      : GpPhaseLog{0, res.coarsen_levels, g.num_vertices()};
    log->attempts = out.attempts;
    log->cpu_fallback = !out.on_gpu;
  }
  res.wall_seconds = wall.seconds();
  return res;
}

PartitionResult GpMetisPartitioner::run(const CsrGraph& g,
                                        const PartitionOptions& opts) const {
  return gp_metis_run(g, opts, nullptr);
}

std::unique_ptr<Partitioner> make_hybrid_partitioner() {
  return std::make_unique<GpMetisPartitioner>();
}

}  // namespace gp
