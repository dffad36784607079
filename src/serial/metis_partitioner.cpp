#include "serial/metis_partitioner.hpp"

#include <memory>
#include <string>
#include <utility>

#include "core/host_steps.hpp"
#include "core/vcycle.hpp"
#include "serial/hem_matching.hpp"
#include "serial/kway_refine.hpp"
#include "serial/rb_partition.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace gp {

namespace {

/// The Metis kernels on one core: HEM matching and recursive bisection
/// drawing from one seeded stream, the reference contraction, and the
/// greedy k-way refiner (deterministic, so one refine attempt).
class SerialBackend final : public VcycleBackend {
 public:
  SerialBackend(const PartitionOptions& opts, CostLedger* ledger)
      : VcycleBackend({"serial/coarsen", "serial/initpart",
                       "serial/uncoarsen", /*refine_attempts=*/1,
                       /*coarsest_refine=*/Phase::kInitpart},
                      ledger),
        opts_(opts),
        rng_(opts.seed) {}

  void begin(const CsrGraph& /*g*/) override {
    rng_ = Rng(opts_.seed);
    ws_ = KwayWorkspace{};
  }

  MatchResult match(const CsrGraph& g, int /*level*/) override {
    SerialMatchStats stats;
    MatchResult m = hem_match_serial(g, rng_, &stats);
    match_work_ = stats.work_units;
    return m;
  }

  CsrGraph contract(const CsrGraph& fine, const MatchResult& m,
                    int level) override {
    // The match is charged only once its level is kept: a matching that
    // stalls coarsening, or fails its audit, is not metered.
    charge_serial("coarsen/match/L" + std::to_string(level), match_work_);
    return contract_reference(fine, m, level, ledger());
  }

  Partition initial_partition(const CsrGraph& g, VcycleLevels&) override {
    RbStats stats;
    Partition p = recursive_bisection(g, opts_.k, opts_.eps, rng_, &stats);
    charge_serial("initpart/rb", stats.work_units);
    return p;
  }

  void build_cache(const CsrGraph& g, const std::vector<part_t>& where,
                   GainCache& cache, RefineSite site) override {
    build_gain_cache(SerialRunner(ledger()),
                     refine_name(site) + "/gaincache-build", g, where,
                     opts_.k, cache);
  }

  void refine(const CsrGraph& g, Partition& p, GainCache& cache,
              RefineSite site) override {
    const auto st = kway_refine_serial(g, p, opts_.eps, opts_.refine_passes,
                                       &cache, &ws_);
    charge_serial(refine_name(site), st.work_units);
  }

  std::string refine_name(RefineSite site) const override {
    return site.coarsest ? "initpart/refine"
                         : "uncoarsen/refine/L" + std::to_string(site.level);
  }

  std::vector<part_t> project(const CsrGraph& fine,
                              const std::vector<vid_t>& cmap,
                              const std::vector<part_t>& coarse_where,
                              int level) override {
    auto where = project_partition(cmap, coarse_where);
    charge_serial("uncoarsen/project/L" + std::to_string(level),
                  static_cast<std::uint64_t>(fine.num_vertices()));
    return where;
  }

  GainCache project_cache(const CsrGraph& fine,
                          const std::vector<part_t>& fine_where,
                          const std::vector<vid_t>& cmap,
                          const GainCache& coarse, int level) override {
    return project_gain_cache(SerialRunner(ledger()),
                              "uncoarsen/gaincache/L" + std::to_string(level),
                              coarse, fine, fine_where, cmap, opts_.k);
  }

 private:
  const PartitionOptions& opts_;
  Rng rng_;
  std::uint64_t match_work_ = 0;  ///< work of the last match()
  KwayWorkspace ws_;              ///< refiner scratch reused across levels
};

}  // namespace

PartitionResult SerialMetisPartitioner::run(const CsrGraph& g,
                                            const PartitionOptions& opts) const {
  validate_options(g, opts);
  WallTimer wall;
  PartitionResult res;
  auto injector = opts.make_fault_injector();
  SerialBackend backend(opts, &res.ledger);
  vcycle_run(g, opts, backend, injector.get(), res);
  finish_run(res, injector.get());
  res.wall_seconds = wall.seconds();
  return res;
}

std::unique_ptr<Partitioner> make_serial_partitioner() {
  return std::make_unique<SerialMetisPartitioner>();
}

}  // namespace gp
