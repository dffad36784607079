#include "mt/mt_partitioner.hpp"

#include <algorithm>
#include <memory>

#include "mt/mt_contract.hpp"
#include "mt/mt_initpart.hpp"
#include "mt/mt_matching.hpp"
#include "mt/mt_refine.hpp"
#include "util/timer.hpp"

namespace gp {

MtBackend::MtBackend(const PartitionOptions& opts, const MtContext& ctx)
    : VcycleBackend({"mt/coarsen", "mt/initpart", "mt/uncoarsen",
                     /*refine_attempts=*/2,
                     /*coarsest_refine=*/Phase::kUncoarsen},
                    ctx.ledger),
      opts_(opts),
      ctx_(ctx) {}

MatchResult MtBackend::match(const CsrGraph& g, int level) {
  return mt_match(g, ctx_, level);
}

CsrGraph MtBackend::contract(const CsrGraph& fine, const MatchResult& m,
                             int level) {
  return mt_contract(fine, m, ctx_, level);
}

Partition MtBackend::initial_partition(const CsrGraph& g) {
  return mt_initial_partition(g, opts_.k, opts_.eps, ctx_, opts_.init_trials);
}

void MtBackend::build_cache(const CsrGraph& g,
                            const std::vector<part_t>& where,
                            GainCache& cache, RefineSite site) {
  cache.init(g, opts_.k);
  const auto nt = static_cast<std::size_t>(ctx_.threads());
  std::vector<std::uint64_t> work(nt, 0);
  std::vector<wgt_t> ed(nt, 0);
  ctx_.pool->parallel_for_blocked(
      g.num_vertices(), [&](int t, std::int64_t b, std::int64_t e) {
        work[static_cast<std::size_t>(t)] = cache.build_range(
            g, where, static_cast<vid_t>(b), static_cast<vid_t>(e),
            &ed[static_cast<std::size_t>(t)]);
      });
  wgt_t ed_sum = 0;
  for (const wgt_t x : ed) ed_sum += x;
  cache.finish_totals(ed_sum);
  ctx_.charge_pass("uncoarsen/gaincache-build/L" + std::to_string(site.level),
                   work);
}

void MtBackend::refine(const CsrGraph& g, Partition& p, GainCache& cache,
                       RefineSite site) {
  mt_refine(g, p, opts_.eps, opts_.refine_passes, ctx_, site.level,
            /*cut_stats=*/false, &cache);
}

std::string MtBackend::refine_name(RefineSite site) const {
  return "refine/L" + std::to_string(site.level);
}

std::vector<part_t> MtBackend::project(const CsrGraph& fine,
                                       const std::vector<vid_t>& cmap,
                                       const std::vector<part_t>& coarse_where,
                                       int level) {
  std::vector<part_t> where(static_cast<std::size_t>(fine.num_vertices()));
  ctx_.pool->parallel_for_blocked(
      fine.num_vertices(), [&](int, std::int64_t b, std::int64_t e) {
        for (std::int64_t v = b; v < e; ++v) {
          where[static_cast<std::size_t>(v)] = coarse_where[static_cast<
              std::size_t>(cmap[static_cast<std::size_t>(v)])];
        }
      });
  ctx_.charge_pass(
      "uncoarsen/project/L" + std::to_string(level),
      std::vector<std::uint64_t>(
          static_cast<std::size_t>(ctx_.threads()),
          static_cast<std::uint64_t>(fine.num_vertices()) /
              static_cast<std::uint64_t>(std::max(1, ctx_.threads()))));
  return where;
}

GainCache MtBackend::project_cache(const CsrGraph& fine,
                                   const std::vector<part_t>& fine_where,
                                   const std::vector<vid_t>& cmap,
                                   const GainCache& coarse, int level) {
  // The coarse cache is read-only here; the fine cache's vertex ranges
  // are disjoint per thread.
  GainCache cache;
  cache.init(fine, opts_.k);
  const auto nt = static_cast<std::size_t>(ctx_.threads());
  std::vector<std::uint64_t> work(nt, 0);
  std::vector<wgt_t> ed(nt, 0);
  ctx_.pool->parallel_for_blocked(
      fine.num_vertices(), [&](int t, std::int64_t b, std::int64_t e) {
        work[static_cast<std::size_t>(t)] = cache.project_range(
            coarse, fine, fine_where, cmap, static_cast<vid_t>(b),
            static_cast<vid_t>(e), &ed[static_cast<std::size_t>(t)]);
      });
  wgt_t ed_sum = 0;
  for (const wgt_t x : ed) ed_sum += x;
  cache.finish_totals(ed_sum);
  ctx_.charge_pass("uncoarsen/gaincache/L" + std::to_string(level), work);
  return cache;
}

PartitionResult MtMetisPartitioner::run(const CsrGraph& g,
                                        const PartitionOptions& opts) const {
  validate_options(g, opts);
  WallTimer wall;
  PartitionResult res;
  ThreadPool pool(opts.threads);
  pool.set_cancel_token(opts.cancel);
  auto injector = opts.make_fault_injector();
  pool.set_fault_injector(injector.get());
  MtBackend backend(opts, MtContext{&pool, &res.ledger, opts.seed});
  vcycle_run(g, opts, backend, injector.get(), res);
  finish_run(res, injector.get());
  res.wall_seconds = wall.seconds();
  return res;
}

std::unique_ptr<Partitioner> make_mt_partitioner() {
  return std::make_unique<MtMetisPartitioner>();
}

}  // namespace gp
