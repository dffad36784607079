// Shared-memory multilevel k-way partitioner (the paper's mt-metis
// competitor, and the engine GP-metis borrows for its CPU phases), as a
// backend of the shared CPU V-cycle (core/vcycle.hpp).
#pragma once

#include "core/partitioner.hpp"
#include "core/vcycle.hpp"
#include "mt/mt_context.hpp"

namespace gp {

class MtMetisPartitioner final : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "mt-metis"; }
  [[nodiscard]] PartitionResult run(const CsrGraph& g,
                                    const PartitionOptions& opts) const override;
};

/// The mt-metis kernels on the context's pool: lock-free two-round
/// matching, parallel contraction and initial partitioning, buffered
/// refinement (racy, so a failed audit earns one retry: 2 attempts).
/// GP-metis runs vcycle_pipeline with it as its initial partition, between
/// GPU coarsening and uncoarsening (paper: "the remaining coarsening steps
/// are completed on the CPU using mt-metis"), the multi-GPU backend for
/// its host levels, and the GPU attempt ladder for its pure-CPU rung.
class MtBackend final : public VcycleBackend {
 public:
  MtBackend(const PartitionOptions& opts, const MtContext& ctx);

  MatchResult match(const CsrGraph& g, int level) override;
  CsrGraph contract(const CsrGraph& fine, const MatchResult& m,
                    int level) override;
  Partition initial_partition(const CsrGraph& g, VcycleLevels&) override;
  void build_cache(const CsrGraph& g, const std::vector<part_t>& where,
                   GainCache& cache, RefineSite site) override;
  void refine(const CsrGraph& g, Partition& p, GainCache& cache,
              RefineSite site) override;
  std::string refine_name(RefineSite site) const override;
  std::vector<part_t> project(const CsrGraph& fine,
                              const std::vector<vid_t>& cmap,
                              const std::vector<part_t>& coarse_where,
                              int level) override;
  GainCache project_cache(const CsrGraph& fine,
                          const std::vector<part_t>& fine_where,
                          const std::vector<vid_t>& cmap,
                          const GainCache& coarse, int level) override;

 private:
  const PartitionOptions& opts_;
  MtContext ctx_;
};

}  // namespace gp
