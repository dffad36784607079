// Shared context for the mt-metis-style shared-memory algorithms: the
// worker pool (T logical threads with static vertex ownership), the cost
// ledger they charge, and the seed stream.
#pragma once

#include <cstdint>

#include "core/host_steps.hpp"
#include "model/machine_model.hpp"
#include "util/thread_pool.hpp"

namespace gp {

struct MtContext {
  ThreadPool* pool;        ///< T persistent workers (T = options.threads)
  CostLedger* ledger;      ///< phase costs are charged here (nullable)
  std::uint64_t seed = 1;

  [[nodiscard]] int threads() const { return pool->size(); }

  void charge_pass(const std::string& label,
                   const std::vector<std::uint64_t>& per_thread_work) const {
    if (ledger) ledger->charge_mt_pass(label, per_thread_work);
  }
  void charge_serial(const std::string& label, std::uint64_t work) const {
    if (ledger) ledger->charge_serial(label, work);
  }
  /// For dynamically scheduled passes: per-slot splits reflect host
  /// scheduling, not the algorithm, so charge total + heaviest chunk.
  void charge_dynamic_pass(const std::string& label, std::uint64_t total_work,
                           std::uint64_t max_chunk_work) const {
    if (ledger) {
      ledger->charge_mt_dynamic_pass(label, total_work, max_chunk_work,
                                     threads());
    }
  }
};

/// mt-metis's block runner: the pool's static ownership blocks
/// (ThreadPool::parallel_for_blocked), charged as one pass.
class PoolRunner final : public BlockRunner {
 public:
  explicit PoolRunner(const MtContext& ctx) : ctx_(ctx) {}
  [[nodiscard]] int blocks() const override { return ctx_.threads(); }
  void run(const std::string& label, vid_t n,
           const BlockBody& body) const override {
    std::vector<std::uint64_t> work(static_cast<std::size_t>(blocks()), 0);
    ctx_.pool->parallel_for_blocked(
        n, [&](int t, std::int64_t b, std::int64_t e) {
          work[static_cast<std::size_t>(t)] =
              body(t, static_cast<vid_t>(b), static_cast<vid_t>(e));
        });
    ctx_.charge_pass(label, work);
  }

 private:
  MtContext ctx_;
};

}  // namespace gp
