#include "chaos/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

#include "chaos/shrink.hpp"
#include "core/partition.hpp"
#include "core/partitioner.hpp"
#include "gen/generators.hpp"
#include "gpu/device.hpp"
#include "par/comm.hpp"
#include "service/engine.hpp"
#include "util/cancel.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gp {

const char* chaos_verdict_name(ChaosVerdict v) {
  switch (v) {
    case ChaosVerdict::kValid:      return "valid";
    case ChaosVerdict::kDegraded:   return "degraded";
    case ChaosVerdict::kTypedError: return "typed-error";
    case ChaosVerdict::kViolation:  return "VIOLATION";
  }
  return "?";
}

CsrGraph chaos_make_graph(const ChaosConfig& cfg) {
  const vid_t n = std::max<vid_t>(cfg.graph_n, 16);
  if (cfg.graph == "delaunay") return delaunay_graph(n, cfg.graph_seed);
  if (cfg.graph == "road") return road_network_graph(n, cfg.graph_seed);
  if (cfg.graph == "bubble") return bubble_mesh_graph(n, 2, cfg.graph_seed);
  if (cfg.graph == "grid") {
    vid_t side = 4;
    while (side * side < n) ++side;
    return grid2d_graph(side, side);
  }
  throw std::invalid_argument("chaos: unknown graph family '" + cfg.graph +
                              "' (expected delaunay|grid|road|bubble)");
}

namespace {

/// Draws a value in [0, n) from the stream.
std::uint64_t draw(SplitMix64& rng, std::uint64_t n) {
  return rng.next() % n;
}

/// Skewed occurrence index: small indices fire during the hot early
/// V-cycle levels where most device traffic happens; a long tail still
/// probes late occurrences.
std::int64_t draw_occurrence(SplitMix64& rng, std::uint64_t span) {
  const std::uint64_t r = draw(rng, 4);
  if (r < 2) return static_cast<std::int64_t>(draw(rng, 4));
  if (r < 3) return static_cast<std::int64_t>(draw(rng, 16));
  return static_cast<std::int64_t>(draw(rng, span));
}

/// Log-uniform probability in roughly [0.002, 0.5].
double draw_probability(SplitMix64& rng) {
  static constexpr double kTable[] = {0.002, 0.005, 0.01, 0.02,
                                      0.05,  0.1,   0.25, 0.5};
  return kTable[draw(rng, 8)];
}

}  // namespace

std::uint64_t chaos_fault_seed(std::uint64_t seed, int index) {
  SplitMix64 h(seed ^ (static_cast<std::uint64_t>(index) *
                       0xd1b54a32d192ed03ULL));
  return h.next() | 1u;  // never 0: 0 would mean "default seed" in tooling
}

std::string chaos_generate_spec(std::uint64_t seed, int index,
                                int max_clauses) {
  SplitMix64 rng(seed ^ 0x43757262696cULL ^
                 (static_cast<std::uint64_t>(index) * 0x9e3779b97f4a7c15ULL));
  const int want = 1 + static_cast<int>(draw(rng, static_cast<std::uint64_t>(
                                                 std::max(1, max_clauses))));
  FaultPlan plan;
  // Conflict bookkeeping mirrors the parser's hardening rules: the
  // generator must only emit specs that parse.
  bool p_used[static_cast<int>(FaultSite::kNumSites)] = {};
  std::vector<std::pair<FaultSite, std::int64_t>> at_used;
  bool dev_used[2] = {};
  bool rank_used[8] = {};

  static constexpr FaultSite kHardSites[] = {FaultSite::kAlloc,
                                             FaultSite::kKernel,
                                             FaultSite::kH2D,
                                             FaultSite::kD2H,
                                             FaultSite::kMsg,
                                             FaultSite::kTask};
  static constexpr FaultSite kCorruptSites[] = {FaultSite::kFlip,
                                                FaultSite::kPayload,
                                                FaultSite::kCmap};

  for (int c = 0; c < want; ++c) {
    switch (draw(rng, 10)) {
      case 0:
      case 1:
      case 2: {  // one-shot hard fault
        const FaultSite site = kHardSites[draw(rng, 6)];
        const std::int64_t at = draw_occurrence(rng, 64);
        if (std::find(at_used.begin(), at_used.end(),
                      std::make_pair(site, at)) != at_used.end()) {
          break;
        }
        at_used.emplace_back(site, at);
        plan.rules.push_back({site, at, 0.0});
        break;
      }
      case 3:
      case 4: {  // probabilistic hard fault
        const FaultSite site = kHardSites[draw(rng, 6)];
        const double p = draw_probability(rng);
        if (p_used[static_cast<int>(site)]) break;
        p_used[static_cast<int>(site)] = true;
        plan.rules.push_back({site, -1, p});
        break;
      }
      case 5: {  // one-shot silent corruption
        const FaultSite site = kCorruptSites[draw(rng, 3)];
        const std::int64_t at = draw_occurrence(rng, 16);
        if (std::find(at_used.begin(), at_used.end(),
                      std::make_pair(site, at)) != at_used.end()) {
          break;
        }
        at_used.emplace_back(site, at);
        plan.rules.push_back({site, at, 0.0});
        break;
      }
      case 6: {  // probabilistic silent corruption
        const FaultSite site = kCorruptSites[draw(rng, 3)];
        const double p = draw_probability(rng);
        if (p_used[static_cast<int>(site)]) break;
        p_used[static_cast<int>(site)] = true;
        plan.rules.push_back({site, -1, p});
        break;
      }
      case 7: {  // device loss
        const int dev = static_cast<int>(draw(rng, 2));
        if (dev_used[dev]) break;
        dev_used[dev] = true;
        const std::uint64_t after =
            draw(rng, 2) ? static_cast<std::uint64_t>(draw_occurrence(rng, 64))
                         : 0;
        plan.device_losses.push_back({dev, after});
        break;
      }
      case 8: {  // rank fail-stop
        const int rank = static_cast<int>(draw(rng, 4));
        if (rank_used[rank]) break;
        rank_used[rank] = true;
        const std::uint64_t from =
            draw(rng, 2) ? draw(rng, 8) : 0;
        plan.rank_failures.push_back({rank, from});
        break;
      }
      case 9: {  // device-capacity squeeze
        if (plan.mem_cap_bytes != 0) break;
        // Log-uniform in [64 KiB, 4 MiB]: small enough to bite on the
        // campaign graphs, large enough that level 0 sometimes fits and
        // the OOM lands mid-V-cycle.
        plan.mem_cap_bytes = std::size_t{1} << (16 + draw(rng, 7));
        break;
      }
    }
  }
  if (plan.empty()) {
    // Degenerate draw (every clause collided): fall back to a one-shot
    // allocation fault so every index exercises *something*.
    plan.rules.push_back({FaultSite::kAlloc, 0, 0.0});
  }
  return plan.to_string();
}

namespace {

PartitionOptions chaos_options(const ChaosConfig& cfg,
                               const std::string& spec,
                               std::uint64_t fault_seed) {
  PartitionOptions opts;
  opts.k = cfg.k;
  opts.seed = cfg.partition_seed;
  opts.threads = cfg.threads;
  opts.ranks = cfg.ranks;
  opts.gpu_host_workers = cfg.gpu_host_workers;
  // Small campaign graphs must still run real GPU levels: hand off to the
  // CPU only below 1/4 of the graph instead of the production 16k.
  opts.gpu_cpu_threshold = std::max<vid_t>(64, cfg.graph_n / 4);
  opts.audit_level = cfg.audit;
  opts.time_budget_seconds = cfg.time_budget_seconds;
  opts.fault_spec = spec;
  opts.fault_seed = fault_seed;
  return opts;
}

/// The name a ledger line gives an exception that escaped a driver.
const char* typed_error_name(const std::exception& e) {
  if (dynamic_cast<const DeviceOutOfMemory*>(&e)) return "DeviceOutOfMemory";
  if (dynamic_cast<const DeviceFailure*>(&e)) return "DeviceFailure";
  if (dynamic_cast<const AuditError*>(&e)) return "AuditError";
  if (dynamic_cast<const ThreadPoolTaskError*>(&e)) {
    return "ThreadPoolTaskError";
  }
  if (dynamic_cast<const CommFailure*>(&e)) return "CommFailure";
  if (dynamic_cast<const CancelledError*>(&e)) return "CancelledError";
  if (dynamic_cast<const std::invalid_argument*>(&e)) {
    return "invalid_argument";
  }
  return "std::exception";
}

}  // namespace

ChaosRun chaos_run_spec(const CsrGraph& g, const ChaosConfig& cfg,
                        const std::string& system, const std::string& spec,
                        std::uint64_t fault_seed, int spec_index) {
  ChaosRun run;
  run.spec_index = spec_index;
  run.system = system;
  run.spec = spec;
  run.fault_seed = fault_seed;

  const std::int64_t leaks_before = Device::process_leaked_blocks();
  const PartitionOptions opts = chaos_options(cfg, spec, fault_seed);

  try {
    const std::unique_ptr<Partitioner> p = make_partitioner_by_name(system);
    const PartitionResult r = p->run(g, opts);
    run.cut = r.cut;
    run.faults = r.health.faults_injected;
    run.audits_failed = r.health.audits_failed;
    run.rollbacks = r.health.rollbacks;
    run.events = r.health.events;
    const std::string invalid =
        validate_partition(g, r.partition, r.cut, r.balance);
    if (!invalid.empty()) {
      run.verdict = ChaosVerdict::kViolation;
      run.detail = "invalid result: " + invalid;
    } else if (r.health.degraded && r.health.events.empty()) {
      // A degraded run with no trail is a silent degradation — the typed
      // trail is half of what the oracle accepts.
      run.verdict = ChaosVerdict::kViolation;
      run.detail = "degraded without an event trail";
    } else if (r.health.degraded) {
      run.verdict = ChaosVerdict::kDegraded;
    } else {
      run.verdict = ChaosVerdict::kValid;
    }
  } catch (const std::exception& e) {
    run.verdict = ChaosVerdict::kTypedError;
    run.detail = std::string(typed_error_name(e)) + ": " + e.what();
  } catch (...) {
    run.verdict = ChaosVerdict::kViolation;
    run.detail = "non-std exception escaped the driver";
  }

  run.leaked_blocks = Device::process_leaked_blocks() - leaks_before;
  if (run.leaked_blocks != 0 && run.verdict != ChaosVerdict::kViolation) {
    run.verdict = ChaosVerdict::kViolation;
    run.detail = "leaked " + std::to_string(run.leaked_blocks) +
                 " pool block(s)" +
                 (run.detail.empty() ? "" : " after: " + run.detail);
  }
  return run;
}

std::string ChaosRun::ledger_line() const {
  char head[160];
  std::snprintf(head, sizeof(head),
                "#%04d %-14s %-11s faults=%llu audits_failed=%llu "
                "rollbacks=%llu leaked=%lld cut=%lld",
                spec_index, system.c_str(), chaos_verdict_name(verdict),
                static_cast<unsigned long long>(faults),
                static_cast<unsigned long long>(audits_failed),
                static_cast<unsigned long long>(rollbacks),
                static_cast<long long>(leaked_blocks),
                static_cast<long long>(cut));
  std::string line = head;
  line += " spec=\"" + spec + "\"";
  if (!detail.empty()) line += " detail=\"" + detail + "\"";
  return line;
}

std::string ChaosReport::ledger() const {
  std::string out;
  for (const auto& r : runs) {
    out += r.ledger_line();
    out += '\n';
  }
  return out;
}

std::vector<const ChaosRun*> ChaosReport::violating() const {
  std::vector<const ChaosRun*> v;
  for (const auto& r : runs) {
    if (r.verdict == ChaosVerdict::kViolation) v.push_back(&r);
  }
  return v;
}

ChaosReport chaos_campaign(const ChaosConfig& cfg) {
  ChaosReport report;
  const CsrGraph g = chaos_make_graph(cfg);
  for (int i = 0; i < cfg.specs; ++i) {
    const std::string spec =
        chaos_generate_spec(cfg.seed, i, cfg.max_clauses);
    const std::uint64_t fseed = chaos_fault_seed(cfg.seed, i);
    for (const auto& system : cfg.systems) {
      ChaosRun run = chaos_run_spec(g, cfg, system, spec, fseed, i);
      switch (run.verdict) {
        case ChaosVerdict::kValid:      ++report.valid; break;
        case ChaosVerdict::kDegraded:   ++report.degraded; break;
        case ChaosVerdict::kTypedError: ++report.typed_errors; break;
        case ChaosVerdict::kViolation:  ++report.violations; break;
      }
      if (run.verdict == ChaosVerdict::kViolation) {
        // Minimize against "re-running this (system, seed) still
        // violates": the reproducer replays deterministically because
        // everything the run consumes is derived from (spec, fseed).
        const ChaosPredicate still_fails = [&](const FaultPlan& cand) {
          const ChaosRun probe = chaos_run_spec(
              g, cfg, system, cand.to_string(), fseed, i);
          return probe.verdict == ChaosVerdict::kViolation;
        };
        const ShrinkResult shrunk = shrink_fault_plan(
            FaultPlan::parse(run.spec), still_fails, cfg.shrink_probes);
        run.reproducer = shrunk.spec;
      }
      report.runs.push_back(std::move(run));
    }
  }
  return report;
}

}  // namespace gp
