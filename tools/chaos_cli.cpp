// chaos — fault-space fuzzing CLI for the partitioner fleet
// (DESIGN.md §3.10).
//
// Modes:
//   (default)          seeded campaign: --specs randomized fault specs per
//                      system, every run checked against the chaos oracle;
//                      violations are shrunk to minimal reproducers.
//   --replay SPEC      run one spec against one --system and print the
//                      verdict, then the run's health events, one a line
//                      (paste a reproducer here).  --spec-index N replays
//                      it as campaign spec #N, with that spec's fault
//                      seed unless --fault-seed overrides it.
//   --plant SPEC       plant a spec into the campaign's spec stream as
//                      index 0 (oracle-violation drills).
//   --selftest-shrink  shrinker golden test on a synthetic oracle; no
//                      partitioner runs.
//   --soak N           push N requests with per-request randomized specs
//                      through the service engine and gate on zero hangs,
//                      zero invalid results, zero failures, zero leaks.
//
// Exit codes: 0 = clean, 1 = oracle violations / gate failure, 2 = usage
// (a numeric value that does not parse whole or does not fit included).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "cli_args.hpp"
#include "chaos/shrink.hpp"
#include "core/partition.hpp"
#include "gpu/device.hpp"
#include "service/engine.hpp"
#include "util/fault.hpp"

namespace {

using namespace gp;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  campaign:  --seed N --specs N --max-clauses N --systems a,b,..|all\n"
      "             --graph delaunay|grid|road|bubble --n N --k N\n"
      "             --audit off|phase|paranoid --threads N\n"
      "             --ledger PATH --verbose\n"
      "  replay:    --replay SPEC --system NAME [--spec-index N]\n"
      "             [--fault-seed N] (default: the campaign seed of spec N)\n"
      "  plant:     --plant SPEC (prepends SPEC to the campaign stream)\n"
      "  selftest:  --selftest-shrink\n"
      "  soak:      --soak N [--soak-workers N] [--soak-deadline SECONDS]\n",
      argv0);
  return 2;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t end = s.find(',', pos);
    if (end == std::string::npos) end = s.size();
    if (end > pos) out.push_back(s.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

void print_run(const ChaosRun& r) {
  std::printf("%s\n", r.ledger_line().c_str());
}

/// Shrinker self-test: a synthetic oracle ("fails iff the plan has an
/// alloc rule at occurrence >= 4 AND any task rule") planted inside a
/// 5-clause haystack must minimize to exactly "alloc@4;task@0".  Checks
/// the clause-drop fixpoint, the halve-then-step scalar shrink, and the
/// to_string round-trip in one deterministic probe-counted pass.
int selftest_shrink() {
  const std::string planted = "kernel@1;alloc@7;flip:p=0.5;task@9;"
                              "mem-cap=262144";
  const ChaosPredicate oracle = [](const FaultPlan& p) {
    bool alloc_ge4 = false;
    bool has_task = false;
    for (const auto& r : p.rules) {
      if (r.site == FaultSite::kAlloc && r.at >= 4) alloc_ge4 = true;
      if (r.site == FaultSite::kTask) has_task = true;
    }
    return alloc_ge4 && has_task;
  };
  const ShrinkResult s =
      shrink_fault_plan(FaultPlan::parse(planted), oracle);
  const std::string golden = "alloc@4;task@0";
  std::printf("selftest-shrink: planted \"%s\"\n", planted.c_str());
  std::printf("selftest-shrink: minimized to \"%s\" in %d probes\n",
              s.spec.c_str(), s.probes);
  if (!s.converged || s.spec != golden) {
    std::fprintf(stderr,
                 "selftest-shrink: FAILED (expected \"%s\", converged=%d)\n",
                 golden.c_str(), s.converged ? 1 : 0);
    return 1;
  }
  if (!oracle(FaultPlan::parse(s.spec))) {
    std::fprintf(stderr, "selftest-shrink: minimized spec does not replay\n");
    return 1;
  }
  std::printf("selftest-shrink: ok\n");
  return 0;
}

/// Service soak: randomized per-request fault specs through a threaded
/// engine.  Gates: every ticket reaches a terminal state (a hang would
/// stall wait() and the CI step timeout), every kDone result validates,
/// no request fails outright (the ladder bottoms out on a fault-free
/// serial run), and device-pool accounting returns to zero.
int run_soak(const ChaosConfig& cfg, int n_requests, int workers,
             double deadline_seconds) {
  ServiceConfig svc;
  svc.workers = std::max(1, workers);
  svc.queue_depth = static_cast<std::size_t>(n_requests) + 1;  // admit all
  svc.default_deadline_seconds = deadline_seconds;
  svc.seed = cfg.seed;

  const CsrGraph g = chaos_make_graph(cfg);
  const std::int64_t leaks_before = Device::process_leaked_blocks();

  std::printf("chaos soak: %d requests, %d workers, systems=%zu, n=%lld\n",
              n_requests, svc.workers, cfg.systems.size(),
              static_cast<long long>(g.num_vertices()));

  ServiceEngine engine(svc);
  std::vector<std::shared_ptr<RequestTicket>> tickets;
  tickets.reserve(static_cast<std::size_t>(n_requests));
  for (int i = 0; i < n_requests; ++i) {
    PartitionOptions opts;
    opts.k = cfg.k;
    opts.seed = cfg.partition_seed + static_cast<std::uint64_t>(i);
    opts.threads = 2;  // soak wants real contention, not determinism
    opts.ranks = cfg.ranks;
    opts.gpu_host_workers = 2;
    opts.audit_level = cfg.audit;
    opts.fault_spec = chaos_generate_spec(cfg.seed, i, cfg.max_clauses);
    opts.fault_seed = chaos_fault_seed(cfg.seed, i);
    const auto& system =
        cfg.systems[static_cast<std::size_t>(i) % cfg.systems.size()];
    tickets.push_back(engine.submit(g, opts, Priority::kNormal,
                                    /*deadline_seconds=*/-1.0, system));
  }

  std::uint64_t done = 0, degraded = 0, invalid = 0, failed = 0,
                shed = 0, cancelled = 0;
  for (auto& t : tickets) {
    const RequestOutcome out = t->wait();  // a hang stalls here -> CI timeout
    switch (out.state) {
      case RequestState::kDone: {
        ++done;
        if (out.result.health.degraded) ++degraded;
        const std::string err = validate_partition(
            g, out.result.partition, out.result.cut, out.result.balance);
        if (!err.empty()) {
          ++invalid;
          std::fprintf(stderr, "soak: request %llu invalid: %s\n",
                       static_cast<unsigned long long>(out.id), err.c_str());
        }
        break;
      }
      case RequestState::kFailed:
        ++failed;
        std::fprintf(stderr, "soak: request %llu failed: %s\n",
                     static_cast<unsigned long long>(out.id),
                     out.attempt_trail.empty()
                         ? "(no trail)"
                         : out.attempt_trail.back().c_str());
        break;
      case RequestState::kShed: ++shed; break;
      case RequestState::kCancelled: ++cancelled; break;
      default: break;
    }
  }
  engine.shutdown(/*drain=*/true);
  const ServiceStats stats = engine.stats();
  const std::int64_t leaked = Device::process_leaked_blocks() - leaks_before;

  std::printf("soak: done=%llu (degraded %llu) shed=%llu cancelled=%llu "
              "failed=%llu invalid=%llu retries=%llu leaked=%lld\n",
              static_cast<unsigned long long>(done),
              static_cast<unsigned long long>(degraded),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(cancelled),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(invalid),
              static_cast<unsigned long long>(stats.retries),
              static_cast<long long>(leaked));

  bool ok = true;
  if (invalid != 0) {
    std::fprintf(stderr, "soak gate: %llu invalid partition(s)\n",
                 static_cast<unsigned long long>(invalid));
    ok = false;
  }
  if (failed != 0) {
    std::fprintf(stderr, "soak gate: %llu failed request(s) — the ladder "
                 "must bottom out on a fault-free serial run\n",
                 static_cast<unsigned long long>(failed));
    ok = false;
  }
  if (leaked != 0 || stats.leaked_blocks != 0) {
    std::fprintf(stderr, "soak gate: pool accounting did not return to "
                 "zero (delta %lld, stats %llu)\n",
                 static_cast<long long>(leaked),
                 static_cast<unsigned long long>(stats.leaked_blocks));
    ok = false;
  }
  if (done + shed + cancelled + failed !=
      static_cast<std::uint64_t>(n_requests)) {
    std::fprintf(stderr, "soak gate: ticket accounting mismatch\n");
    ok = false;
  }
  std::printf("soak: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ChaosConfig cfg;
  cfg.specs = 100;
  std::string replay_spec, plant_spec, replay_system, ledger_path;
  std::uint64_t replay_fault_seed = 0;
  int replay_index = 0;
  bool verbose = false, selftest = false;
  int soak_n = 0, soak_workers = 4;
  double soak_deadline = 0.0;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0],
                     a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // The next value, parsed strictly into a numeric option's `field`.
    const auto number = [&](auto& field) {
      field = parse_number<std::remove_reference_t<decltype(field)>>(
          a.c_str(), next());
    };
    if (a == "--seed") number(cfg.seed);
    else if (a == "--specs") number(cfg.specs);
    else if (a == "--max-clauses") number(cfg.max_clauses);
    else if (a == "--systems") {
      const std::string v = next();
      if (v != "all") cfg.systems = split_csv(v);
    } else if (a == "--graph") cfg.graph = next();
    else if (a == "--n") number(cfg.graph_n);
    else if (a == "--k") number(cfg.k);
    else if (a == "--threads") number(cfg.threads);
    else if (a == "--audit") {
      const std::string v = next();
      if (v == "off") cfg.audit = AuditLevel::kOff;
      else if (v == "phase") cfg.audit = AuditLevel::kPhase;
      else if (v == "paranoid") cfg.audit = AuditLevel::kParanoid;
      else return usage(argv[0]);
    } else if (a == "--ledger") ledger_path = next();
    else if (a == "--verbose") verbose = true;
    else if (a == "--replay") replay_spec = next();
    else if (a == "--plant") plant_spec = next();
    else if (a == "--system") replay_system = next();
    else if (a == "--spec-index") {
      number(replay_index);
      if (replay_index < 0) {
        std::fprintf(stderr, "%s: --spec-index needs an index >= 0\n",
                     argv[0]);
        return 2;
      }
    }
    else if (a == "--fault-seed") number(replay_fault_seed);
    else if (a == "--selftest-shrink") selftest = true;
    else if (a == "--soak") number(soak_n);
    else if (a == "--soak-workers") number(soak_workers);
    else if (a == "--soak-deadline") number(soak_deadline);
    else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], a.c_str());
      return usage(argv[0]);
    }
  }

  try {
    if (selftest) return selftest_shrink();
    if (soak_n > 0) return run_soak(cfg, soak_n, soak_workers, soak_deadline);

    if (!replay_spec.empty()) {
      if (replay_system.empty()) {
        std::fprintf(stderr, "--replay needs --system\n");
        return 2;
      }
      FaultPlan::parse(replay_spec);  // surface syntax errors as exit 2
      const CsrGraph g = chaos_make_graph(cfg);
      const std::uint64_t fseed =
          replay_fault_seed != 0 ? replay_fault_seed
                                 : chaos_fault_seed(cfg.seed, replay_index);
      const ChaosRun run = chaos_run_spec(g, cfg, replay_system, replay_spec,
                                          fseed, replay_index);
      print_run(run);
      for (const auto& e : run.events) std::printf("  %s\n", e.c_str());
      return run.verdict == ChaosVerdict::kViolation ? 1 : 0;
    }

    // --- campaign ---------------------------------------------------------
    std::printf("chaos campaign: seed=%llu specs=%d systems=%zu "
                "graph=%s n=%lld k=%d audit=%d%s\n",
                static_cast<unsigned long long>(cfg.seed), cfg.specs,
                cfg.systems.size(), cfg.graph.c_str(),
                static_cast<long long>(cfg.graph_n),
                static_cast<int>(cfg.k), static_cast<int>(cfg.audit),
                plant_spec.empty() ? "" : " (planted spec at #0)");

    ChaosReport report;
    if (plant_spec.empty()) {
      report = chaos_campaign(cfg);
    } else {
      // Planted mode: run the planted spec as index 0 against every
      // system (with shrinking on violation), then the seeded stream.
      FaultPlan::parse(plant_spec);
      const CsrGraph g = chaos_make_graph(cfg);
      for (const auto& system : cfg.systems) {
        ChaosRun run = chaos_run_spec(g, cfg, system, plant_spec,
                                      chaos_fault_seed(cfg.seed, 0), 0);
        if (run.verdict == ChaosVerdict::kViolation) {
          const std::string sys = system;
          const ChaosPredicate still_fails = [&](const FaultPlan& cand) {
            return chaos_run_spec(g, cfg, sys, cand.to_string(),
                                  chaos_fault_seed(cfg.seed, 0), 0)
                       .verdict == ChaosVerdict::kViolation;
          };
          run.reproducer =
              shrink_fault_plan(FaultPlan::parse(plant_spec), still_fails,
                                cfg.shrink_probes)
                  .spec;
          ++report.violations;
        } else if (run.verdict == ChaosVerdict::kValid) ++report.valid;
        else if (run.verdict == ChaosVerdict::kDegraded) ++report.degraded;
        else ++report.typed_errors;
        report.runs.push_back(std::move(run));
      }
      ChaosReport seeded = chaos_campaign(cfg);
      report.valid += seeded.valid;
      report.degraded += seeded.degraded;
      report.typed_errors += seeded.typed_errors;
      report.violations += seeded.violations;
      for (auto& r : seeded.runs) report.runs.push_back(std::move(r));
    }

    if (verbose) std::printf("%s", report.ledger().c_str());
    if (!ledger_path.empty()) {
      std::ofstream out(ledger_path);
      out << report.ledger();
    }
    for (const ChaosRun* v : report.violating()) {
      std::printf("VIOLATION %s\n", v->ledger_line().c_str());
      std::printf("  minimal reproducer: --fault-spec \"%s\" "
                  "--fault-seed %llu --system %s\n",
                  v->reproducer.c_str(),
                  static_cast<unsigned long long>(v->fault_seed),
                  v->system.c_str());
    }
    std::printf("summary: runs=%zu valid=%llu degraded=%llu "
                "typed-errors=%llu violations=%llu\n",
                report.runs.size(),
                static_cast<unsigned long long>(report.valid),
                static_cast<unsigned long long>(report.degraded),
                static_cast<unsigned long long>(report.typed_errors),
                static_cast<unsigned long long>(report.violations));
    return report.violations == 0 ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: fatal: %s\n", argv[0], e.what());
    return 1;
  }
}
