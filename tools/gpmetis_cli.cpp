// gpmetis — command-line partitioner, mirroring the real Metis tool's
// interface: reads a METIS .graph (or DIMACS-9 .gr) file, partitions it,
// writes <input>.part.<k>, and prints the quality/timing summary.
//
// Usage:
//   gpmetis <graph-file> <k> [options]
// Options:
//   --system metis|parmetis|mt-metis|gp-metis|gp-metis-multi  (default gp-metis)
//   --eps <f>        imbalance tolerance (default 0.03)
//   --seed <n>       RNG seed (default 1)
//   --threads <n>    CPU threads for mt phases (default 8)
//   --init-trials <n>  GGGP+FM trials per bisection (mt-metis, gp-metis;
//                    default 1)
//   --ranks <n>      simulated MPI ranks (parmetis; default 8)
//   --devices <n>    simulated GPUs (gp-metis-multi; default 2)
//   --gpu-scan <m>   device scan/dispatch strategy: blocked|lookback
//                    (default lookback; DESIGN.md §3.9)
//   --dimacs         input is DIMACS-9 .gr instead of METIS .graph
//   --binary         input is the library's binary CSR snapshot
//   --report         print the per-part quality table
//   --ledger-json <path>  dump the cost-model ledger as JSON
//   --out <path>     partition file path (default <input>.part.<k>)
//   --fault-spec <s> fault-injection schedule, e.g. "alloc@3;kernel:p=0.01"
//                    (see src/util/fault.hpp for the full grammar)
//   --fault-seed <n> seed for probabilistic fault rules (default 0)
//   --audit <level>  invariant audits: off|phase|paranoid (default off)
//   --time-budget <s>  wall-clock budget in seconds; refinement is shed
//                    once it expires (default: unlimited)
//   --serve <n>      service mode: submit the request n times through the
//                    batched service engine (admission control, deadlines,
//                    retries) and print the engine's stats
//   --serve-workers <n>     service executor threads (default 2)
//   --serve-queue-depth <n> admission queue bound (default 64)
//   --serve-cost-budget <s> admission backlog budget, modeled seconds
//   --serve-deadline <s>    per-request deadline in seconds (0 = none)
//   --serve-retries <n>     max attempts per request (default 3)
//   --verbose        always print the run-health trail
//
// An option that takes a value but is given last, without one, is a
// usage error, and so is a numeric value that does not parse whole or
// does not fit (tools/cli_args.hpp).
//
// Exit codes: 0 success, 1 I/O or runtime error, 2 usage error,
// 3 success on a degraded path (faults/audits forced a fallback — the
// partition is valid but came off the nominal configuration).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "core/partitioner.hpp"
#include "core/report.hpp"
#include "hybrid/multi_gpu_partitioner.hpp"
#include "service/engine.hpp"
#include "io/binary_io.hpp"
#include "io/dimacs_io.hpp"
#include "io/metis_io.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: gpmetis <graph-file> <k> [--system NAME] [--eps F] "
               "[--seed N] [--threads N] [--init-trials N] [--ranks N] "
               "[--devices N] [--gpu-scan blocked|lookback] "
               "[--dimacs] [--binary] [--report] [--ledger-json PATH] "
               "[--out PATH] [--fault-spec S] [--fault-seed N] "
               "[--audit off|phase|paranoid] [--time-budget SECONDS] "
               "[--serve N] [--serve-workers N] [--serve-queue-depth N] "
               "[--serve-cost-budget S] [--serve-deadline S] "
               "[--serve-retries N] [--verbose]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gp;
  if (argc < 3) {
    usage();
    return 2;
  }
  const std::string path = argv[1];
  PartitionOptions opts;
  opts.k = parse_number<part_t>("k", argv[2]);
  std::string system = "gp-metis";
  std::string out_path;
  bool dimacs = false;
  bool binary = false;
  bool report = false;
  bool verbose = false;
  std::string ledger_path;
  int serve_requests = 0;  // 0 = one-shot mode (no service engine)
  ServiceConfig serve_cfg;
  serve_cfg.sleep_on_backoff = true;  // live service: really back off
  double serve_deadline = 0.0;
  for (int i = 3; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 < argc) return argv[++i];
      std::fprintf(stderr, "%s requires a value\n", argv[i]);
      usage();
      std::exit(2);
    };
    // The next value, parsed strictly into a numeric option's `field`.
    auto number = [&](auto& field) {
      const char* opt = argv[i];
      field = parse_number<std::remove_reference_t<decltype(field)>>(opt,
                                                                     next());
    };
    if (!std::strcmp(argv[i], "--system")) system = next();
    else if (!std::strcmp(argv[i], "--eps")) number(opts.eps);
    else if (!std::strcmp(argv[i], "--seed")) number(opts.seed);
    else if (!std::strcmp(argv[i], "--threads")) number(opts.threads);
    else if (!std::strcmp(argv[i], "--init-trials")) number(opts.init_trials);
    else if (!std::strcmp(argv[i], "--ranks")) number(opts.ranks);
    else if (!std::strcmp(argv[i], "--devices")) number(opts.gpu_devices);
    else if (!std::strcmp(argv[i], "--gpu-scan")) {
      const std::string m = next();
      if (m == "blocked") opts.gpu_scan = GpuScanMode::kBlocked;
      else if (m == "lookback") opts.gpu_scan = GpuScanMode::kLookback;
      else {
        std::fprintf(stderr, "--gpu-scan: expected blocked|lookback, got \"%s\"\n",
                     m.c_str());
        return 2;
      }
    }
    else if (!std::strcmp(argv[i], "--dimacs")) dimacs = true;
    else if (!std::strcmp(argv[i], "--binary")) binary = true;
    else if (!std::strcmp(argv[i], "--report")) report = true;
    else if (!std::strcmp(argv[i], "--ledger-json")) ledger_path = next();
    else if (!std::strcmp(argv[i], "--out")) out_path = next();
    else if (!std::strcmp(argv[i], "--fault-spec")) opts.fault_spec = next();
    else if (!std::strcmp(argv[i], "--fault-seed")) number(opts.fault_seed);
    else if (!std::strcmp(argv[i], "--audit")) {
      try {
        opts.audit_level = parse_audit_level(next());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    }
    else if (!std::strcmp(argv[i], "--time-budget")) number(opts.time_budget_seconds);
    else if (!std::strcmp(argv[i], "--serve")) number(serve_requests);
    else if (!std::strcmp(argv[i], "--serve-workers")) number(serve_cfg.workers);
    else if (!std::strcmp(argv[i], "--serve-queue-depth")) number(serve_cfg.queue_depth);
    else if (!std::strcmp(argv[i], "--serve-cost-budget")) number(serve_cfg.cost_budget_seconds);
    else if (!std::strcmp(argv[i], "--serve-deadline")) number(serve_deadline);
    else if (!std::strcmp(argv[i], "--serve-retries")) number(serve_cfg.retry.max_attempts);
    else if (!std::strcmp(argv[i], "--verbose")) verbose = true;
    else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      usage();
      return 2;
    }
  }

  try {
    const CsrGraph g = binary   ? read_binary_graph_file(path)
                       : dimacs ? read_dimacs_gr_file(path)
                                : read_metis_graph_file(path);
    std::printf("%s: %d vertices, %lld edges\n", path.c_str(),
                g.num_vertices(), static_cast<long long>(g.num_edges()));

    if (serve_requests != 0) {
      // ---- service mode: the same request, n times, through the
      // batched engine (admission control / deadlines / retries) ----
      if (serve_requests < 0) {
        std::fprintf(stderr, "--serve requires a positive request count\n");
        return 2;
      }
      serve_cfg.default_deadline_seconds = serve_deadline;
      serve_cfg.seed = opts.seed;
      try {
        validate_service_config(serve_cfg);
        (void)make_partitioner_by_name(system);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "service config error: %s\n", e.what());
        return 2;
      }

      ServiceEngine engine(serve_cfg);
      std::vector<std::shared_ptr<RequestTicket>> tickets;
      tickets.reserve(static_cast<std::size_t>(serve_requests));
      for (int r = 0; r < serve_requests; ++r) {
        tickets.push_back(engine.submit(g, opts, Priority::kNormal,
                                        /*deadline=*/-1.0, system));
      }
      if (serve_cfg.workers == 0) {
        while (engine.run_one()) {
        }
      }
      bool any_failed = false;
      bool any_off_nominal = false;
      const RequestOutcome* best = nullptr;
      std::vector<RequestOutcome> outcomes;
      outcomes.reserve(tickets.size());
      for (auto& t : tickets) outcomes.push_back(t->wait());
      engine.shutdown(/*drain=*/true);
      for (const auto& o : outcomes) {
        if (o.state == RequestState::kFailed) any_failed = true;
        if (o.state != RequestState::kDone || o.result.health.degraded ||
            o.deadline_missed) {
          any_off_nominal = true;
        }
        if (o.state == RequestState::kDone &&
            (!best || o.result.cut < best->result.cut)) {
          best = &o;
        }
        if (verbose && o.state == RequestState::kShed) {
          std::printf("request %llu shed: %s\n",
                      static_cast<unsigned long long>(o.id),
                      o.shed_reason.c_str());
        }
      }
      std::printf("%s", format_service_stats(engine.stats()).c_str());
      if (best) {
        std::printf("best cut: %lld (request %llu, %d attempt%s)\n",
                    static_cast<long long>(best->result.cut),
                    static_cast<unsigned long long>(best->id),
                    best->attempts, best->attempts == 1 ? "" : "s");
        if (out_path.empty()) {
          out_path = path + ".part." + std::to_string(opts.k);
        }
        write_partition_file(out_path, best->result.partition.where);
        std::printf("partition written to %s\n", out_path.c_str());
      }
      if (any_failed || !best) return 1;
      return any_off_nominal ? 3 : 0;
    }

    std::unique_ptr<Partitioner> p;
    if (system == "metis") p = make_serial_partitioner();
    else if (system == "parmetis") p = make_par_partitioner();
    else if (system == "mt-metis") p = make_mt_partitioner();
    else if (system == "gp-metis") p = make_hybrid_partitioner();
    else if (system == "gp-metis-multi") p = make_multi_gpu_partitioner();
    else {
      std::fprintf(stderr, "unknown system: %s\n", system.c_str());
      return 2;
    }

    const auto r = p->run(g, opts);
    std::printf("system:   %s\n", p->name().c_str());
    std::printf("k:        %d   (eps %.3f)\n", opts.k, opts.eps);
    std::printf("edge cut: %lld\n", static_cast<long long>(r.cut));
    std::printf("balance:  %.4f\n", r.balance);
    std::printf("levels:   %d (coarsest %d vertices)\n", r.coarsen_levels,
                r.coarsest_vertices);
    std::printf("modeled:  %.4f s  (coarsen %.4f, initpart %.4f, "
                "uncoarsen %.4f, transfer %.4f)\n",
                r.modeled_seconds, r.phases.coarsen, r.phases.initpart,
                r.phases.uncoarsen, r.phases.transfer);
    std::printf("wall:     %.4f s (this machine)\n", r.wall_seconds);
    if (verbose || !opts.fault_spec.empty() || r.health.degraded) {
      std::printf("%s", format_health(r.health).c_str());
    }

    if (report) {
      std::printf("\n%s",
                  format_report(analyze_partition(g, r.partition)).c_str());
    }
    if (!ledger_path.empty()) {
      std::ofstream lj(ledger_path);
      if (!lj) throw std::runtime_error("cannot open " + ledger_path);
      lj << r.ledger.to_json();
      std::printf("cost ledger written to %s\n", ledger_path.c_str());
    }

    if (out_path.empty()) out_path = path + ".part." + std::to_string(opts.k);
    write_partition_file(out_path, r.partition.where);
    std::printf("partition written to %s\n", out_path.c_str());
    // A valid partition that came off a degraded path (fallbacks,
    // rollbacks, shed refinement) is reported distinctly so scripted
    // callers can tell "fine" from "fine, but the run self-healed".
    return r.health.degraded ? 3 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
