// Service-mode bench — the BENCH_service.json anchor (DESIGN.md §3.8).
//
// Exercises the batched partition-request engine and emits
// machine-readable JSON.  The threaded engine's closed loop is measured
// by perfbench's service-mix workload, not here.
//
//   * open_loop    deterministic 2x-overload tick schedule against the
//                  synchronous engine (workers = 0): every tick submits
//                  two requests and serves one, so admission control MUST
//                  shed — the section records the accept/shed/deadline
//                  counters plus a per-request state trace string that
//                  replays byte-identically for a given seed,
//   * retry        fault-injected requests (cmap corruption + phase
//                  audits) through the degradation ladder: retries taken,
//                  final-health split,
//   * deadline     a tight per-request deadline on every request: misses
//                  recorded, zero hangs (the binary completing IS the
//                  no-hang gate — a deadline hang would time the CI job
//                  out).
//
// Flags (on top of nothing — this bench has its own tiny matrix):
//   --out <path>   output path (default BENCH_service.json)
//   --n <int>      vertices per request graph (default 4000)
//   --ticks <int>  open-loop ticks (default 48)
//   --seed <int>   engine + graph seed (default 1)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "../tools/cli_args.hpp"
#include "core/report.hpp"
#include "gen/generators.hpp"
#include "service/engine.hpp"
#include "util/timer.hpp"

namespace {

using namespace gp;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

char state_char(RequestState s) {
  switch (s) {
    case RequestState::kDone: return 'D';
    case RequestState::kShed: return 'S';
    case RequestState::kCancelled: return 'C';
    case RequestState::kFailed: return 'F';
    default: return '?';
  }
}

void emit_stats(std::ostringstream& os, const ServiceStats& s) {
  os << "\"submitted\": " << s.submitted << ", \"accepted\": " << s.accepted
     << ", \"shed_queue_full\": " << s.shed_queue_full
     << ", \"shed_cost_budget\": " << s.shed_cost_budget
     << ", \"shed_shutdown\": " << s.shed_shutdown
     << ", \"completed\": " << s.completed
     << ", \"completed_degraded\": " << s.completed_degraded
     << ", \"deadline_misses\": " << s.deadline_misses
     << ", \"retries\": " << s.retries << ", \"failed\": " << s.failed;
}

PartitionOptions base_opts(std::uint64_t seed) {
  PartitionOptions opts;
  opts.k = 8;
  opts.threads = 1;           // deterministic per-request work
  opts.gpu_host_workers = 1;
  opts.seed = seed;
  opts.fault_seed = seed;
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_service.json";
  vid_t n = 4000;
  int ticks = 48;
  std::uint64_t seed = 1;
  auto usage = [] {
    std::fprintf(stderr, "usage: bench_service [--out PATH] [--n N] "
                         "[--ticks N] [--seed N]\n");
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 < argc) return argv[++i];
      std::fprintf(stderr, "%s requires a value\n", argv[i]);
      std::exit(usage());
    };
    // The next value, parsed strictly into a numeric option's `field`.
    auto number = [&](auto& field) {
      const char* opt = argv[i];
      field = parse_number<std::remove_reference_t<decltype(field)>>(opt,
                                                                     next());
    };
    if (!std::strcmp(argv[i], "--out")) out_path = next();
    else if (!std::strcmp(argv[i], "--n")) number(n);
    else if (!std::strcmp(argv[i], "--ticks")) number(ticks);
    else if (!std::strcmp(argv[i], "--seed")) number(seed);
    else return usage();
  }
  if (n < 1 || ticks < 1) {
    std::fprintf(stderr, "--n and --ticks must be >= 1\n");
    return usage();
  }

  const CsrGraph g = delaunay_graph(n, 3);
  std::ostringstream js;
  js << "{\n  \"schema\": \"bench_service/v1\",\n";
  js << "  \"graph\": {\"name\": \"delaunay\", \"n\": " << g.num_vertices()
     << ", \"m\": " << g.num_edges() << "},\n";
  js << "  \"seed\": " << seed << ",\n";

  // ---------------- open loop: deterministic 2x overload ----------------
  {
    ServiceConfig cfg;
    cfg.workers = 0;  // synchronous: the tick schedule is the only clock
    cfg.queue_depth = 8;
    cfg.seed = seed;
    ServiceEngine engine(cfg);
    std::vector<std::shared_ptr<RequestTicket>> tickets;
    const Priority rot[3] = {Priority::kInteractive, Priority::kNormal,
                             Priority::kBatch};
    WallTimer timer;
    for (int t = 0; t < ticks; ++t) {
      // 2x overload: two arrivals per service slot.
      for (int a = 0; a < 2; ++a) {
        tickets.push_back(engine.submit(g, base_opts(seed),
                                        rot[(2 * t + a) % 3], -1.0,
                                        "mt-metis"));
      }
      engine.run_one();
    }
    engine.shutdown(/*drain=*/true);
    const double wall = timer.seconds();

    std::string trace;
    trace.reserve(tickets.size());
    std::vector<double> run_lat;
    for (auto& t : tickets) {
      const auto out = t->wait();
      trace.push_back(state_char(out.state));
      if (out.state == RequestState::kDone) run_lat.push_back(out.run_seconds);
    }
    const auto s = engine.stats();
    js << "  \"open_loop\": {";
    emit_stats(js, s);
    js << ", \"overload_factor\": 2.0, \"wall_s\": " << wall
       << ", \"run_p50_s\": " << percentile(run_lat, 0.50)
       << ", \"run_p99_s\": " << percentile(run_lat, 0.99)
       << ", \"trace\": \"" << trace << "\"},\n";
    std::printf("open loop (2x overload, %d ticks):\n%s", ticks,
                format_service_stats(s).c_str());
  }

  // ----------------- retry ladder under injected faults -----------------
  {
    ServiceConfig cfg;
    cfg.workers = 0;
    cfg.queue_depth = 64;
    cfg.seed = seed;
    ServiceEngine engine(cfg);
    PartitionOptions opts = base_opts(seed);
    opts.audit_level = AuditLevel::kPhase;
    opts.fault_spec = "cmap@0";
    const int requests = 8;
    std::vector<std::shared_ptr<RequestTicket>> tickets;
    for (int r = 0; r < requests; ++r) {
      tickets.push_back(engine.submit(g, opts, Priority::kNormal, -1.0,
                                      "mt-metis"));
    }
    while (engine.run_one()) {
    }
    engine.shutdown(/*drain=*/true);
    int healthy = 0;
    double backoff = 0.0;
    for (auto& t : tickets) {
      const auto out = t->wait();
      if (out.state == RequestState::kDone && !out.result.health.degraded) {
        ++healthy;
      }
      backoff += out.backoff_seconds;
    }
    const auto s = engine.stats();
    js << "  \"retry\": {";
    emit_stats(js, s);
    js << ", \"requests\": " << requests
       << ", \"converged_healthy\": " << healthy
       << ", \"modeled_backoff_s\": " << backoff << "},\n";
    std::printf("retry (cmap@0 faults, %d requests): %d healthy after "
                "%llu retries\n",
                requests, healthy,
                static_cast<unsigned long long>(s.retries));
  }

  // --------------------- tight per-request deadline ---------------------
  {
    ServiceConfig cfg;
    cfg.workers = 0;
    cfg.queue_depth = 64;
    cfg.seed = seed;
    ServiceEngine engine(cfg);
    const int requests = 8;
    std::vector<std::shared_ptr<RequestTicket>> tickets;
    for (int r = 0; r < requests; ++r) {
      tickets.push_back(engine.submit(g, base_opts(seed), Priority::kNormal,
                                      /*deadline=*/1e-6, "metis"));
    }
    while (engine.run_one()) {
    }
    engine.shutdown(/*drain=*/true);
    int valid = 0;
    for (auto& t : tickets) {
      const auto out = t->wait();
      if (out.state == RequestState::kDone &&
          validate_partition(g, out.result.partition, out.result.cut,
                             out.result.balance)
              .empty()) {
        ++valid;
      }
    }
    const auto s = engine.stats();
    js << "  \"deadline\": {";
    emit_stats(js, s);
    js << ", \"requests\": " << requests
       << ", \"deadline_s\": 1e-6, \"valid_partitions\": " << valid
       << ", \"hangs\": 0},\n";
    std::printf("deadline (1us): %d/%d valid best-so-far partitions, "
                "%llu misses, 0 hangs\n",
                valid, requests,
                static_cast<unsigned long long>(s.deadline_misses));
    if (valid != requests) {
      std::fprintf(stderr, "bench_service: deadline-expired request "
                           "returned an invalid partition\n");
      return 1;
    }
  }

  js << "  \"notes\": \"open_loop.trace is deterministic per seed; "
        "deadline.hangs is structurally 0 — a hang would hit the CI "
        "timeout\"\n}\n";

  std::ofstream f(out_path);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  f << js.str();
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
