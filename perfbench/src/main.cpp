// perfbench — the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload mesh-k64|sparse-k64|service-mix --seed N
//             --seconds S --trace 0|1 [--smoke] [--trace-out PATH]
//
// --trace 0 measures the end-to-end metrics: set-up CPU time, then per
// system CPU seconds, modeled seconds and cut (medians over passes), and
// the CPU seconds per request.  --trace 1 is the separate traced run:
// per-layer metrics from layer replays, ledger fields and service
// outcomes, the wall-clock times, throughput and latency percentiles,
// plus a Chrome trace-event file.  Both runs include the deterministic
// identity replay and print its lines.  Every operation is checked; the
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}, and the exit status is non-zero when any operation failed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "passes.hpp"
#include "replay.hpp"
#include "service/engine.hpp"
#include "service_loop.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace {

using namespace pb;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--trace-out PATH]\n",
               msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    auto number = [&]() {
      const std::string v = value();
      char* end = nullptr;
      const double d = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(d >= 0)) {
        usage(flag + ": expected a non-negative number, got \"" + v + "\"");
      }
      return d;
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = static_cast<std::uint64_t>(number());
    } else if (flag == "--seconds") {
      a.seconds = number();
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace: expected 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const auto& n : workload_names()) known = known || n == a.workload;
  if (!known) usage("unknown workload \"" + a.workload + "\"");
  if (a.trace_out.empty()) {
    a.trace_out = ".bench_build/traces/" + a.workload + ".json";
  }
  return a;
}

/// Length of the seeded request stream: far more than a closed loop of
/// --seconds can complete on this host.
constexpr std::size_t kMaxRequests = std::size_t{1} << 16;

gp::ServiceConfig service_config(const Workload& w, int workers) {
  gp::ServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue_depth = 64;
  cfg.seed = w.base.seed;
  return cfg;
}

/// One set-up: generate the inputs and, for the service mix, start the
/// engine.
struct Setup {
  Workload w;
  std::unique_ptr<gp::ServiceEngine> engine;
  double cpu_s = 0;  ///< process CPU seconds of the set-up
};

Setup set_up(const Args& a) {
  Setup s;
  const double cpu0 = process_cpu_seconds();
  s.w = make_workload(a.workload, a.seed, a.smoke);
  if (s.w.service) {
    s.engine = std::make_unique<gp::ServiceEngine>(service_config(s.w, 2));
  }
  s.cpu_s = process_cpu_seconds() - cpu0;
  return s;
}

/// Runs passes until `seconds` elapsed (at least `min_passes`), calling
/// `between()` after each.  With `traced`, even passes are untraced and
/// odd passes traced into it; the untraced ones are returned.
template <typename Between>
std::vector<PassResult> run_passes(const PassRunner& runner, double seconds,
                                   int min_passes, Report& report,
                                   Tracer& tracer,
                                   std::vector<PassResult>* traced,
                                   Between&& between) {
  Tracer off(false);
  std::vector<PassResult> untraced;
  const auto t0 = Clock::now();
  for (int i = 0; i < min_passes || seconds_since(t0) < seconds; ++i) {
    const bool traced_pass = traced && (i % 2 == 1);
    auto r = runner.run(i, report, traced_pass ? tracer : off);
    (traced_pass ? *traced : untraced).push_back(std::move(r));
    between();
  }
  return untraced;
}

/// Medians over passes of the pass metrics `f` selects.
template <typename F>
void add_pass_medians(Report& rep, const std::vector<PassResult>& passes,
                      F&& f) {
  std::vector<std::vector<Metric>> samples;
  for (const auto& p : passes) samples.push_back(f(p));
  add_medians(rep, samples);
}

void print_loop(const char* what, const LoopResult& loop) {
  const auto beyond_p99 = static_cast<long long>(
      static_cast<double>(loop.latency_s.size()) * 0.01);
  std::printf("%s: requests=%llu valid=%llu window_s=%.3f "
              "max_outstanding=%d samples_beyond_p99=%lld\n",
              what, static_cast<unsigned long long>(loop.requests),
              static_cast<unsigned long long>(loop.valid), loop.window_s,
              loop.max_outstanding, beyond_p99);
}

/// Wall-clock throughput and latency percentiles.  Service mix: over the
/// closed loop's requests.  Batch workloads: a request is one job, and
/// the percentiles are of a pass's job latencies, median over passes.
void add_wall_service_metrics(Report& rep, const Workload& w,
                              const std::vector<PassResult>& passes,
                              const LoopResult& loop) {
  if (w.service) {
    rep.add("throughput_rps",
            static_cast<double>(loop.valid) / loop.window_s, "req/s");
    rep.add("latency_p50_s", quantile(loop.latency_s, 0.50), "s");
    rep.add("latency_p99_s", quantile(loop.latency_s, 0.99), "s");
    return;
  }
  double valid = 0, window = 0;
  std::vector<double> p50, p99;
  for (const auto& p : passes) {
    valid += p.valid_jobs;
    window += p.wall_s;
    p50.push_back(quantile(p.job_wall_s, 0.50));
    p99.push_back(quantile(p.job_wall_s, 0.99));
  }
  rep.add("throughput_rps", valid / window, "req/s");
  rep.add("latency_p50_s", median(p50), "s");
  rep.add("latency_p99_s", median(p99), "s");
}

/// --trace 0: the end-to-end metrics.  One more set-up runs after every
/// pass, so the set-up samples spread over the run like the passes do.
void measure_end_to_end(const Args& a, const Workload& w,
                        gp::ServiceEngine* engine, std::vector<double> setup,
                        const PassRunner& runner, Report& rep) {
  Tracer off(false);
  const int min_passes = 3;
  auto setup_rep = [&] { setup.push_back(set_up(a).cpu_s); };
  if (!w.service) {
    const auto passes =
        run_passes(runner, a.seconds, min_passes, rep, off, nullptr, setup_rep);
    rep.add("setup_s", median(setup), "s");
    add_pass_medians(rep, passes, [](const PassResult& p) {
      return p.end_to_end();
    });
    std::vector<double> per_request;
    double window = 0;
    for (const auto& p : passes) {
      per_request.push_back(p.cpu_s / std::max(1, p.valid_jobs));
      window += p.wall_s;
    }
    rep.add("request_cpu_s", median(per_request), "s");
    std::printf("passes: %zu window_s=%.3f\n", passes.size(), window);
    return;
  }
  // The bare passes and the loop alternate in short segments, so host
  // drift hits both alike.
  const auto mix = service_mix(w, a.seed, kMaxRequests);
  const int segments = 5;
  const double segment_s = a.seconds / segments;
  std::vector<PassResult> passes;
  LoopResult loop;
  for (int i = 0; i < segments; ++i) {
    const auto p =
        run_passes(runner, 0.4 * segment_s, 1, rep, off, nullptr, setup_rep);
    passes.insert(passes.end(), p.begin(), p.end());
    loop.merge(run_closed_loop(w, *engine, mix, loop.next_spec, 4,
                               0.6 * segment_s, rep, off));
  }
  rep.add("setup_s", median(setup), "s");
  add_pass_medians(rep, passes,
                   [](const PassResult& p) { return p.end_to_end(); });
  rep.add("request_cpu_s",
          loop.cpu_s / std::max<double>(1.0, static_cast<double>(loop.valid)),
          "s");
  std::printf("passes: %zu\n", passes.size());
  print_loop("service-loop", loop);
}

void add_service_metrics(Report& rep, const LoopResult& loop,
                         const gp::ServiceStats& before,
                         const gp::ServiceStats& after) {
  const double n = std::max<double>(1.0, static_cast<double>(loop.requests));
  rep.add("service.queue_p50_s", quantile(loop.queue_s, 0.50), "s");
  rep.add("service.queue_p99_s", quantile(loop.queue_s, 0.99), "s");
  rep.add("service.run_p50_s", quantile(loop.run_s, 0.50), "s");
  rep.add("service.run_p99_s", quantile(loop.run_s, 0.99), "s");
  rep.add("service.backoff_s", loop.backoff_s / n, "s");
  rep.add("service.retries",
          static_cast<double>(after.retries - before.retries) / n, "1/req");
  rep.add("service.degraded_frac", static_cast<double>(loop.degraded) / n,
          "ratio");
  rep.add("service.audits_run", static_cast<double>(loop.audits_run) / n,
          "1/req");
  rep.add("service.rollbacks", static_cast<double>(loop.rollbacks) / n,
          "1/req");
}

/// --trace 1: the per-layer metrics and the Chrome trace.
void measure_layers(const Args& a, const Workload& w,
                    gp::ServiceEngine* engine, const PassRunner& runner,
                    const std::vector<IdentityRow>& identity, Report& rep) {
  Tracer tracer(true);
  const double pass_share = w.service ? 0.25 : 0.5;
  std::vector<PassResult> traced;
  std::vector<PassResult> passes;
  {
    Scope s(tracer, "passes " + w.name, "workload");
    passes = run_passes(runner, pass_share * a.seconds, 4, rep, tracer,
                        &traced, [] {});
  }
  std::vector<double> untraced_wall, traced_wall;
  for (const auto& p : passes) untraced_wall.push_back(p.wall_s);
  for (const auto& p : traced) traced_wall.push_back(p.wall_s);
  // Wall clocks from the untraced passes only; ledger fields from all.
  add_pass_medians(rep, passes, [](const PassResult& p) { return p.walls(); });
  const std::vector<PassResult> untraced = passes;
  passes.insert(passes.end(), traced.begin(), traced.end());

  // Service layer: the closed loop itself on the service mix, a one-round
  // probe of the workload's jobs through the engine elsewhere.
  LoopResult loop;
  gp::ServiceStats before, after;
  {
    Scope s(tracer, "service " + w.name, "workload");
    if (w.service) {
      before = engine->stats();
      loop = run_closed_loop(w, *engine, service_mix(w, a.seed, kMaxRequests),
                             0, 4, 0.25 * a.seconds, rep, tracer);
      after = engine->stats();
    } else {
      gp::ServiceEngine probe(service_config(w, 1));
      loop = run_closed_loop(w, probe, probe_mix(w), 0, 1, 1e9, rep, tracer);
      after = probe.stats();
    }
  }
  print_loop("service-loop", loop);
  add_wall_service_metrics(rep, w, untraced, loop);

  std::vector<LayerReplay> replays;
  {
    Scope s(tracer, "replays " + w.name, "workload");
    const auto t0 = Clock::now();
    do {
      replays.push_back(replay_layers(w, rep, tracer));
    } while (seconds_since(t0) < 0.5 * a.seconds);
  }
  add_pass_medians(rep, passes,
                   [](const PassResult& p) { return p.layers(); });
  for (const char* s : {"metis", "mt-metis", "gp-metis"}) {
    double det = 0;
    for (const auto& row : identity) {
      if (row.system == s) det += row.det_s;
    }
    rep.add(std::string("model.") + s + ".det_s", det, "s");
  }
  std::vector<std::vector<Metric>> replay_samples;
  for (const auto& r : replays) replay_samples.push_back(r.metrics());
  add_medians(rep, replay_samples);
  const PoolCosts pool = measure_pool(w.base.threads, a.smoke ? 5 : 50);
  rep.add("util.pool_spawn_s", pool.spawn_s, "s");
  rep.add("util.pool_dispatch_s", pool.dispatch_s, "s");
  add_service_metrics(rep, loop, before, after);
  rep.add("trace.overhead_ratio", median(traced_wall) / median(untraced_wall),
          "ratio");

  // Self time per span kind, then the trace file.
  const auto self = tracer.self_seconds();
  std::vector<std::pair<double, std::string>> top;
  for (const auto& [name, s] : self) top.push_back({s, name});
  std::sort(top.rbegin(), top.rend());
  std::fprintf(stderr, "# self time by span (top 12 of %zu):\n", top.size());
  for (std::size_t i = 0; i < top.size() && i < 12; ++i) {
    std::fprintf(stderr, "#   %10.6f s  %s\n", top[i].first,
                 top[i].second.c_str());
  }
  std::error_code ec;
  const auto dir = std::filesystem::path(a.trace_out).parent_path();
  if (!dir.empty()) std::filesystem::create_directories(dir, ec);
  rep.check("trace write " + a.trace_out,
            tracer.write_chrome(a.trace_out) ? "" : "cannot write trace file");
  std::printf("trace: %s spans=%zu\n", a.trace_out.c_str(), tracer.size());
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  Report rep;
  try {
    // Set-up runs several times; the median is setup_s, and the last
    // set-up is the one the run measures.
    std::vector<double> setup;
    Setup last;
    for (int i = 0; i < 7; ++i) {
      last = set_up(a);
      setup.push_back(last.cpu_s);
    }
    const Workload& w = last.w;
    gp::ServiceEngine* engine = last.engine.get();
    std::fprintf(stderr, "# setup reps:");
    for (const double s : setup) std::fprintf(stderr, " %.4f", s);
    std::fprintf(stderr, "\n");
    for (const auto& in : w.graphs) {
      std::printf("input: %s n=%d m=%lld\n", in.name.c_str(),
                  in.graph.num_vertices(),
                  static_cast<long long>(in.graph.num_edges()));
    }
    const PassRunner runner(w);

    // Untimed warm-up: first passes run up to 2x slower.
    {
      Tracer off(false);
      (void)runner.run(0, rep, off);
      if (w.service) {
        (void)run_closed_loop(w, *engine, service_mix(w, a.seed + 1, 32), 0,
                              4, 1e9, rep, off);
      }
    }

    const auto identity = identity_replay(w, rep);
    if (a.trace) {
      measure_layers(a, w, engine, runner, identity, rep);
    } else {
      measure_end_to_end(a, w, engine, setup, runner, rep);
    }
    for (const auto& row : identity) {
      std::printf("identity: workload=%s graph=%s k=%d system=%s "
                  "fnv=%016llx det_s=%.17g\n",
                  w.name.c_str(), row.graph.c_str(), row.k,
                  row.system.c_str(),
                  static_cast<unsigned long long>(row.fnv), row.det_s);
    }
    std::printf("identity: system=parmetis deterministic=false "
                "(ranks race on shared match state)\n");
    if (engine) engine->shutdown(/*drain=*/true);
  } catch (const std::exception& e) {
    rep.check("benchmark", std::string("threw: ") + e.what());
  }
  std::printf("%s\n", rep.json().c_str());
  return rep.failed == 0 ? 0 : 1;
}
