#include "service_loop.hpp"

#include <algorithm>
#include <memory>
#include <thread>

#include "util/rng.hpp"

namespace pb {

std::vector<RequestSpec> service_mix(const Workload& w, std::uint64_t seed,
                                     std::size_t count) {
  gp::Rng rng(seed ^ 0x5e71ce5eedULL);
  std::vector<RequestSpec> mix;
  mix.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    RequestSpec s;
    s.graph = static_cast<std::size_t>(rng.next() % w.graphs.size());
    const auto& ks = w.graphs[s.graph].ks;
    s.k = ks[static_cast<std::size_t>(rng.next() % ks.size())];
    s.system = kServiceSystems[static_cast<std::size_t>(
        rng.next() % kServiceSystems.size())];
    s.fault = i % 8 == 7;
    s.seed = rng.next();
    mix.push_back(std::move(s));
  }
  return mix;
}

std::vector<RequestSpec> probe_mix(const Workload& w) {
  std::vector<RequestSpec> mix;
  for (std::size_t g = 0; g < w.graphs.size(); ++g) {
    for (const gp::part_t k : w.graphs[g].ks) {
      for (const auto& sys : kSystems) {
        mix.push_back({g, k, sys, mix.size() % 8 == 7, w.base.seed});
      }
    }
  }
  return mix;
}

namespace {

struct Client {
  std::shared_ptr<gp::RequestTicket> ticket;
  std::size_t spec = 0;
  Clock::time_point submitted{};
};

}  // namespace

void LoopResult::merge(const LoopResult& o) {
  latency_s.insert(latency_s.end(), o.latency_s.begin(), o.latency_s.end());
  queue_s.insert(queue_s.end(), o.queue_s.begin(), o.queue_s.end());
  run_s.insert(run_s.end(), o.run_s.begin(), o.run_s.end());
  backoff_s += o.backoff_s;
  requests += o.requests;
  valid += o.valid;
  degraded += o.degraded;
  audits_run += o.audits_run;
  rollbacks += o.rollbacks;
  window_s += o.window_s;
  cpu_s += o.cpu_s;
  max_outstanding = std::max(max_outstanding, o.max_outstanding);
  next_spec = o.next_spec;
}

LoopResult run_closed_loop(const Workload& w, gp::ServiceEngine& engine,
                           const std::vector<RequestSpec>& mix,
                           std::size_t first, int clients, double seconds,
                           Report& report, Tracer& tracer) {
  LoopResult out;
  std::vector<Client> slots(static_cast<std::size_t>(clients));
  std::size_t next = first;
  int outstanding = 0;
  const auto start = Clock::now();
  const double cpu0 = process_cpu_seconds();

  auto submit = [&](Client& c) {
    const RequestSpec& s = mix[next];
    gp::PartitionOptions opts = w.options(s.k);
    opts.seed = s.seed;
    if (s.fault) {
      opts.audit_level = gp::AuditLevel::kPhase;
      opts.fault_spec = "cmap@0";
      opts.fault_seed = w.base.seed + next;
    }
    c.spec = next++;
    c.submitted = Clock::now();
    c.ticket = engine.submit(w.graphs[s.graph].graph, opts,
                             gp::Priority::kNormal, /*deadline=*/0.0,
                             s.system);
    ++outstanding;
    out.max_outstanding = std::max(out.max_outstanding, outstanding);
  };
  auto may_submit = [&]() {
    return next < mix.size() && seconds_since(start) < seconds;
  };

  for (auto& c : slots) {
    if (may_submit()) submit(c);
  }
  while (outstanding > 0) {
    bool progressed = false;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Client& c = slots[i];
      if (!c.ticket || !c.ticket->done()) continue;
      const gp::RequestOutcome o = c.ticket->wait();
      c.ticket.reset();
      --outstanding;
      progressed = true;
      const RequestSpec& s = mix[c.spec];
      const auto& g = w.graphs[s.graph];
      std::string err;
      if (o.state != gp::RequestState::kDone) {
        err = std::string("ended ") + gp::request_state_name(o.state) +
              (o.shed_reason.empty() ? "" : " (" + o.shed_reason + ")");
        for (const auto& t : o.attempt_trail) err += " " + t;
      } else if (o.leaked_blocks != 0) {
        err = "leaked " + std::to_string(o.leaked_blocks) + " pool blocks";
      } else {
        err = check_result(g.graph, s.k, w.base.eps, o.result, std::nullopt);
      }
      report.check(w.name + " request " + std::to_string(o.id) + " " +
                       g.name + "/k" + std::to_string(s.k) + "/" + s.system,
                   err);
      ++out.requests;
      if (err.empty()) ++out.valid;
      if (o.result.health.degraded) ++out.degraded;
      out.audits_run += o.result.health.audits_run;
      out.rollbacks += o.result.health.rollbacks;
      out.latency_s.push_back(o.total_seconds());
      out.queue_s.push_back(o.queue_seconds);
      out.run_s.push_back(o.run_seconds);
      out.backoff_s += o.backoff_seconds;
      if (tracer.enabled()) {
        const int tid = 100 + static_cast<int>(i);
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"system\": \"%s\", \"attempts\": %d, \"fault\": %s",
                      s.system.c_str(), o.attempts,
                      s.fault ? "true" : "false");
        const int req = tracer.record(
            "request " + g.name + "/k" + std::to_string(s.k), "request", tid,
            c.submitted, o.total_seconds(), -1, buf);
        tracer.record("queue", "service", tid, c.submitted, o.queue_seconds,
                      req);
        const auto run_start =
            c.submitted + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(o.queue_seconds));
        tracer.record("run", "service", tid, run_start, o.run_seconds, req);
        std::snprintf(buf, sizeof(buf), "\"modeled_backoff_s\": %.9g",
                      o.backoff_seconds);
        tracer.record("backoff", "service", tid, run_start, 0.0, req, buf);
      }
      if (may_submit()) submit(c);
    }
    // Requests take milliseconds; a 200 us poll keeps the generator mostly
    // asleep (off the four busy cores) and delays a resubmission by ~1%.
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  out.window_s = seconds_since(start);
  out.cpu_s = process_cpu_seconds() - cpu0;
  out.next_spec = next;
  return out;
}

}  // namespace pb
