#include "service/engine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "gpu/device.hpp"
#include "util/timer.hpp"

namespace gp {

namespace {

/// Budget handed to a run whose deadline already expired while it sat in
/// the queue (or burned in earlier attempts): small enough that the
/// Watchdog trips at the first phase boundary and sheds every optional
/// pass, so the run still returns a minimal *valid* partition.
constexpr double kExpiredDeadlineBudget = 1e-6;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

void validate_service_config(const ServiceConfig& cfg) {
  if (cfg.workers < 0) {
    throw std::invalid_argument("service: workers must be >= 0 (0 = "
                                "synchronous run_one mode)");
  }
  if (cfg.queue_depth == 0) {
    throw std::invalid_argument("service: queue depth must be >= 1");
  }
  if (!(cfg.cost_budget_seconds > 0.0)) {
    throw std::invalid_argument("service: cost budget must be > 0 seconds");
  }
  if (cfg.retry.max_attempts < 1) {
    throw std::invalid_argument("service: retry max_attempts must be >= 1");
  }
  if (cfg.retry.base_backoff_seconds < 0.0 ||
      cfg.retry.max_backoff_seconds < 0.0) {
    throw std::invalid_argument("service: backoff seconds must be >= 0");
  }
  if (cfg.retry.backoff_multiplier < 1.0) {
    throw std::invalid_argument(
        "service: backoff multiplier must be >= 1 (backoff may not shrink)");
  }
  if (cfg.retry.jitter < 0.0 || cfg.retry.jitter > 1.0) {
    throw std::invalid_argument("service: jitter fraction must be in [0, 1]");
  }
  if (cfg.default_deadline_seconds < 0.0) {
    throw std::invalid_argument("service: default deadline must be >= 0");
  }
}

std::unique_ptr<Partitioner> make_partitioner_by_name(
    const std::string& system) {
  if (system == "metis") return make_serial_partitioner();
  if (system == "mt-metis") return make_mt_partitioner();
  if (system == "parmetis") return make_par_partitioner();
  if (system == "gp-metis") return make_hybrid_partitioner();
  if (system == "gp-metis-multi") return make_multi_gpu_partitioner();
  throw std::invalid_argument("unknown system '" + system +
                              "' (expected metis|mt-metis|parmetis|"
                              "gp-metis|gp-metis-multi)");
}

RequestOutcome RequestTicket::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return done_; });
  return outcome_;
}

bool RequestTicket::done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

void RequestTicket::cancel() { cancel_.cancel(); }

ServiceEngine::ServiceEngine(ServiceConfig cfg)
    : cfg_(cfg),
      queue_(AdmissionQueue::Config{cfg.queue_depth,
                                    cfg.cost_budget_seconds}) {
  validate_service_config(cfg_);
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ServiceEngine::~ServiceEngine() { shutdown(/*drain=*/false); }

std::shared_ptr<RequestTicket> ServiceEngine::submit(
    const CsrGraph& graph, const PartitionOptions& opts, Priority priority,
    double deadline_seconds, std::string system) {
  auto ticket = std::make_shared<RequestTicket>();
  ticket->submit_time_ = std::chrono::steady_clock::now();

  AdmissionQueue::Entry entry;
  entry.ticket = ticket;
  entry.req.graph = &graph;
  entry.req.opts = opts;
  entry.req.system = std::move(system);
  entry.req.priority = priority;
  entry.req.deadline_seconds = deadline_seconds < 0.0
                                   ? cfg_.default_deadline_seconds
                                   : deadline_seconds;
  entry.req.est_cost_seconds = estimate_request_cost(graph, opts);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    entry.req.id = next_id_++;
    ++stats_.submitted;
  }
  ticket->id_ = entry.req.id;

  const std::uint64_t id = entry.req.id;
  AdmitDecision d = queue_.push(std::move(entry));
  if (!d.accepted) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      switch (d.shed_class) {
        case ShedClass::kQueueFull: ++stats_.shed_queue_full; break;
        case ShedClass::kCostBudget: ++stats_.shed_cost_budget; break;
        case ShedClass::kShutdown: ++stats_.shed_shutdown; break;
        case ShedClass::kNone: break;
      }
    }
    RequestOutcome out;
    out.id = id;
    out.state = RequestState::kShed;
    out.shed_class = d.shed_class;
    out.shed_reason = std::move(d.shed_reason);
    finalize(*ticket, std::move(out));
    return ticket;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.accepted;
  }
  return ticket;
}

bool ServiceEngine::run_one() {
  AdmissionQueue::Entry entry;
  if (!queue_.try_pop(&entry)) return false;
  execute(std::move(entry));
  return true;
}

void ServiceEngine::worker_loop() {
  AdmissionQueue::Entry entry;
  while (queue_.pop_blocking(&entry)) {
    execute(std::move(entry));
    entry = AdmissionQueue::Entry{};  // drop graph/ticket refs while blocked
  }
}

void ServiceEngine::execute(AdmissionQueue::Entry entry) {
  RequestTicket& ticket = *entry.ticket;
  const ServiceRequest& req = entry.req;

  RequestOutcome out;
  out.id = req.id;
  out.queue_seconds = seconds_since(ticket.submit_time_);

  if (ticket.cancel_.cancelled()) {
    out.state = RequestState::kCancelled;
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.cancelled;
    finalize(ticket, std::move(out));
    return;
  }

  const std::vector<LadderRung> ladder = degradation_ladder(req.system);
  const int max_attempts = cfg_.retry.max_attempts;
  WallTimer run_timer;

  // Pool-leak accounting: drivers build their Devices per run, so the
  // engine watches the process-wide teardown ledger across the request's
  // attempts.  Concurrent requests can attribute each other's leaks (the
  // counter is global), but any nonzero total is a bug either way.
  const std::int64_t leaks_before = Device::process_leaked_blocks();

  // Before a retry: count it first, so observers polling stats() see it as
  // soon as the backoff starts, then sleep the backoff.
  auto back_off = [&](int attempt) {
    const double delay =
        cfg_.retry.backoff_seconds(req.id, attempt, cfg_.seed);
    out.backoff_seconds += delay;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.retries;
    }
    if (cfg_.sleep_on_backoff) {
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
  };

  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    // A request cancelled while backing off must not burn further ladder
    // rungs: stop before the next attempt starts (the in-attempt check
    // is the driver's own CancelledError path).
    if (attempt > 1 && ticket.cancel_.cancelled()) {
      out.state = RequestState::kCancelled;
      out.attempt_trail.push_back("cancelled(between attempts)");
      break;
    }
    const LadderRung& rung = ladder[std::min<std::size_t>(
        static_cast<std::size_t>(attempt - 1), ladder.size() - 1)];

    PartitionOptions opts = req.opts;
    opts.cancel = &ticket.cancel_;
    if (rung.clear_faults) opts.fault_spec.clear();

    if (req.deadline_seconds > 0.0) {
      const double remaining =
          req.deadline_seconds - (out.queue_seconds + run_timer.seconds());
      double budget = std::max(remaining, kExpiredDeadlineBudget);
      if (opts.time_budget_seconds > 0.0) {
        budget = std::min(budget, opts.time_budget_seconds);
      }
      opts.time_budget_seconds = budget;
    }

    ++out.attempts;
    try {
      std::unique_ptr<Partitioner> p = make_partitioner_by_name(rung.system);
      PartitionResult r = p->run(*req.graph, opts);

      const bool fault_degraded =
          r.health.degraded &&
          (r.health.faults_injected > 0 || r.health.audits_failed > 0 ||
           r.health.corruptions_injected > 0);
      out.attempt_trail.push_back(rung.system +
                                  (r.health.degraded ? ":degraded" : ":ok"));

      const bool deadline_left =
          req.deadline_seconds <= 0.0 ||
          out.queue_seconds + run_timer.seconds() < req.deadline_seconds;
      if (fault_degraded && cfg_.retry.retry_degraded &&
          attempt < max_attempts && deadline_left) {
        back_off(attempt);
        continue;
      }
      out.result = std::move(r);
      out.state = RequestState::kDone;
      break;
    } catch (const CancelledError& e) {
      out.state = RequestState::kCancelled;
      out.attempt_trail.push_back(rung.system + ":cancelled(" + e.what() +
                                  ")");
      break;
    } catch (const std::invalid_argument& e) {
      // Bad (graph, options) — no retry can fix a malformed request.
      out.state = RequestState::kFailed;
      out.attempt_trail.push_back(rung.system + ":invalid(" + e.what() + ")");
      break;
    } catch (const std::exception& e) {
      out.attempt_trail.push_back(rung.system + ":threw(" +
                                  std::string(e.what()) + ")");
      if (attempt >= max_attempts) {
        out.state = RequestState::kFailed;
        break;
      }
      back_off(attempt);
    }
  }

  // Every Device the attempts created has been destroyed by now; the
  // pool ledger must be back to where it started (satellite of the chaos
  // oracle — see DESIGN.md §3.10).
  out.leaked_blocks = Device::process_leaked_blocks() - leaks_before;
  assert(out.leaked_blocks == 0 && "service request leaked pool blocks");

  out.run_seconds = run_timer.seconds();
  out.deadline_missed = req.deadline_seconds > 0.0 &&
                        out.total_seconds() > req.deadline_seconds;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (out.leaked_blocks > 0) {
      stats_.leaked_blocks += static_cast<std::uint64_t>(out.leaked_blocks);
    }
    switch (out.state) {
      case RequestState::kDone:
        ++stats_.completed;
        if (out.result.health.degraded) ++stats_.completed_degraded;
        if (out.deadline_missed) ++stats_.deadline_misses;
        break;
      case RequestState::kCancelled: ++stats_.cancelled; break;
      case RequestState::kFailed: ++stats_.failed; break;
      default: break;
    }
  }
  finalize(ticket, std::move(out));
}

void ServiceEngine::finalize(RequestTicket& ticket, RequestOutcome outcome) {
  {
    std::lock_guard<std::mutex> lock(ticket.mutex_);
    ticket.outcome_ = std::move(outcome);
    ticket.done_ = true;
  }
  ticket.cv_.notify_all();
}

void ServiceEngine::shutdown(bool drain) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  if (drain && cfg_.workers == 0) {
    while (run_one()) {
    }
  }
  if (!drain) {
    std::vector<AdmissionQueue::Entry> left = queue_.drain();
    for (auto& e : left) {
      RequestOutcome out;
      out.id = e.req.id;
      out.state = RequestState::kShed;
      out.shed_class = ShedClass::kShutdown;
      out.shed_reason = "shutdown";
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.shed_shutdown;
      }
      finalize(*e.ticket, std::move(out));
    }
  }
  // With drain=true and workers >= 1, close() lets the workers empty the
  // queue before their pop_blocking returns false.
  queue_.close();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

ServiceStats ServiceEngine::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace gp
