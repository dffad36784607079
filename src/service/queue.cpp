#include "service/queue.hpp"

#include <algorithm>
#include <sstream>

namespace gp {

const char* request_state_name(RequestState s) {
  switch (s) {
    case RequestState::kQueued: return "queued";
    case RequestState::kRunning: return "running";
    case RequestState::kDone: return "done";
    case RequestState::kShed: return "shed";
    case RequestState::kCancelled: return "cancelled";
    case RequestState::kFailed: return "failed";
  }
  return "?";
}

double estimate_request_cost(const CsrGraph& g, const PartitionOptions& opts) {
  // Per-element touch counts: each V-cycle side walks every vertex and arc
  // a few times per level, and level sizes decay ~2x, so sum over levels
  // ~= 2x the finest level.  Refinement adds a k-dependent gain-table
  // factor.  Absolute scale (elements/sec) is arbitrary but fixed; only
  // monotonicity and reproducibility matter for admission control.
  const double n = static_cast<double>(g.num_vertices());
  const double m = static_cast<double>(g.num_arcs());
  const double refine_factor = 1.0 + 0.1 * static_cast<double>(opts.k);
  const double elements = 2.0 * (4.0 * n + 2.0 * m) * refine_factor;
  constexpr double kElementsPerSecond = 50.0e6;
  return elements / kElementsPerSecond;
}

AdmitDecision AdmissionQueue::push(Entry e) {
  AdmitDecision d;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      d.shed_class = ShedClass::kShutdown;
      d.shed_reason = "shutdown";
      return d;
    }
    if (depth_ >= cfg_.max_depth) {
      std::ostringstream os;
      os << "queue-full:depth=" << depth_ << ":max=" << cfg_.max_depth;
      d.shed_class = ShedClass::kQueueFull;
      d.shed_reason = os.str();
      return d;
    }
    const double est = e.req.est_cost_seconds;
    if (backlog_seconds_ + est > cfg_.cost_budget_seconds) {
      std::ostringstream os;
      os << "cost-budget:backlog=" << backlog_seconds_ << ":est=" << est
         << ":max=" << cfg_.cost_budget_seconds;
      d.shed_class = ShedClass::kCostBudget;
      d.shed_reason = os.str();
      return d;
    }
    const int lane = static_cast<int>(e.req.priority);
    lanes_[lane].push_back(std::move(e));
    ++depth_;
    backlog_seconds_ += est;
    d.accepted = true;
  }
  cv_.notify_one();
  return d;
}

bool AdmissionQueue::pop_locked(Entry* out) {
  for (int lane = 2; lane >= 0; --lane) {
    auto& q = lanes_[lane];
    if (!q.empty()) {
      *out = std::move(q.front());
      q.pop_front();
      --depth_;
      backlog_seconds_ =
          std::max(0.0, backlog_seconds_ - out->req.est_cost_seconds);
      return true;
    }
  }
  return false;
}

bool AdmissionQueue::pop_blocking(Entry* out) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return depth_ > 0 || closed_; });
  return pop_locked(out);
}

bool AdmissionQueue::try_pop(Entry* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  return pop_locked(out);
}

void AdmissionQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::vector<AdmissionQueue::Entry> AdmissionQueue::drain() {
  std::vector<Entry> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (int lane = 2; lane >= 0; --lane) {
    auto& q = lanes_[lane];
    for (auto& e : q) out.push_back(std::move(e));
    q.clear();
  }
  depth_ = 0;
  backlog_seconds_ = 0.0;
  return out;
}

std::size_t AdmissionQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return depth_;
}

}  // namespace gp
