// Bounded admission queue with priority classes and explicit load
// shedding (DESIGN.md §3.8).
//
// Admission control runs entirely at push time, under one lock, against
// two bounds: queue depth (requests) and estimated modeled-cost backlog
// (seconds).  A request that would exceed either is *rejected
// immediately* with a machine-readable reason — the service's contract is
// "fast no" over "slow maybe", so an overloaded engine degrades into a
// predictable rejection rate instead of unbounded queueing delay
// (the classic overload-collapse failure mode of research partitioners
// embedded in serving systems).
//
// Dispatch order: strict priority (interactive > normal > batch), FIFO
// within a class.  Starvation of batch work under sustained interactive
// overload is the intended policy — batch requests are the ones a loaded
// service sheds first, and the cost-budget bound keeps the queue short
// enough that admitted batch work ages out quickly.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/request.hpp"

namespace gp {

class RequestTicket;  // engine.hpp; opaque to the queue

/// Outcome of one admission decision.
struct AdmitDecision {
  bool accepted = false;
  ShedClass shed_class = ShedClass::kNone;
  std::string shed_reason;  ///< machine-readable, empty when accepted
};

class AdmissionQueue {
 public:
  struct Config {
    std::size_t max_depth = 64;
    /// Cap on the summed est_cost_seconds of queued requests.  The depth
    /// bound alone under-protects against a few huge graphs; the cost
    /// bound alone under-protects against swarms of tiny ones.
    double cost_budget_seconds = 1e18;
  };

  struct Entry {
    ServiceRequest req;
    std::shared_ptr<RequestTicket> ticket;
  };

  explicit AdmissionQueue(Config cfg) : cfg_(cfg) {}

  /// Admission decision + enqueue, atomically.  Never blocks.
  AdmitDecision push(Entry e);

  /// Blocking pop for worker threads: highest priority class first, FIFO
  /// within.  Returns false once the queue is closed *and* drained.
  bool pop_blocking(Entry* out);

  /// Non-blocking pop (synchronous run_one mode).
  bool try_pop(Entry* out);

  /// Stops admission (further pushes shed with kShutdown) and wakes
  /// blocked poppers so they can drain and exit.
  void close();

  /// Removes and returns every queued entry (shutdown without drain).
  std::vector<Entry> drain();

  [[nodiscard]] std::size_t depth() const;

 private:
  bool pop_locked(Entry* out);

  Config cfg_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// One FIFO lane per priority class, indexed by static_cast<int>(Priority).
  std::deque<Entry> lanes_[3];
  std::size_t depth_ = 0;
  double backlog_seconds_ = 0.0;
  bool closed_ = false;
};

}  // namespace gp
