// Persistent worker-thread pool with fork-join and dynamic parallel_for.
//
// The mt-metis reimplementation (src/mt) and the simulated CUDA device
// (src/gpu) both execute their logical parallelism on this pool.  The pool
// deliberately allows more workers than hardware cores: the container this
// reproduction runs in may have a single core, yet the algorithms under
// study are *defined* by how T logical threads race on shared arrays, so
// the pool preserves that concurrency structure regardless of core count.
//
// Execution engine (see DESIGN.md §3.1):
//
//   * Jobs are published through an atomic generation counter plus a raw
//     function-pointer trampoline — no std::function allocation and no
//     mutex on the dispatch fast path.  Workers spin briefly on the
//     generation counter and park on a per-worker condition variable when
//     no job arrives (spin-then-park, sized for few-core containers).
//   * The dispatching thread participates as the last executor slot, so a
//     job that needs S slots wakes only S-1 workers, and a job with a
//     single slot runs inline with zero synchronization — the common case
//     for the many tiny kernels of the coarse V-cycle levels.
//   * parallel_for_blocked keeps the static ownership ranges the
//     mt-metis-style algorithms are defined by; parallel_for_dynamic adds
//     an atomic-chunk-counter schedule with a tunable grain for
//     degree-skewed loops (USA-roads/delaunay irregularity) where the
//     slowest static block would serialize the pass.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <stdexcept>
#include <string>

#include "util/cancel.hpp"
#include "util/types.hpp"

namespace gp {

class FaultInjector;

/// Injected task failure (fault site `task@N` / `task:p=`): thrown from
/// inside a worker slot so the pool's record/join/rethrow machinery is
/// exercised, then surfaces from dispatch() on the dispatching thread.
class ThreadPoolTaskError : public std::runtime_error {
 public:
  explicit ThreadPoolTaskError(const std::string& what)
      : std::runtime_error(what) {}
};

class ThreadPool {
 public:
  /// Creates `num_threads` persistent workers (>= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Runs `fn(thread_id)` once for every thread id in [0, size()) and
  /// waits for all of them.  This is the SPMD primitive: each invocation
  /// sees its own thread id and typically derives its vertex range from
  /// it.  The calling thread executes one of the slots itself.
  template <typename F>
  void run_on_all(F&& fn) {
    auto body = [&fn](int id) { fn(id); };
    dispatch(size(), &trampoline<decltype(body)>, &body);
  }

  /// Splits [0, n) into `size()` contiguous blocks and runs
  /// `fn(thread_id, begin, end)` per non-empty block in parallel.  Blocks
  /// are the static ownership ranges used by the mt-metis-style
  /// algorithms.
  template <typename F>
  void parallel_for_blocked(std::int64_t n, F&& fn) {
    if (n <= 0) return;
    const int nt = size();
    auto body = [nt, n, &fn](int t) {
      const auto [b, e] = block_range(n, nt, t);
      if (b < e) fn(t, b, e);
    };
    dispatch(static_cast<int>(std::min<std::int64_t>(nt, n)),
             &trampoline<decltype(body)>, &body);
  }

  /// Dynamically-scheduled parallel_for: chunks of `grain` items are
  /// handed to whichever executor asks next (atomic chunk counter), so a
  /// few heavy chunks cannot serialize the pass on one static block.
  /// `fn(thread_id, begin, end)` runs per chunk; a thread id may receive
  /// many chunks, and with one executor the chunks arrive in index order
  /// (which keeps single-threaded runs bit-deterministic).
  template <typename F>
  void parallel_for_dynamic(std::int64_t n, std::int64_t grain, F&& fn) {
    if (n <= 0) return;
    if (grain < 1) grain = 1;
    const std::int64_t n_chunks = (n + grain - 1) / grain;
    std::atomic<std::int64_t> next{0};
    auto body = [n, grain, &next, &fn](int t) {
      for (;;) {
        const std::int64_t b = next.fetch_add(grain, std::memory_order_relaxed);
        if (b >= n) break;
        fn(t, b, std::min<std::int64_t>(b + grain, n));
      }
    };
    dispatch(static_cast<int>(std::min<std::int64_t>(size(), n_chunks)),
             &trampoline<decltype(body)>, &body);
  }

  /// Default dynamic grain for an n-item loop on this pool: ~16 chunks
  /// per executor, clamped so tiny loops stay one chunk and huge loops
  /// keep the counter traffic negligible.
  [[nodiscard]] std::int64_t dynamic_grain(std::int64_t n) const {
    const auto nt = static_cast<std::int64_t>(size());
    std::int64_t g = n / (nt * 16);
    if (g < 64) g = 64;
    if (g > 65536) g = 65536;
    return g;
  }

  /// Static block ownership helper: [begin, end) of thread `t` over n items.
  static std::pair<std::int64_t, std::int64_t> block_range(std::int64_t n,
                                                           int num_threads,
                                                           int t);
  /// Inverse of block_range: the thread whose block holds item i < n.
  static int block_of(std::int64_t n, int num_threads, std::int64_t i);

  /// Number of jobs dispatched so far (inline single-slot jobs included).
  /// Observability hook for tests.
  [[nodiscard]] std::uint64_t dispatch_count() const {
    return dispatches_.load(std::memory_order_relaxed);
  }

  /// Job-level cancellation (DESIGN.md §3.8): once `token` is set and
  /// cancelled, dispatch() throws CancelledError *before* publishing the
  /// next job.  Jobs are atomic with respect to cancellation — a parallel
  /// pass either runs to completion or never starts, so no caller ever
  /// observes a partially-executed region.  nullptr detaches (default).
  void set_cancel_token(const CancelToken* token) {
    cancel_.store(token, std::memory_order_release);
  }

  /// Arms the `task` fault site: each dispatch() consults the injector on
  /// the dispatching thread (deterministic occurrence order) and, when the
  /// plan says so, plants a ThreadPoolTaskError inside worker slot 0 after
  /// the slot body runs — the job completes, the error is recorded at the
  /// worker boundary, and dispatch rethrows it after the join.  nullptr
  /// detaches (default); unarmed dispatches cost one pointer load.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

 private:
  template <typename F>
  static void trampoline(void* ctx, int id) {
    (*static_cast<F*>(ctx))(id);
  }

  /// Publishes (invoke, ctx) to `n_slots` executors: workers 0..n_slots-2
  /// run slots equal to their worker id, the caller runs slot n_slots-1.
  /// Blocks until every slot has finished.  n_slots == 1 runs inline.
  ///
  /// Exception safety: a slot body that throws (on a worker or on the
  /// caller) is caught at the executor boundary and recorded first-wins;
  /// every other slot still runs to completion, the barrier generation
  /// word advances normally, and dispatch rethrows the recorded exception
  /// to its caller once the job has fully joined.  The pool stays usable.
  void dispatch(int n_slots, void (*invoke)(void*, int), void* ctx);

  void worker_loop(int id);

  /// Records the job's first exception (later ones are dropped — the
  /// caller can only propagate one, and a single root cause usually
  /// cascades).
  void record_job_error(std::exception_ptr e);

  /// One parking slot per worker so the dispatcher can wake exactly the
  /// workers a job needs (and an idle pool costs nothing).
  struct alignas(64) Worker {
    std::thread             thread;
    std::mutex              mutex;
    std::condition_variable cv;
    std::atomic<bool>       parked{false};
  };

  std::vector<std::unique_ptr<Worker>> workers_;

  // Job publication.  Generation counter and participating-worker count
  // are packed into ONE atomic word so a worker can never pair a stale
  // generation with the next job's slot count: (generation << 16) |
  // n_active_workers.  Plain stores to invoke_/ctx_ are ordered before
  // the store of job_word_; workers load job_word_ before reading them.
  std::atomic<std::uint64_t> job_word_{0};
  void (*invoke_)(void*, int) = nullptr;
  void*            ctx_ = nullptr;
  std::atomic<int> remaining_{0};  ///< workers still running this job
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> dispatches_{0};
  std::atomic<const CancelToken*> cancel_{nullptr};
  FaultInjector* injector_ = nullptr;

  // First exception thrown by any slot of the current job; rethrown by
  // dispatch after the join barrier.  Written under err_mutex_ (slot
  // failures are cold), read by the dispatcher only after every slot has
  // finished.
  std::mutex         err_mutex_;
  std::exception_ptr job_error_;

  // Completion parking for the dispatching thread.
  std::mutex              done_mutex_;
  std::condition_variable done_cv_;
};

}  // namespace gp
