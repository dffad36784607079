#include "util/thread_pool.hpp"

#include <algorithm>
#include <cassert>

#include "util/fault.hpp"

namespace gp {

namespace {

/// Wrapper installed when the `task` fault site fires for a dispatch: the
/// inner body runs to completion first (the fault models a task that
/// throws, not one that corrupts), then slot 0 throws through the worker
/// boundary so the record/join/rethrow path is what propagates it.
struct TaskFaultShim {
  void (*inner)(void*, int);
  void* ctx;
};

void task_fault_invoke(void* p, int slot) {
  auto* shim = static_cast<TaskFaultShim*>(p);
  shim->inner(shim->ctx, slot);
  if (slot == 0) {
    throw ThreadPoolTaskError("injected pool task fault (slot 0)");
  }
}

// Spin budget before parking.  The container may have fewer cores than
// workers (often just one), so the budget is short and yields its
// timeslice for the second half — a worker that spins hard on a one-core
// box only delays the job it is waiting for.
constexpr int kSpinPause = 64;
constexpr int kSpinYield = 32;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  // The job word packs the participating-worker count into 16 bits.
  num_threads = std::min(std::max(1, num_threads), 0xffff);
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (int t = 0; t < num_threads; ++t) {
    workers_[static_cast<std::size_t>(t)]->thread =
        std::thread([this, t] { worker_loop(t); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->mutex);
    w->cv.notify_one();
  }
  for (auto& w : workers_) w->thread.join();
}

void ThreadPool::worker_loop(int id) {
  Worker& me = *workers_[static_cast<std::size_t>(id)];
  std::uint64_t seen = 0;  // generation part of the last job word seen
  for (;;) {
    // --- wait for a new generation: spin, then park ---
    std::uint64_t jw;
    int spins = 0;
    while (((jw = job_word_.load(std::memory_order_acquire)) >> 16) == seen) {
      if (stop_.load(std::memory_order_acquire)) return;
      ++spins;
      if (spins <= kSpinPause) {
        cpu_relax();
      } else if (spins <= kSpinPause + kSpinYield) {
        std::this_thread::yield();
      } else {
        std::unique_lock<std::mutex> lock(me.mutex);
        me.parked.store(true, std::memory_order_seq_cst);
        // The seq_cst store above and seq_cst load below pair with the
        // dispatcher's seq_cst publish-then-check (Dekker): either the
        // dispatcher sees parked and notifies, or this predicate sees
        // the new generation and skips the sleep.
        me.cv.wait(lock, [&] {
          return stop_.load(std::memory_order_relaxed) ||
                 (job_word_.load(std::memory_order_seq_cst) >> 16) != seen;
        });
        me.parked.store(false, std::memory_order_relaxed);
        spins = 0;
      }
    }
    seen = jw >> 16;
    // --- execute this worker's slot, if the job includes it ---
    if (id < static_cast<int>(jw & 0xffff)) {
      try {
        invoke_(ctx_, id);
      } catch (...) {
        // A throwing task must not wedge the barrier: record the error
        // for the dispatcher and fall through to the normal completion
        // protocol so the generation word keeps advancing.
        record_job_error(std::current_exception());
      }
      if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last finisher: the dispatcher may have parked.  Taking the lock
        // (even when nobody waits) closes the missed-wakeup window — the
        // dispatcher re-checks remaining_ under this mutex before
        // sleeping.
        std::lock_guard<std::mutex> lock(done_mutex_);
        done_cv_.notify_one();
      }
    }
  }
}

void ThreadPool::record_job_error(std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(err_mutex_);
  if (!job_error_) job_error_ = std::move(e);
}

void ThreadPool::dispatch(int n_slots, void (*invoke)(void*, int),
                          void* ctx) {
  assert(n_slots >= 1 && n_slots <= size());
  // Cooperative cancellation boundary: a cancelled run stops *between*
  // jobs, never inside one, so every artifact a completed pass produced
  // is intact when the stack unwinds.
  if (const CancelToken* tok = cancel_.load(std::memory_order_acquire);
      tok && tok->cancelled()) {
    throw CancelledError("pool job before dispatch");
  }
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  // Injected task fault: decided here on the dispatching thread so the
  // occurrence schedule is independent of worker interleaving.  The shim
  // outlives the job — dispatch blocks until the join barrier below.
  TaskFaultShim shim;
  if (injector_ && injector_->task_fault()) {
    shim = {invoke, ctx};
    invoke = &task_fault_invoke;
    ctx = &shim;
  }
  if (n_slots == 1) {
    // Single-slot jobs (tiny kernels, one-thread pools) run inline: no
    // concurrency is possible with one executor, so no synchronization is
    // owed either (a thrown exception propagates directly).
    invoke(ctx, 0);
    return;
  }
  const int n_workers = n_slots - 1;  // the caller runs slot n_slots-1
  job_error_ = nullptr;  // previous job fully joined; no concurrent access
  invoke_ = invoke;
  ctx_ = ctx;
  remaining_.store(n_workers, std::memory_order_relaxed);
  const std::uint64_t gen = (job_word_.load(std::memory_order_relaxed) >> 16) + 1;
  job_word_.store((gen << 16) | static_cast<std::uint64_t>(n_workers),
                  std::memory_order_seq_cst);
  // Wake exactly the parked participants; spinning ones see the store.
  // A worker that decided to park after we looked re-checks the job word
  // under its mutex before sleeping (seq_cst Dekker pairing above), so
  // the publish is never missed.
  for (int w = 0; w < n_workers; ++w) {
    Worker& wk = *workers_[static_cast<std::size_t>(w)];
    if (wk.parked.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lock(wk.mutex);
      wk.cv.notify_one();
    }
  }

  try {
    invoke(ctx, n_slots - 1);  // caller's slot
  } catch (...) {
    // The caller's slot failed, but the workers still hold pointers into
    // this job's context: record the error and fall through to the join
    // barrier before letting anything unwind.
    record_job_error(std::current_exception());
  }

  // --- join: spin, then park on done_cv_ ---
  int spins = 0;
  while (remaining_.load(std::memory_order_acquire) != 0) {
    ++spins;
    if (spins <= kSpinPause) {
      cpu_relax();
    } else if (spins <= kSpinPause + kSpinYield) {
      std::this_thread::yield();
    } else {
      std::unique_lock<std::mutex> lock(done_mutex_);
      done_cv_.wait(lock, [&] {
        return remaining_.load(std::memory_order_acquire) == 0;
      });
      break;
    }
  }

  // Every slot finished (job fully joined): safe to surface the job's
  // first failure to the dispatcher's caller.  No lock needed — workers
  // only touch job_error_ while remaining_ > 0.
  if (job_error_) {
    std::exception_ptr e = std::move(job_error_);
    job_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

std::pair<std::int64_t, std::int64_t> ThreadPool::block_range(std::int64_t n,
                                                              int num_threads,
                                                              int t) {
  assert(num_threads > 0 && t >= 0 && t < num_threads);
  const std::int64_t chunk = n / num_threads;
  const std::int64_t rem = n % num_threads;
  const std::int64_t begin = t * chunk + std::min<std::int64_t>(t, rem);
  const std::int64_t end = begin + chunk + (t < rem ? 1 : 0);
  return {begin, end};
}

int ThreadPool::block_of(std::int64_t n, int num_threads, std::int64_t i) {
  assert(num_threads > 0 && i >= 0 && i < n);
  const std::int64_t chunk = n / num_threads;
  const std::int64_t rem = n % num_threads;
  const std::int64_t wide = rem * (chunk + 1);  // items in the larger blocks
  return static_cast<int>(i < wide ? i / (chunk + 1)
                                   : rem + (i - wide) / chunk);
}

}  // namespace gp
