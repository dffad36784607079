// Simulated CUDA device (see DESIGN.md §3.1).
//
// The paper runs its kernels on a GeForce GTX Titan.  This class provides
// the same programming model in pure C++ so every GPU code path of
// GP-metis executes unchanged in this container:
//
//   * device memory with explicit H2D/D2H copies (byte-metered; there is
//     a 6 GB capacity limit like the Titan's),
//   * kernel launches over a logical thread index space, executed by a
//     host worker pool so that concurrent logical threads genuinely race
//     on shared arrays (the lock-free algorithms depend on that),
//   * per-warp work metering feeding the analytical cost model, which
//     converts metered work into modeled GTX-Titan seconds.
//
// Deliberately NOT simulated: cycle-level SIMT execution.  The paper's
// contribution is algorithmic (lock-free conflict repair, prefix-sum
// compaction, buffered refinement); what the model needs from "the GPU"
// is work volume, warp-level imbalance, and transfer bytes — all metered
// here exactly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/machine_model.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace gp {

class DeviceOutOfMemory : public std::runtime_error {
 public:
  explicit DeviceOutOfMemory(const std::string& what, int device_id = 0)
      : std::runtime_error(what), device_id_(device_id) {}

  [[nodiscard]] int device_id() const { return device_id_; }

 private:
  int device_id_ = 0;
};

/// A non-memory device fault: a failed kernel launch, a failed transfer,
/// or any operation on a device that has been lost (multi-GPU future-work
/// scenario).  Distinct from DeviceOutOfMemory so degradation policies can
/// tell "shrink the working set" apart from "stop using this device".
class DeviceFailure : public std::runtime_error {
 public:
  explicit DeviceFailure(const std::string& what, int device_id = 0)
      : std::runtime_error(what), device_id_(device_id) {}

  [[nodiscard]] int device_id() const { return device_id_; }

 private:
  int device_id_ = 0;
};

class Device {
 public:
  struct Config {
    int warp_size = 32;
    /// GTX Titan: 14 SMX. Only used by the cost model narrative.
    int num_sms = 14;
    /// Device memory capacity (GTX Titan: 6 GB).
    std::size_t memory_bytes = std::size_t{6} << 30;
    /// Host worker threads that execute kernel chunks concurrently.
    int host_workers = 8;
  };

  Device();  ///< default (GTX-Titan-like) configuration
  explicit Device(Config config);

  [[nodiscard]] const Config& config() const { return config_; }

  /// Attaches a ledger; all subsequent launches/transfers charge to it.
  void set_ledger(CostLedger* ledger) { ledger_ = ledger; }
  [[nodiscard]] CostLedger* ledger() const { return ledger_; }

  /// Attaches a fault injector; `device_id` identifies this device in the
  /// fault plan (`deviceN:lost` rules).  nullptr disables injection — the
  /// default, with zero overhead on every operation.
  void set_fault_injector(FaultInjector* injector, int device_id = 0) {
    injector_ = injector;
    device_id_ = device_id;
  }
  [[nodiscard]] int device_id() const { return device_id_; }
  [[nodiscard]] bool has_fault_injector() const {
    return injector_ != nullptr;
  }

  /// Forwards a cancellation token to the device's host worker pool: a
  /// cancelled run stops before the next kernel launch (jobs are atomic
  /// w.r.t. cancellation; see util/cancel.hpp).  nullptr detaches.
  void set_cancel_token(const CancelToken* token) {
    pool_.set_cancel_token(token);
  }

  /// Silent-corruption hook (DESIGN.md §3.5): when the fault plan carries
  /// a `flip` rule for this transfer occurrence, flips one bit of the
  /// payload at a (seed, occurrence)-determined position.  Called by
  /// DeviceBuffer after each copy, guarded by has_fault_injector() so the
  /// injector-free path pays one inline null check.
  void maybe_corrupt_transfer(void* data, std::size_t bytes,
                              const std::string& label);

  // --- memory accounting (called by DeviceBuffer) ---
  void on_alloc(std::size_t bytes);
  void on_free(std::size_t bytes) noexcept;
  [[nodiscard]] std::size_t allocated_bytes() const { return allocated_; }
  /// High-water mark of device memory usage.
  [[nodiscard]] std::size_t peak_bytes() const { return peak_; }

  // --- transfer metering (called by DeviceBuffer copy helpers) ---
  void meter_h2d(std::size_t bytes, const std::string& label);
  void meter_d2h(std::size_t bytes, const std::string& label);
  [[nodiscard]] std::uint64_t total_h2d_bytes() const { return h2d_bytes_; }
  [[nodiscard]] std::uint64_t total_d2h_bytes() const { return d2h_bytes_; }

  /// Launches a kernel over logical threads [0, n_threads).  The body
  /// returns the work units (arc touches) that logical thread performed;
  /// work is aggregated per warp and the warp imbalance stretches the
  /// modeled kernel time.  Bodies run concurrently on the worker pool —
  /// shared-array writes race exactly as on the real device.
  ///
  /// The body type is a template parameter: every per-element call is a
  /// direct (inlinable) invocation, never a type-erased std::function —
  /// this is the hot path of the whole simulated device.  Logical threads
  /// are handed to host workers in warp-aligned dynamic chunks (atomic
  /// chunk counter), mirroring how a real GPU's scheduler assigns thread
  /// blocks to SMs, so one heavy chunk cannot serialize the launch on a
  /// static block boundary.  Warp-aligned chunks also give every warp's
  /// work sum exactly one writer — no atomics on the metering path.
  template <typename Body>
  void launch(const std::string& label, std::int64_t n_threads, Body&& body) {
    begin_launch(label);
    if (n_threads <= 0) {
      if (ledger_) ledger_->charge_gpu_kernel("kernel/" + label, 0, 1.0);
      return;
    }
    const int ws = config_.warp_size;
    const std::int64_t grain = launch_grain(n_threads);
    if (!ledger_) {
      // No ledger attached: skip the per-warp work vector and the warp
      // accumulation entirely; the body's return value is not needed.
      pool_.parallel_for_dynamic(
          n_threads, grain, [&](int, std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) body(i);
          });
      return;
    }
    const auto n_warps =
        static_cast<std::size_t>((n_threads + ws - 1) / ws);
    warp_work_.assign(n_warps, 0);
    std::uint64_t* ww = warp_work_.data();
    pool_.parallel_for_dynamic(
        n_threads, grain, [&](int, std::int64_t b, std::int64_t e) {
          // Chunks are warp-aligned, so every warp lives in exactly one
          // chunk and its sum has one writer: plain stores suffice.
          std::int64_t i = b;
          while (i < e) {
            const std::int64_t warp = i / ws;
            const std::int64_t warp_end =
                std::min<std::int64_t>((warp + 1) * ws, e);
            std::uint64_t acc = 0;
            for (; i < warp_end; ++i) acc += body(i);
            ww[static_cast<std::size_t>(warp)] = acc;
          }
        });
    finish_launch(label);
  }

  /// Launch for perfectly coalesced streaming kernels (fills, sequential
  /// sweeps): consecutive threads touch consecutive `elem_bytes`-sized
  /// elements, so a warp's accesses collapse into 128-byte transactions.
  /// Charged one work unit per transaction instead of one per element —
  /// the model's unit is a latency-bound data-dependent access (an arc
  /// touch), and a streamed sweep issues ~128/elem_bytes fewer of those.
  template <typename Body>
  void launch_streamed(const std::string& label, std::int64_t n_threads,
                       std::size_t elem_bytes, Body&& body) {
    begin_launch(label);
    if (n_threads > 0) {
      pool_.parallel_for_dynamic(
          n_threads, launch_grain(n_threads),
          [&](int, std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) body(i);
          });
    }
    if (ledger_) {
      const auto bytes = static_cast<std::uint64_t>(
                             std::max<std::int64_t>(n_threads, 0)) *
                         static_cast<std::uint64_t>(elem_bytes);
      ledger_->charge_gpu_kernel("kernel/" + label, (bytes + 127) / 128, 1.0);
    }
  }

  [[nodiscard]] std::uint64_t kernels_launched() const { return kernels_; }

  /// Metering context for one FUSED dispatch (see launch_fused).  Each
  /// stage*() call executes a constituent sweep on the worker pool with
  /// the same warp-aligned chunking as a standalone launch and records
  /// its metered work for the single charge_gpu_fused entry written when
  /// the dispatch ends.  Stages run sequentially — the implicit
  /// device-wide barrier between chained sweeps — so fusing never changes
  /// results, only metering.
  class Fused {
   public:
    /// Per-warp-metered stage (analogue of launch()): the body returns
    /// that logical thread's work units.
    template <typename Body>
    void stage(const std::string& name, std::int64_t n_threads,
               Body&& body) {
      if (n_threads <= 0) {
        stages_.push_back({name, 0, 1.0});
        return;
      }
      const int ws = dev_.config_.warp_size;
      const std::int64_t grain = dev_.launch_grain(n_threads);
      if (!dev_.ledger_) {
        dev_.pool_.parallel_for_dynamic(
            n_threads, grain, [&](int, std::int64_t b, std::int64_t e) {
              for (std::int64_t i = b; i < e; ++i) body(i);
            });
        return;
      }
      const auto n_warps =
          static_cast<std::size_t>((n_threads + ws - 1) / ws);
      dev_.warp_work_.assign(n_warps, 0);
      std::uint64_t* ww = dev_.warp_work_.data();
      dev_.pool_.parallel_for_dynamic(
          n_threads, grain, [&](int, std::int64_t b, std::int64_t e) {
            std::int64_t i = b;
            while (i < e) {
              const std::int64_t warp = i / ws;
              const std::int64_t warp_end =
                  std::min<std::int64_t>((warp + 1) * ws, e);
              std::uint64_t acc = 0;
              for (; i < warp_end; ++i) acc += body(i);
              ww[static_cast<std::size_t>(warp)] = acc;
            }
          });
      GpuFusedStage s;
      s.name = name;
      for (const auto w : dev_.warp_work_) s.work_units += w;
      s.imbalance = dev_.warp_imbalance();
      stages_.push_back(std::move(s));
    }

    /// Coalesced streaming stage (analogue of launch_streamed()): charged
    /// one unit per 128-byte transaction.
    template <typename Body>
    void stage_streamed(const std::string& name, std::int64_t n_threads,
                        std::size_t elem_bytes, Body&& body) {
      if (n_threads > 0) {
        dev_.pool_.parallel_for_dynamic(
            n_threads, dev_.launch_grain(n_threads),
            [&](int, std::int64_t b, std::int64_t e) {
              for (std::int64_t i = b; i < e; ++i) body(i);
            });
      }
      const auto bytes = static_cast<std::uint64_t>(
                             std::max<std::int64_t>(n_threads, 0)) *
                         static_cast<std::uint64_t>(elem_bytes);
      stages_.push_back({name, (bytes + 127) / 128, 1.0});
    }

    /// Executes `n_items` bodies with dynamic scheduling, one item per
    /// chunk, claimed in increasing index order — the scheduling
    /// guarantee the decoupled-lookback scoreboard's forward-progress
    /// argument rests on (scan.hpp).  No metering; pair with
    /// stage_metered for sweeps whose traffic is computed analytically.
    template <typename Body>
    void run_items(std::int64_t n_items, Body&& body) {
      if (n_items <= 0) return;
      dev_.pool_.parallel_for_dynamic(
          n_items, 1, [&](int, std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) body(i);
          });
    }

    /// Records a pre-metered stage (work computed by the caller).
    void stage_metered(const std::string& name, std::uint64_t work_units,
                       double imbalance = 1.0) {
      stages_.push_back({name, work_units, imbalance});
    }

    /// The dispatch's decoupled-look-back scoreboard (scan.hpp): per-tile
    /// aggregates, inclusive prefixes and status words.
    struct LookbackBoard {
      std::int64_t*  agg = nullptr;
      std::int64_t*  incl = nullptr;
      std::uint32_t* status = nullptr;
      /// The scan's tag in its status words (`epoch << 2 | state`).
      std::uint32_t  epoch = 0;
    };

    /// Starts one look-back scan over `n_tiles` tiles on the dispatch's
    /// single scoreboard.  The first call acquires it from the pool
    /// (zero-filled, so every word is epoch 0); a call needing more tiles
    /// replaces it with a larger one.  Each call advances the epoch, so
    /// an earlier scan's words never need re-zeroing.  Released when the
    /// dispatch ends.
    const LookbackBoard& lookback_board(std::int64_t n_tiles);

    ~Fused() { release_board(); }
    Fused(const Fused&) = delete;
    Fused& operator=(const Fused&) = delete;

   private:
    friend class Device;
    explicit Fused(Device& dev) : dev_(dev) {}
    void release_board() noexcept;

    Device&                    dev_;
    std::vector<GpuFusedStage> stages_;
    LookbackBoard              board_;
    std::int64_t               board_tiles_ = 0;
  };

  /// Meters a multi-stage kernel body as ONE dispatch (DESIGN.md §3.9):
  /// `fn(fused)` issues its sweeps through the Fused context, then the
  /// whole chain is charged via CostLedger::charge_gpu_fused — launch
  /// overhead and the low-occupancy ramp once, bandwidth per stage.
  /// Counts as one kernel for kernels_launched() and fault injection.
  template <typename Fn>
  void launch_fused(const std::string& label, Fn&& fn) {
    begin_launch(label);
    Fused fused(*this);
    fn(fused);
    if (ledger_) ledger_->charge_gpu_fused("kernel/" + label, fused.stages_);
  }

  // --- device-memory pool (used by DeviceBuffer's backing storage) ---
  // Size-bucketed free lists in the spirit of CUB's caching allocator:
  // per-level scratch (scan totals, contraction index arrays, refinement
  // gain buffers) is recycled across the V-cycle instead of re-allocated.
  // Blocks come back zero-filled, preserving cudaMalloc-the-simulated-way
  // (fresh std::vector) semantics exactly.  A block fresh from the host
  // allocator (calloc) is zero already; only a recycled block is memset
  // on acquire.

  /// Reserves `copies` blocks in every free list up to the bucket serving
  /// `max_bytes`; a reserved block comes from calloc at its first
  /// acquisition, which counts as a pool hit.  Drivers that know the
  /// level-0 working set (the largest buffer any level will request) call
  /// this once after device setup, so per-level allocations across the
  /// whole V-cycle hit the pool on first touch instead of warming it up
  /// one miss at a time — the cudaMallocAsync pool-reserve analogue.
  void pool_presize(std::size_t max_bytes, int copies = 2);

  /// Returns a zero-initialized block of at least `bytes` bytes.
  void* pool_acquire(std::size_t bytes);
  /// Returns a block obtained from pool_acquire with the same `bytes`.
  void pool_release(void* p, std::size_t bytes) noexcept;
  /// Frees every cached (currently unused) pool block.
  void pool_trim() noexcept;

  [[nodiscard]] std::uint64_t pool_hits() const { return pool_hits_; }
  [[nodiscard]] std::uint64_t pool_misses() const { return pool_misses_; }
  /// Bytes served from the pool without touching the host allocator.
  [[nodiscard]] std::uint64_t pool_recycled_bytes() const {
    return pool_recycled_bytes_;
  }
  /// Blocks acquired and not yet released.  Must drop back to zero once
  /// every DeviceBuffer is destroyed — including along exception paths
  /// (audit rollbacks, injected faults mid-kernel); tests assert it.
  [[nodiscard]] std::int64_t pool_outstanding_blocks() const {
    return pool_outstanding_;
  }

  /// Process-wide count of pool blocks still outstanding when their
  /// Device was destroyed.  Devices are per-run locals inside the
  /// drivers, so the service engine and the chaos oracle check leaks by
  /// snapshotting this counter around a run — it must not move.
  [[nodiscard]] static std::int64_t process_leaked_blocks();

  /// Optional per-run leak sink: the destructor adds any outstanding
  /// block count to `*sink` (drivers point it at their result's exec
  /// stats so leaks are attributed even on exception paths).  The sink
  /// must outlive the Device.
  void set_leak_sink(std::int64_t* sink) { leak_sink_ = sink; }

  /// Resets transfer/kernel counters (not allocations, not pool stats).
  void reset_counters();

  ~Device();

 private:
  /// Consults the injector (if any) for this operation; throws
  /// DeviceOutOfMemory / DeviceFailure when a fault fires.
  void check_fault(FaultSite site, const std::string& what);

  /// Non-template halves of launch(): fault check + kernel count, and
  /// the warp_work_ roll-up into the ledger.
  void begin_launch(const std::string& label);
  void finish_launch(const std::string& label);

  /// Capped max/mean imbalance of the warp_work_ scratch from the sweep
  /// that just ran (shared by finish_launch and Fused::stage).
  [[nodiscard]] double warp_imbalance() const;

  /// Warp-aligned dynamic chunk size for an n_threads-wide launch.
  [[nodiscard]] std::int64_t launch_grain(std::int64_t n_threads) const {
    const int ws = config_.warp_size;
    const auto target_chunks = static_cast<std::int64_t>(pool_.size()) * 8;
    std::int64_t g = (n_threads + target_chunks - 1) / target_chunks;
    g = ((g + ws - 1) / ws) * ws;  // whole warps per chunk
    return std::max<std::int64_t>(g, ws);
  }

  Config        config_;
  ThreadPool    pool_;
  CostLedger*   ledger_ = nullptr;
  FaultInjector* injector_ = nullptr;
  int           device_id_ = 0;
  std::size_t   allocated_ = 0;
  std::size_t   peak_ = 0;
  std::uint64_t h2d_bytes_ = 0;
  std::uint64_t d2h_bytes_ = 0;
  std::uint64_t kernels_ = 0;

  /// Per-launch warp metering scratch, reused across launches so the hot
  /// path performs no allocation.
  std::vector<std::uint64_t> warp_work_;

  /// Pool free lists indexed by power-of-two bucket (log2): recycled
  /// blocks, and null entries for pool_presize's reservations.
  std::vector<std::vector<void*>> pool_free_;
  std::uint64_t pool_hits_ = 0;
  std::uint64_t pool_misses_ = 0;
  std::uint64_t pool_recycled_bytes_ = 0;
  std::int64_t  pool_outstanding_ = 0;
  std::int64_t* leak_sink_ = nullptr;
};

}  // namespace gp
