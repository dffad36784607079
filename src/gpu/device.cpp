#include "gpu/device.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "util/log.hpp"
#include "util/stats.hpp"

namespace gp {

Device::Device() : Device(Config{}) {}

Device::Device(Config config)
    : config_(config), pool_(std::max(1, config.host_workers)) {}

void Device::check_fault(FaultSite site, const std::string& what) {
  if (!injector_) return;
  switch (injector_->on_device_op(device_id_, site)) {
    case FaultInjector::Action::kNone:
      return;
    case FaultInjector::Action::kOom:
      throw DeviceOutOfMemory("injected allocation fault: " + what,
                              device_id_);
    case FaultInjector::Action::kFail:
      throw DeviceFailure("injected " + std::string(fault_site_name(site)) +
                              " fault on device " +
                              std::to_string(device_id_) + ": " + what,
                          device_id_);
  }
}

void Device::on_alloc(std::size_t bytes) {
  check_fault(FaultSite::kAlloc, std::to_string(bytes) + " bytes");
  // Injected capacity squeeze (`mem-cap=<bytes>`): the plan shrinks this
  // device below its configured memory so the pool's OOM path runs
  // mid-V-cycle.  Checked only when an injector is attached — unarmed
  // allocations pay nothing beyond the existing null test.
  if (injector_ != nullptr) {
    const std::size_t cap = injector_->mem_cap_bytes();
    if (cap != 0 && cap < config_.memory_bytes && allocated_ + bytes > cap) {
      injector_->note_mem_cap_hit(bytes, cap);
      throw DeviceOutOfMemory(
          "device allocation of " + std::to_string(bytes) +
              " bytes exceeds injected mem-cap (" +
              std::to_string(allocated_) + " of " + std::to_string(cap) +
              " bytes in use)",
          device_id_);
    }
  }
  if (allocated_ + bytes > config_.memory_bytes) {
    throw DeviceOutOfMemory("device allocation of " + std::to_string(bytes) +
                                " bytes exceeds capacity (" +
                                std::to_string(allocated_) + " of " +
                                std::to_string(config_.memory_bytes) +
                                " bytes in use)",
                            device_id_);
  }
  allocated_ += bytes;
  peak_ = std::max(peak_, allocated_);
}

void Device::on_free(std::size_t bytes) noexcept {
  if (bytes > allocated_) {
    // A free larger than the outstanding allocation means device code
    // double-freed (or the accounting was corrupted) — clamping silently
    // would hide the bug.
    log_warn("device %d: freeing %zu bytes with only %zu allocated "
             "(double free?)",
             device_id_, bytes, allocated_);
  }
  allocated_ -= std::min(allocated_, bytes);
}

void Device::meter_h2d(std::size_t bytes, const std::string& label) {
  check_fault(FaultSite::kH2D, label);
  h2d_bytes_ += bytes;
  if (ledger_) ledger_->charge_transfer("transfer/h2d/" + label, bytes);
}

void Device::meter_d2h(std::size_t bytes, const std::string& label) {
  check_fault(FaultSite::kD2H, label);
  d2h_bytes_ += bytes;
  if (ledger_) ledger_->charge_transfer("transfer/d2h/" + label, bytes);
}

void Device::maybe_corrupt_transfer(void* data, std::size_t bytes,
                                    const std::string& label) {
  if (!injector_ || bytes == 0 || !data) return;
  std::uint64_t material = 0;
  if (!injector_->corrupt_transfer(
          &material, label + " (device " + std::to_string(device_id_) + ")")) {
    return;
  }
  auto* p = static_cast<unsigned char*>(data);
  p[material % bytes] ^=
      static_cast<unsigned char>(1u << ((material >> 56) & 7u));
}

void Device::begin_launch(const std::string& label) {
  check_fault(FaultSite::kKernel, label);
  ++kernels_;
}

void Device::finish_launch(const std::string& label) {
  std::uint64_t total = 0;
  for (const auto w : warp_work_) total += w;
  ledger_->charge_gpu_kernel("kernel/" + label, total, warp_imbalance());
}

double Device::warp_imbalance() const {
  // Warp imbalance: max/mean, capped — a single pathological warp
  // cannot stall the whole device forever (other SMs keep working).
  return std::min(imbalance_factor(warp_work_), 8.0);
}

namespace {

/// Bytes of a look-back scoreboard over `n_tiles` tiles.
std::size_t board_bytes(std::int64_t n_tiles) {
  return static_cast<std::size_t>(n_tiles) *
         (2 * sizeof(std::int64_t) + sizeof(std::uint32_t));
}

}  // namespace

const Device::Fused::LookbackBoard& Device::Fused::lookback_board(
    std::int64_t n_tiles) {
  if (n_tiles > board_tiles_) {
    release_board();
    const std::size_t bytes = board_bytes(n_tiles);
    dev_.on_alloc(bytes);
    void* p;
    try {
      p = dev_.pool_acquire(bytes);
    } catch (...) {
      dev_.on_free(bytes);
      throw;
    }
    board_tiles_ = n_tiles;
    board_.agg = static_cast<std::int64_t*>(p);
    board_.incl = board_.agg + n_tiles;
    board_.status = reinterpret_cast<std::uint32_t*>(board_.incl + n_tiles);
  }
  ++board_.epoch;
  return board_;
}

void Device::Fused::release_board() noexcept {
  if (board_tiles_ == 0) return;
  const std::size_t bytes = board_bytes(board_tiles_);
  dev_.pool_release(board_.agg, bytes);
  dev_.on_free(bytes);
  board_tiles_ = 0;
}

namespace {

/// Pool bucket for a request: log2 of the smallest power of two >= bytes
/// (minimum bucket 256 bytes, so tiny counters share a list).
int pool_bucket(std::size_t bytes) {
  std::size_t cap = 256;
  int b = 8;
  while (cap < bytes) {
    cap <<= 1;
    ++b;
  }
  return b;
}

/// A block of 2^b bytes fresh from the host allocator: calloc hands it
/// out zero-filled (for large blocks, as untouched zero pages), so a
/// fresh block never needs the memset a recycled one does.
void* pool_calloc(int b) {
  void* p = std::calloc(std::size_t{1} << b, 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void Device::pool_presize(std::size_t max_bytes, int copies) {
  if (max_bytes == 0 || copies <= 0) return;
  const int top = pool_bucket(max_bytes);
  if (static_cast<std::size_t>(top) >= pool_free_.size()) {
    pool_free_.resize(static_cast<std::size_t>(top) + 1);
  }
  for (int b = 8; b <= top; ++b) {
    auto& list = pool_free_[static_cast<std::size_t>(b)];
    // A reservation is a null entry: its first acquisition takes a fresh
    // block, so a block no level asks for is never allocated or zeroed.
    list.resize(std::max(list.size(), static_cast<std::size_t>(copies)),
                nullptr);
  }
}

void* Device::pool_acquire(std::size_t bytes) {
  const int b = pool_bucket(bytes);
  if (static_cast<std::size_t>(b) >= pool_free_.size()) {
    pool_free_.resize(static_cast<std::size_t>(b) + 1);
  }
  auto& list = pool_free_[static_cast<std::size_t>(b)];
  void* p;
  if (!list.empty()) {
    p = list.back();
    list.pop_back();
    ++pool_hits_;
    pool_recycled_bytes_ += bytes;
    // Fresh-allocation semantics: callers see zeroed memory either way.
    // Only a block an earlier buffer wrote needs the fill.
    if (p == nullptr) {
      p = pool_calloc(b);
    } else {
      std::memset(p, 0, bytes);
    }
  } else {
    p = pool_calloc(b);
    ++pool_misses_;
  }
  ++pool_outstanding_;
  return p;
}

void Device::pool_release(void* p, std::size_t bytes) noexcept {
  if (!p) return;
  --pool_outstanding_;
  const int b = pool_bucket(bytes);
  if (static_cast<std::size_t>(b) >= pool_free_.size()) {
    pool_free_.resize(static_cast<std::size_t>(b) + 1);
  }
  try {
    pool_free_[static_cast<std::size_t>(b)].push_back(p);
  } catch (...) {
    std::free(p);
  }
}

void Device::pool_trim() noexcept {
  for (auto& list : pool_free_) {
    for (void* p : list) std::free(p);  // a reservation is null
    list.clear();
  }
}

namespace {
std::atomic<std::int64_t> g_process_leaked_blocks{0};
}  // namespace

std::int64_t Device::process_leaked_blocks() {
  return g_process_leaked_blocks.load(std::memory_order_acquire);
}

Device::~Device() {
  if (pool_outstanding_ != 0) {
    // A DeviceBuffer outlived its Device (or the accounting broke).  The
    // process-wide ledger is the surface the service engine and the chaos
    // oracle assert on; the per-run sink attributes the leak to a result.
    g_process_leaked_blocks.fetch_add(pool_outstanding_,
                                      std::memory_order_acq_rel);
    if (leak_sink_ != nullptr) *leak_sink_ += pool_outstanding_;
    log_warn("device %d destroyed with %lld pool blocks outstanding",
             device_id_, static_cast<long long>(pool_outstanding_));
  }
  pool_trim();
}

void Device::reset_counters() {
  h2d_bytes_ = 0;
  d2h_bytes_ = 0;
  kernels_ = 0;
}

}  // namespace gp
