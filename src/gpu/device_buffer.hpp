// Typed device memory with explicit host<->device copies.
//
// Mirrors cudaMalloc/cudaMemcpy discipline: host code moves data in and
// out through h2d()/d2h() (metered, capacity-checked); kernel bodies
// access the raw storage through data()/span().  Reading a DeviceBuffer
// from host code without d2h() is a bug by convention, just as
// dereferencing a device pointer on the host is in CUDA.
//
// Backing storage comes from the owning Device's size-bucketed pool (see
// Device::pool_acquire): per-level scratch is recycled across the V-cycle
// instead of hitting the host allocator, and arrives zero-initialized
// either way.  Element types must be trivially copyable — device memory
// is raw bytes, exactly as in CUDA.
#pragma once

#include <cassert>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "gpu/device.hpp"

namespace gp {

template <typename T>
class DeviceBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "device memory holds raw bytes; T must be trivially "
                "copyable (as in CUDA)");

 public:
  DeviceBuffer() = default;

  DeviceBuffer(Device& dev, std::size_t n, std::string label = "buf")
      : dev_(&dev), label_(std::move(label)), n_(n) {
    dev_->on_alloc(n * sizeof(T));  // capacity check / fault site first
    try {
      data_ = static_cast<T*>(dev_->pool_acquire(n * sizeof(T)));
    } catch (...) {
      // A throwing constructor runs no destructor: roll the capacity
      // accounting back here or the charge leaks for the device's
      // lifetime (and every later capacity check over-rejects).
      dev_->on_free(n * sizeof(T));
      throw;
    }
  }

  ~DeviceBuffer() { release(); }

  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  DeviceBuffer(DeviceBuffer&& o) noexcept { *this = std::move(o); }
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      release();
      dev_ = o.dev_;
      label_ = std::move(o.label_);
      data_ = o.data_;
      n_ = o.n_;
      o.dev_ = nullptr;
      o.data_ = nullptr;
      o.n_ = 0;
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }

  /// Device-side access (kernel bodies only, by convention).
  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::span<T> span() { return {data_, n_}; }
  [[nodiscard]] std::span<const T> span() const { return {data_, n_}; }

  /// Host -> device copy (metered).  A planned `flip` fault lands on the
  /// device-side copy, exactly like a bus/DRAM bit-flip on real hardware.
  void h2d(std::span<const T> host) {
    assert(host.size() == n_);
    if (!host.empty()) std::memcpy(data_, host.data(), host.size_bytes());
    metered_h2d();
  }

  /// Host -> device copy of a wider host array, narrowed element-wise
  /// while staging; the caller guarantees every value fits in T.  The bus
  /// carries sizeof(T) per element, and that is what is metered — the
  /// narrowing itself is host staging, like packing a pinned buffer.
  template <typename U>
  void h2d_narrow(std::span<const U> host) {
    assert(host.size() == n_);
    for (std::size_t i = 0; i < n_; ++i) data_[i] = static_cast<T>(host[i]);
    metered_h2d();
  }

  /// Device -> host copy (metered).  A planned `flip` fault lands on the
  /// host-side copy; the device data stays intact.
  void d2h(std::span<T> host) const {
    assert(host.size() == n_);
    if (n_ > 0) std::memcpy(host.data(), data_, n_ * sizeof(T));
    dev_->meter_d2h(n_ * sizeof(T), label_);
    if (dev_->has_fault_injector()) {
      dev_->maybe_corrupt_transfer(host.data(), n_ * sizeof(T),
                                   "d2h/" + label_);
    }
  }

  /// Device -> host into a fresh vector (metered).
  [[nodiscard]] std::vector<T> d2h_vector() const {
    std::vector<T> out(n_);
    d2h(out);
    return out;
  }

  /// Device-side fill — a real kernel launch: metered by the cost ledger
  /// (cudaMemset / fill kernels are not free on hardware either, though
  /// they run at streaming bandwidth — charged per 128-byte transaction)
  /// and visible to the fault injector like any other kernel.
  void fill(const T& value) {
    if (!dev_) return;
    T* p = data_;
    // "/fill" is appended (not prefixed) so a phase-qualified buffer label
    // like "coarsen/match/L0" keeps its phase as the leading segment for
    // per-phase label queries.
    dev_->launch_streamed(label_ + "/fill", static_cast<std::int64_t>(n_),
                          sizeof(T),
                          [p, value](std::int64_t i) { p[i] = value; });
  }

  /// Frees the device memory early (like cudaFree); the bytes go back to
  /// the owning device's pool.
  void release() noexcept {
    if (dev_) {
      dev_->on_free(n_ * sizeof(T));
      dev_->pool_release(data_, n_ * sizeof(T));
      data_ = nullptr;
      n_ = 0;
      dev_ = nullptr;
    }
  }

 private:
  void metered_h2d() {
    dev_->meter_h2d(n_ * sizeof(T), label_);
    if (dev_->has_fault_injector()) {
      dev_->maybe_corrupt_transfer(data_, n_ * sizeof(T), "h2d/" + label_);
    }
  }

  Device*     dev_ = nullptr;
  std::string label_;
  T*          data_ = nullptr;
  std::size_t n_ = 0;
};

/// Allocates a device buffer and uploads `host` in one step.
template <typename T>
DeviceBuffer<T> to_device(Device& dev, std::span<const T> host,
                          std::string label) {
  DeviceBuffer<T> buf(dev, host.size(), std::move(label));
  buf.h2d(host);
  return buf;
}

template <typename T>
DeviceBuffer<T> to_device(Device& dev, const std::vector<T>& host,
                          std::string label) {
  return to_device(dev, std::span<const T>(host.data(), host.size()),
                   std::move(label));
}

}  // namespace gp
