// CUDA-style atomics for kernel bodies, built on C++20 std::atomic_ref.
// The refinement buffers use atomic_add on a counter exactly as the paper
// describes ("it atomically increments the counter S by one"), and the
// matching kernels rely on plain racy loads/stores — provided here as
// volatile-like relaxed accessors to make the intent explicit.
#pragma once

#include <atomic>

namespace gp {

/// atomicAdd(addr, v): returns the previous value.
template <typename T>
T atomic_add(T& target, T value) {
  std::atomic_ref<T> ref(target);
  return ref.fetch_add(value, std::memory_order_relaxed);
}

/// atomicMax(addr, v): returns the previous value.
template <typename T>
T atomic_max(T& target, T value) {
  std::atomic_ref<T> ref(target);
  T prev = ref.load(std::memory_order_relaxed);
  while (prev < value &&
         !ref.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
  return prev;
}

/// Racy (lock-free, unsynchronized) load — the paper's matching kernel
/// reads the shared match vector without synchronization.
template <typename T>
T racy_load(const T& target) {
  std::atomic_ref<const T> ref(target);
  return ref.load(std::memory_order_relaxed);
}

/// Racy (lock-free, unsynchronized) store.
template <typename T>
void racy_store(T& target, T value) {
  std::atomic_ref<T> ref(target);
  ref.store(value, std::memory_order_relaxed);
}

}  // namespace gp
