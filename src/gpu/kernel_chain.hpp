// A chain of device sweeps issued either as the stages of ONE fused
// dispatch (GpuScanMode::kLookback) or as one launch per sweep (kBlocked),
// DESIGN.md §3.9.  A kernel pipeline is written once against this class,
// so both modes run the same stage bodies in the same order and differ
// only in how the ledger meters them: byte-identity between the modes is
// structural, not a test hope.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "gpu/scan.hpp"

namespace gp {

class KernelChain {
 public:
  /// Sweeps become stages of `fused`.
  KernelChain(Device& dev, Device::Fused& fused) : dev_(dev), fused_(&fused) {}
  /// Sweeps become separate launches labelled `<prefix>/<name>`.
  KernelChain(Device& dev, std::string prefix)
      : dev_(dev), prefix_(std::move(prefix)) {}

  [[nodiscard]] Device& device() const { return dev_; }
  /// The fused dispatch's context, or null when sweeps launch separately.
  [[nodiscard]] Device::Fused* fused() const { return fused_; }
  /// A separate launch's label for sweep `name`.
  [[nodiscard]] std::string label(const std::string& name) const {
    return prefix_ + "/" + name;
  }

  /// Per-warp-metered sweep: the body returns its logical thread's work.
  template <typename Body>
  void sweep(const std::string& name, std::int64_t n_threads, Body&& body) {
    if (fused_) {
      fused_->stage(name, n_threads, body);
    } else {
      dev_.launch(label(name), n_threads, body);
    }
  }

  /// Coalesced streaming sweep, one unit per 128-byte transaction.
  template <typename Body>
  void streamed(const std::string& name, std::int64_t n_threads,
                std::size_t elem_bytes, Body&& body) {
    if (fused_) {
      fused_->stage_streamed(name, n_threads, elem_bytes, body);
    } else {
      dev_.launch_streamed(label(name), n_threads, elem_bytes, body);
    }
  }

  /// Order-preserving stream compaction over `n_tiles` caller-defined
  /// tiles: `tile_count(t)` counts tile t's selected elements,
  /// `tile_emit(t, first)` writes them from output position `first` on,
  /// and `tile_bytes(t)` is the element traffic one pass over tile t
  /// streams.  Returns the number selected.
  ///
  /// Fused, it is one look-back stage charged `lookback_units` of the
  /// summed tile bytes.  Separately launched, it is a count kernel, a
  /// blocked scan of the tile counts and an emit kernel, each tile
  /// charged one coalesced pass per kernel.
  template <typename Bytes, typename Count, typename Emit>
  std::int64_t compact(const std::string& name, std::int64_t n_tiles,
                       Bytes&& tile_bytes, Count&& tile_count,
                       Emit&& tile_emit) {
    if (fused_) {
      std::uint64_t bytes = 0;
      for (std::int64_t t = 0; t < n_tiles; ++t) bytes += tile_bytes(t);
      const std::int64_t total = lookback_tile_scan<std::int64_t>(
          *fused_, n_tiles, tile_count, tile_emit);
      fused_->stage_metered(name, lookback_units(bytes, n_tiles));
      return total;
    }
    if (n_tiles <= 0) return 0;
    auto units = [&](std::int64_t t) -> std::uint64_t {
      return (tile_bytes(t) + 127) / 128;
    };
    DeviceBuffer<std::int64_t> counts(
        dev_, static_cast<std::size_t>(n_tiles), name + "/counts");
    std::int64_t* cnt = counts.data();
    dev_.launch(label(name + "/count"), n_tiles,
                [&](std::int64_t t) -> std::uint64_t {
                  cnt[t] = tile_count(t);
                  return units(t);
                });
    const std::int64_t total = device_inclusive_scan(
        dev_, counts, label(name + "/scan"), GpuScanMode::kBlocked);
    dev_.launch(label(name + "/emit"), n_tiles,
                [&](std::int64_t t) -> std::uint64_t {
                  tile_emit(t, t == 0 ? std::int64_t{0} : cnt[t - 1]);
                  return units(t);
                });
    return total;
  }

 private:
  Device& dev_;
  Device::Fused* fused_ = nullptr;
  std::string prefix_;
};

/// Runs `fn(chain)` as one fused dispatch labelled `label` (kLookback) or
/// as separate launches labelled `<label>/<sweep>` (kBlocked).
template <typename Fn>
void run_chain(Device& dev, GpuScanMode mode, const std::string& label,
               Fn&& fn) {
  if (mode == GpuScanMode::kLookback) {
    dev.launch_fused(label, [&](Device::Fused& f) {
      KernelChain chain(dev, f);
      fn(chain);
    });
  } else {
    KernelChain chain(dev, label);
    fn(chain);
  }
}

}  // namespace gp
