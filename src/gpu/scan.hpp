// Device-wide prefix sums — stand-in for CUB's DeviceScan, which the
// paper uses for the cmap construction ("the parallel inclusive-scan from
// the CUB library") and for the contraction index arrays.
//
// Two strategies (GpuScanMode, DESIGN.md §3.9):
//
//   kBlocked  — classic three-kernel blocked scan: (1) each block scans
//               its chunk and emits a block total, (2) block totals are
//               scanned, (3) block offsets are added back.  Degenerate
//               geometry (n fits one block) short-circuits to a single
//               launch with no totals scratch.
//
//   kLookback — single-pass decoupled look-back (Merrill & Garland):
//               each tile publishes its aggregate to a per-tile
//               descriptor scoreboard, walks back over predecessors
//               accumulating aggregates until it meets an inclusive
//               PREFIX descriptor, publishes its own inclusive prefix,
//               and writes its output — the whole device-wide scan is
//               ONE dispatch.  The generic stage form composes into
//               larger fused level pipelines (Device::launch_fused), and
//               one-dispatch partition/compact are built on it below.
//
// Both modes produce byte-identical results: integer prefix sums are
// exact regardless of blocking.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <type_traits>

#include "gpu/device_buffer.hpp"
#include "util/types.hpp"

namespace gp {

namespace scan_detail {

/// Look-back descriptor states.  A status word is `epoch << 2 | state`
/// (Device::Fused::LookbackBoard), so a word left by an earlier scan of
/// the dispatch, or a zero-filled one, reads as "not yet published".
inline constexpr std::uint32_t kAggregate = 1;  ///< tile-local aggregate available
inline constexpr std::uint32_t kPrefix = 2;     ///< inclusive prefix available

/// Blocked/tiled geometry shared by both modes: chunky enough to amortize
/// the per-tile bookkeeping, enough tiles to occupy the device.
inline std::int64_t scan_tile(std::int64_t n) {
  return std::max<std::int64_t>(1024, n / 256);
}

}  // namespace scan_detail

/// The look-back charge: one coalesced sweep over `bytes` of element
/// traffic plus a deterministic descriptor budget of 4 transactions per
/// tile (2 publishes + an expected look-back window of ~2 reads).  Actual
/// spin counts are host-scheduling noise and must not feed the model.
inline std::uint64_t lookback_units(std::uint64_t bytes, std::int64_t n_tiles) {
  return (bytes + 127) / 128 + static_cast<std::uint64_t>(n_tiles) * 4;
}

/// Decoupled-lookback scan over caller-defined tiles, run inside a fused
/// dispatch: `tile_sum(t)` returns tile t's aggregate, then
/// `tile_emit(t, exclusive)` writes the tile's outputs given the sum of
/// every earlier tile.  Returns the grand total.  Unmetered: the caller
/// charges the stage (see lookback_scan_stage for the rule).  A caller
/// whose sequence order is not a plain index range (a compaction in a
/// kernel's own visiting order) defines its tiles here and walks them
/// with nested loops.
///
/// The descriptors live in the dispatch's one scoreboard
/// (Fused::lookback_board), which every multi-tile scan of the dispatch
/// reuses under a fresh epoch.  A single tile has nothing to look back
/// at: it runs directly, with no scoreboard.
///
/// Forward progress on the simulated device: Fused::run_items hands tiles
/// to host workers in increasing index order (atomic chunk counter), so
/// the minimal in-flight tile's predecessors have all completed and its
/// look-back terminates without waiting; every spin therefore sits behind
/// a tile that can finish, at any host_workers count including 1 (where
/// tiles simply run in order and no spin ever blocks).
template <typename T, typename TileSum, typename TileEmit>
T lookback_tile_scan(Device::Fused& fused, std::int64_t n_tiles,
                     TileSum&& tile_sum, TileEmit&& tile_emit) {
  static_assert(std::is_integral_v<T> && sizeof(T) <= sizeof(std::int64_t),
                "scoreboard descriptors hold 64-bit integers");
  if (n_tiles <= 0) return T{};
  if (n_tiles == 1) {
    const T sum = tile_sum(0);
    tile_emit(0, T{});
    return sum;
  }
  const Device::Fused::LookbackBoard& board = fused.lookback_board(n_tiles);
  std::int64_t* A = board.agg;
  std::int64_t* I = board.incl;
  std::uint32_t* S = board.status;
  const std::uint32_t aggregate = board.epoch << 2 | scan_detail::kAggregate;
  const std::uint32_t prefix = board.epoch << 2 | scan_detail::kPrefix;

  fused.run_items(n_tiles, [&](std::int64_t t) {
    const T sum = tile_sum(t);
    T exclusive{};
    if (t == 0) {
      I[0] = sum;
      std::atomic_ref<std::uint32_t>(S[0]).store(prefix,
                                                 std::memory_order_release);
    } else {
      // Publish the tile aggregate first so successors spinning on this
      // tile can make progress while we look back ourselves.
      A[t] = sum;
      std::atomic_ref<std::uint32_t>(S[t]).store(aggregate,
                                                 std::memory_order_release);
      for (std::int64_t p = t - 1;; --p) {
        std::uint32_t st;
        while ((st = std::atomic_ref<std::uint32_t>(S[p]).load(
                    std::memory_order_acquire)) != aggregate &&
               st != prefix) {
          std::this_thread::yield();
        }
        // The acquire load above orders the publisher's plain value
        // stores before these plain reads — race-free.
        if (st == prefix) {
          exclusive += static_cast<T>(I[p]);
          break;
        }
        exclusive += static_cast<T>(A[p]);
      }
      I[t] = exclusive + sum;
      std::atomic_ref<std::uint32_t>(S[t]).store(prefix,
                                                 std::memory_order_release);
    }
    tile_emit(t, exclusive);
  });
  return static_cast<T>(I[n_tiles - 1]);
}

/// Generic decoupled-lookback inclusive-scan sweep, run as one stage of a
/// fused dispatch.  Scans the length-`n` sequence `load(0..n-1)`; for each
/// i calls `store(i, inclusive, exclusive)` with the inclusive prefix sum
/// through i and the exclusive sum before i.  Returns the grand total.
///
/// `load(i)` is invoked twice per element (aggregate pass + output pass) —
/// it must be a pure read.  `store(i, ...)` may overwrite the element
/// `load(i)` reads: within a tile the element is loaded before position i
/// is stored, and tiles are disjoint.
///
/// Charging (the honest single-pass rule): the element traffic is one
/// coalesced sweep — tile data lives in registers/shared memory on real
/// hardware while the look-back runs — plus a constant number of
/// descriptor transactions per tile (publish aggregate, publish prefix,
/// and a short expected look-back window).
template <typename T, typename Load, typename Store>
T lookback_scan_stage(Device::Fused& fused, const std::string& name,
                      std::int64_t n, std::size_t elem_bytes, Load&& load,
                      Store&& store) {
  if (n <= 0) {
    fused.stage_metered(name, 0);
    return T{};
  }
  const std::int64_t tile = scan_detail::scan_tile(n);
  const auto n_tiles = (n + tile - 1) / tile;
  const T total = lookback_tile_scan<T>(
      fused, n_tiles,
      [&](std::int64_t t) {
        const std::int64_t hi = std::min<std::int64_t>((t + 1) * tile, n);
        T sum{};
        for (std::int64_t i = t * tile; i < hi; ++i) sum += load(i);
        return sum;
      },
      [&](std::int64_t t, T run) {
        const std::int64_t hi = std::min<std::int64_t>((t + 1) * tile, n);
        for (std::int64_t i = t * tile; i < hi; ++i) {
          const T prev = run;
          run += load(i);
          store(i, run, prev);
        }
      });
  fused.stage_metered(name, lookback_units(static_cast<std::uint64_t>(n) *
                                               elem_bytes,
                                           n_tiles));
  return total;
}

/// In-place single-dispatch inclusive scan (look-back).  Returns the total.
template <typename T>
T device_scan_lookback(Device& dev, DeviceBuffer<T>& buf,
                       const std::string& label = "scan") {
  const auto n = static_cast<std::int64_t>(buf.size());
  if (n == 0) return T{};
  T* a = buf.data();
  T total{};
  dev.launch_fused(label, [&](Device::Fused& f) {
    total = lookback_scan_stage<T>(
        f, "lookback", n, sizeof(T),
        [a](std::int64_t i) { return a[i]; },
        [a](std::int64_t i, T inc, T) { a[i] = inc; });
  });
  return total;
}

/// In-place single-dispatch exclusive scan (look-back).  Returns the total.
template <typename T>
T device_scan_lookback_exclusive(Device& dev, DeviceBuffer<T>& buf,
                                 const std::string& label = "xscan") {
  const auto n = static_cast<std::int64_t>(buf.size());
  if (n == 0) return T{};
  T* a = buf.data();
  T total{};
  dev.launch_fused(label, [&](Device::Fused& f) {
    total = lookback_scan_stage<T>(
        f, "lookback", n, sizeof(T),
        [a](std::int64_t i) { return a[i]; },
        [a](std::int64_t i, T, T exc) { a[i] = exc; });
  });
  return total;
}

/// In-place device-wide inclusive scan.  Returns the total (last element).
template <typename T>
T device_inclusive_scan(Device& dev, DeviceBuffer<T>& buf,
                        const std::string& label = "scan",
                        GpuScanMode mode = GpuScanMode::kLookback) {
  if (mode == GpuScanMode::kLookback) {
    return device_scan_lookback(dev, buf, label);
  }
  const auto n = static_cast<std::int64_t>(buf.size());
  if (n == 0) return T{};
  T* a = buf.data();

  const std::int64_t block = scan_detail::scan_tile(n);
  const auto n_blocks = (n + block - 1) / block;

  if (n_blocks == 1) {
    // Degenerate geometry: the whole input is one block — a single launch
    // scans it; no totals scratch, no offset pass.
    dev.launch(label + "/block_scan", 1, [&](std::int64_t) {
      T sum{};
      for (std::int64_t i = 0; i < n; ++i) {
        sum += a[i];
        a[i] = sum;
      }
      return (static_cast<std::uint64_t>(n) * sizeof(T) + 127) / 128;
    });
    return a[n - 1];
  }

  DeviceBuffer<T> totals(dev, static_cast<std::size_t>(n_blocks),
                         label + "/totals");
  T* tot = totals.data();

  dev.launch(label + "/block_scan", n_blocks, [&](std::int64_t b) {
    const std::int64_t lo = b * block;
    const std::int64_t hi = std::min<std::int64_t>(lo + block, n);
    T sum{};
    for (std::int64_t i = lo; i < hi; ++i) {
      sum += a[i];
      a[i] = sum;
    }
    tot[b] = sum;
    // Sequential read-modify-write sweep: coalesced, one work unit per
    // 128-byte transaction (see Device::launch_streamed).
    return (static_cast<std::uint64_t>(hi - lo) * sizeof(T) + 127) / 128;
  });

  dev.launch(label + "/total_scan", 1, [&](std::int64_t) {
    T sum{};
    for (std::int64_t b = 0; b < n_blocks; ++b) {
      sum += tot[b];
      tot[b] = sum;
    }
    return static_cast<std::uint64_t>(n_blocks);
  });

  dev.launch(label + "/add_offsets", n_blocks, [&](std::int64_t b) {
    if (b == 0) return std::uint64_t{1};
    const T off = tot[b - 1];
    const std::int64_t lo = b * block;
    const std::int64_t hi = std::min<std::int64_t>(lo + block, n);
    for (std::int64_t i = lo; i < hi; ++i) a[i] += off;
    return (static_cast<std::uint64_t>(hi - lo) * sizeof(T) + 127) / 128;
  });

  return a[n - 1];
}

/// In-place device-wide exclusive scan.  Returns the total.
///
/// Blocked mode: same structure as the inclusive scan, but the final
/// shift is fused into the add-offsets pass — each block walks its chunk
/// backwards and writes a[i] = incl[i-1] + block_offset directly, so the
/// exclusive scan costs one kernel and zero scratch buffers more than the
/// block-total scan.
template <typename T>
T device_exclusive_scan(Device& dev, DeviceBuffer<T>& buf,
                        const std::string& label = "xscan",
                        GpuScanMode mode = GpuScanMode::kLookback) {
  if (mode == GpuScanMode::kLookback) {
    return device_scan_lookback_exclusive(dev, buf, label);
  }
  const auto n = static_cast<std::int64_t>(buf.size());
  if (n == 0) return T{};
  T* a = buf.data();

  const std::int64_t block = scan_detail::scan_tile(n);
  const auto n_blocks = (n + block - 1) / block;

  if (n_blocks == 1) {
    // Degenerate geometry: one launch, no totals scratch.  The total
    // lands in a host-visible cell the same way tot[n_blocks-1] did.
    T total{};
    dev.launch(label + "/block_scan", 1, [&](std::int64_t) {
      T sum{};
      for (std::int64_t i = 0; i < n; ++i) {
        const T v = a[i];
        a[i] = sum;
        sum += v;
      }
      total = sum;
      return (static_cast<std::uint64_t>(n) * sizeof(T) + 127) / 128;
    });
    return total;
  }

  DeviceBuffer<T> totals(dev, static_cast<std::size_t>(n_blocks),
                         label + "/totals");
  T* tot = totals.data();

  dev.launch(label + "/block_scan", n_blocks, [&](std::int64_t b) {
    const std::int64_t lo = b * block;
    const std::int64_t hi = std::min<std::int64_t>(lo + block, n);
    T sum{};
    for (std::int64_t i = lo; i < hi; ++i) {
      sum += a[i];
      a[i] = sum;
    }
    tot[b] = sum;
    // Sequential read-modify-write sweep: coalesced, one work unit per
    // 128-byte transaction (see Device::launch_streamed).
    return (static_cast<std::uint64_t>(hi - lo) * sizeof(T) + 127) / 128;
  });

  dev.launch(label + "/total_scan", 1, [&](std::int64_t) {
    T sum{};
    for (std::int64_t b = 0; b < n_blocks; ++b) {
      sum += tot[b];
      tot[b] = sum;
    }
    return static_cast<std::uint64_t>(n_blocks);
  });

  const T total = tot[n_blocks - 1];

  // Fused shift + add-offsets: walking backwards inside the block makes
  // the in-place neighbour read safe (a[i-1] is still the inclusive
  // value when a[i] is written; blocks are disjoint per logical thread).
  dev.launch(label + "/shift_add", n_blocks, [&](std::int64_t b) {
    const T off = (b == 0) ? T{} : tot[b - 1];
    const std::int64_t lo = b * block;
    const std::int64_t hi = std::min<std::int64_t>(lo + block, n);
    for (std::int64_t i = hi - 1; i > lo; --i) a[i] = a[i - 1] + off;
    a[lo] = off;
    return (static_cast<std::uint64_t>(hi - lo) * sizeof(T) + 127) / 128;
  });

  return total;
}

/// One-dispatch stream compaction (look-back select): copies the elements
/// of `in` satisfying `pred` into the front of `out` in order; returns
/// the number kept.  `out` must be at least as large as `in`.
template <typename T, typename Pred>
std::int64_t device_compact(Device& dev, const DeviceBuffer<T>& in,
                            DeviceBuffer<T>& out, Pred&& pred,
                            const std::string& label = "compact") {
  const auto n = static_cast<std::int64_t>(in.size());
  if (n == 0) return 0;
  const T* src = in.data();
  T* dst = out.data();
  std::int64_t kept = 0;
  dev.launch_fused(label, [&](Device::Fused& f) {
    kept = lookback_scan_stage<std::int64_t>(
        f, "select", n, sizeof(T),
        [&](std::int64_t i) -> std::int64_t { return pred(src[i]) ? 1 : 0; },
        [&](std::int64_t i, std::int64_t inc, std::int64_t) {
          if (pred(src[i])) dst[inc - 1] = src[i];
        });
  });
  return kept;
}

/// One-dispatch two-way partition (look-back): elements of `in`
/// satisfying `pred` go to the front of `out` in stable order; the rest
/// fill the back in REVERSE order (CUB DevicePartition semantics — the
/// rejects are written from the tail inward).  Returns the split point
/// (number of selected elements).
template <typename T, typename Pred>
std::int64_t device_partition(Device& dev, const DeviceBuffer<T>& in,
                              DeviceBuffer<T>& out, Pred&& pred,
                              const std::string& label = "partition") {
  const auto n = static_cast<std::int64_t>(in.size());
  if (n == 0) return 0;
  const T* src = in.data();
  T* dst = out.data();
  std::int64_t selected = 0;
  dev.launch_fused(label, [&](Device::Fused& f) {
    selected = lookback_scan_stage<std::int64_t>(
        f, "partition", n, sizeof(T),
        [&](std::int64_t i) -> std::int64_t { return pred(src[i]) ? 1 : 0; },
        [&](std::int64_t i, std::int64_t inc, std::int64_t exc) {
          if (pred(src[i])) {
            dst[inc - 1] = src[i];
          } else {
            // i - exc rejects precede this one; fill from the tail.
            dst[n - 1 - (i - exc)] = src[i];
          }
        });
  });
  return selected;
}

}  // namespace gp
