// Driver steps shared by the two GPU partitioners, gp-metis and
// gp-metis-multi (DESIGN.md §3.11): device setup, the transfer-integrity
// guard, the uncoarsening launch width, and the one attempt ladder both
// drivers run their attempts under.  The ladder's shared rungs are the
// OOM handoff raise, one restart after a pool-task fault, one restart
// after a failed audit, and the pure-CPU rung; each driver adds its own
// rungs for a device fault (gp-metis retries a transient fault,
// gp-metis-multi drops the lost device and redistributes) and for a
// repeated audit failure (gp-metis's sort-merge contraction).
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>

#include "core/vcycle.hpp"
#include "hybrid/gpu_graph.hpp"

namespace gp {

/// A GTX-Titan-like simulated device sized by `opts`, charging `ledger`,
/// answering the fault plan as device `id`, and reporting leaked pool
/// blocks into `res.exec`.
[[nodiscard]] std::unique_ptr<Device> make_device(const PartitionOptions& opts,
                                                  CostLedger* ledger,
                                                  FaultInjector* injector,
                                                  int id,
                                                  PartitionResult& res);

[[nodiscard]] DeviceExecStats device_exec_stats(const Device& dev);

/// Launch width of an uncoarsening level whose fine graph has `fine_n`
/// vertices (per device): the configured width, but at least 256 threads
/// and no more threads than vertices beyond that.
[[nodiscard]] inline std::int64_t uncoarsen_launch_width(
    const PartitionOptions& opts, vid_t fine_n) {
  return std::min<std::int64_t>(opts.gpu_threads,
                                std::max<std::int64_t>(256, fine_n));
}

/// True when the device copy reads back equal to its host source, value
/// by value (a compact device array is compared with its wider host
/// source).  Every read-back is a metered d2h and a flip site; a graph's
/// arrays are read back in order and the reads stop at the first array
/// that differs.
template <typename T, typename U = T>
bool upload_intact(const DeviceBuffer<T>& dev,
                   std::type_identity_t<std::span<const U>> host) {
  const auto back = dev.d2h_vector();
  return std::equal(back.begin(), back.end(), host.begin(), host.end());
}
bool upload_intact(const GpuGraph& dev, const HostCsr& host);

/// A check on data that crossed the bus, made before anything indexes
/// through it.  With audits on it is an audit.  With audits off it runs
/// only when an injector is attached (nothing flips a bit otherwise),
/// counts no audit, and throws the AuditError the audit would throw.
struct BusGuard {
  AuditLevel level;
  const FaultInjector* injector;
  RunHealth* health;

  [[nodiscard]] bool on() const {
    return level != AuditLevel::kOff || injector != nullptr;
  }
  void require(AuditFailure f) const {
    if (level == AuditLevel::kOff && !f.ok()) throw AuditError(std::move(f));
    if (level != AuditLevel::kOff) require_audit(health, std::move(f));
  }
};

/// Transfer-integrity guard of an upload: the kernels index through the
/// device copy, so a flipped bit there must be caught before any kernel
/// consumes it, not as an out-of-bounds access afterwards.
template <typename Dev, typename Host>
void audit_transfer(const BusGuard& guard, const Dev& dev, const Host& host,
                    AuditFailure::Kind kind, const std::string& detail) {
  if (!guard.on()) return;
  guard.require(upload_intact(dev, host)
                    ? AuditFailure{}
                    : AuditFailure{kind, "transfer-integrity", detail});
}

/// Guarded uploads: `host` goes to the device as `label`, then
/// audit_transfer checks the copy, since kernels index through it.  An
/// array gets at least one slot.
GpuGraph upload_graph(Device& dev, const HostCsr& host,
                      const std::string& label, const BusGuard& guard);
template <typename T>
DeviceBuffer<T> upload_array(Device& dev, std::span<const T> host,
                             const std::string& label, const BusGuard& guard,
                             AuditFailure::Kind kind) {
  DeviceBuffer<T> buf(dev, std::max<std::size_t>(1, host.size()), label);
  if (host.empty()) return buf;
  buf.h2d(host);
  audit_transfer(guard, buf, host, kind,
                 label + ": device copy on gpu " +
                     std::to_string(dev.device_id()) +
                     " differs from its host source");
  return buf;
}

/// OOM retries of the attempt ladder; each raises the CPU handoff.
inline constexpr int kMaxGpuOomRetries = 2;

/// A GPU driver's own rungs of the attempt ladder.
struct GpuRungs {
  const char* who;  ///< names the driver in health events
  int max_attempts;
  /// After a DeviceFailure: true tries the GPU again, false leaves it.
  std::function<bool(const DeviceFailure&)> device_failed;
  /// After a second failed audit: true tries once more on a safer path,
  /// false (or empty) leaves the GPU.
  std::function<bool(const AuditError&)> audit_failed_again;
};

struct GpuLadderOutcome {
  int attempts = 0;
  bool on_gpu = false;  ///< false: the pure-CPU rung produced the result
};

/// Runs `attempt(handoff, control)` until one succeeds or the ladder
/// leaves the GPU, then the pure-CPU rung (the mt V-cycle, then the serial
/// fallback).  Every restart is a GPU retry, charged as a modeled device
/// reset.  `handoff` starts at the CPU-handoff level size, and an OOM
/// raises it (4x, or the whole graph).  A task fault and a failed audit
/// each earn one restart; an AuditError with no injector attached is a
/// genuine bug and propagates, as from vcycle_run.  The pure-CPU rung
/// restarts once after a task fault too, as vcycle_run does.  A graph
/// whose CSR does not fit the device's 32-bit arrays goes straight to the
/// CPU.
GpuLadderOutcome run_gpu_ladder(
    const CsrGraph& g, const PartitionOptions& opts, FaultInjector* injector,
    const GpuRungs& rungs, PartitionResult& res,
    const std::function<void(vid_t handoff, const VcycleControl& control)>&
        attempt);

}  // namespace gp
