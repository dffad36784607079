// Driver steps shared by the two GPU partitioners, gp-metis and
// gp-metis-multi (DESIGN.md §3.11): device setup, the transfer-integrity
// guard, restart accounting, the OOM rung and the pure-CPU rung.  Each
// driver keeps its own attempt body and its own policy for device faults
// and failed audits: gp-metis retries a transient fault and has a
// sort-merge rung, the multi-GPU driver drops a lost device.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <type_traits>

#include "core/vcycle.hpp"
#include "hybrid/gpu_graph.hpp"

namespace gp {

/// Modeled cost of recovering from a device fault before a retry: the
/// driver tears the context down and re-establishes it (cudaDeviceReset +
/// re-init is milliseconds on real hardware).
inline constexpr double kDeviceResetSeconds = 2e-3;

/// A GTX-Titan-like simulated device sized by `opts`, charging `ledger`,
/// answering the fault plan as device `id`, and reporting leaked pool
/// blocks into `res.exec`.
[[nodiscard]] std::unique_ptr<Device> make_device(const PartitionOptions& opts,
                                                  CostLedger* ledger,
                                                  FaultInjector* injector,
                                                  int id,
                                                  PartitionResult& res);

[[nodiscard]] DeviceExecStats device_exec_stats(const Device& dev);

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

/// The compact device CSR's fit guard, checked before a GPU driver's
/// first attempt: true when the arc count, the total vertex weight and the
/// total arc weight of `g` all fit the device's 32-bit `idx_t` (every
/// coarse level then fits too — contraction only merges).  Otherwise notes
/// why in `health`; the driver then goes straight to its pure-CPU rung.
[[nodiscard]] bool device_csr_fits(const CsrGraph& g, const char* who,
                                   RunHealth& health);

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

/// Books one restart of a GPU attempt: a retry, a degraded run, and the
/// modeled reset charged as `label`.
void count_gpu_restart(PartitionResult& res, const char* label);

/// The OOM rung: shrinks the device working set by handing off to the CPU
/// earlier — 4x the handoff, or the whole graph of `n` vertices once that
/// is within 4x.  Notes the retry as `who`.
void raise_handoff_after_oom(const char* who, const DeviceOutOfMemory& e,
                             vid_t n, vid_t& handoff, RunHealth& health);

/// The pure-CPU rung, counted as a fallback: the whole run on the mt
/// engine, then the serial fallback (corruption suppressed, reported as
/// `who`) if that fails an audit.  With no injector an AuditError is a
/// genuine bug and propagates, as in vcycle_run.
void pure_cpu_rung(const CsrGraph& g, const PartitionOptions& opts,
                   FaultInjector* injector, RefinementShed& shed,
                   const std::string& who, PartitionResult& res);

}  // namespace gp
