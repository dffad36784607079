#include "hybrid/gpu_driver.hpp"

#include <limits>
#include <utility>

#include "mt/mt_partitioner.hpp"
#include "serial/metis_partitioner.hpp"
#include "util/log.hpp"

namespace gp {

std::unique_ptr<Device> make_device(const PartitionOptions& opts,
                                    CostLedger* ledger,
                                    FaultInjector* injector, int id,
                                    PartitionResult& res) {
  Device::Config config;
  if (opts.gpu_memory_bytes > 0) config.memory_bytes = opts.gpu_memory_bytes;
  if (opts.gpu_host_workers > 0) config.host_workers = opts.gpu_host_workers;
  auto dev = std::make_unique<Device>(config);
  dev->set_ledger(ledger);
  dev->set_fault_injector(injector, id);
  dev->set_cancel_token(opts.cancel);
  dev->set_leak_sink(&res.exec.pool_leaked_blocks);
  return dev;
}

DeviceExecStats device_exec_stats(const Device& dev) {
  return {dev.kernels_launched(), dev.pool_hits(), dev.pool_misses(),
          dev.pool_recycled_bytes()};
}

bool upload_intact(const GpuGraph& dev, const HostCsr& host) {
  return upload_intact<idx_t, eid_t>(dev.adjp, host.adjp) &&
         upload_intact(dev.adjncy, host.adjncy) &&
         upload_intact<idx_t, wgt_t>(dev.adjwgt, host.adjwgt) &&
         upload_intact<idx_t, wgt_t>(dev.vwgt, host.vwgt);
}

bool device_csr_fits(const CsrGraph& g, const char* who, RunHealth& health) {
  constexpr wgt_t kMax = std::numeric_limits<idx_t>::max();
  const char* what = g.num_arcs() > kMax                ? "arc count"
                     : g.total_vertex_weight() > kMax   ? "total vertex weight"
                     : g.total_arc_weight() > kMax      ? "total arc weight"
                                                        : nullptr;
  if (what == nullptr) return true;
  health.note(std::string(who) + ": " + what +
              " exceeds the 32-bit device CSR; running on the CPU");
  log_warn("%s: %s does not fit the 32-bit device CSR; running on the CPU",
           who, what);
  return false;
}

void count_gpu_restart(PartitionResult& res, const char* label) {
  res.health.gpu_retries += 1;
  res.health.degraded = true;
  res.ledger.charge_raw(label, kDeviceResetSeconds);
}

void raise_handoff_after_oom(const char* who, const DeviceOutOfMemory& e,
                             vid_t n, vid_t& handoff, RunHealth& health) {
  const vid_t raised = handoff > n / 4 ? n : handoff * 4;
  health.note(std::string(who) + ": OOM (" + e.what() +
              "); retrying with CPU handoff at " + std::to_string(raised) +
              " vertices");
  log_warn("%s: device OOM, raising CPU handoff %d -> %d", who, handoff,
           raised);
  handoff = raised;
}

void pure_cpu_rung(const CsrGraph& g, const PartitionOptions& opts,
                   FaultInjector* injector, RefinementShed& shed,
                   const std::string& who, PartitionResult& res) {
  res.health.fallbacks += 1;
  res.health.degraded = true;
  try {
    ThreadPool pool(opts.threads);
    pool.set_cancel_token(opts.cancel);
    pool.set_fault_injector(injector);
    MtBackend backend(opts, MtContext{&pool, &res.ledger, opts.seed});
    vcycle_attempt(g, opts, backend,
                   VcycleControl{injector, &res.health, &shed}, res);
  } catch (const AuditError& e) {
    if (!injector) throw;
    serial_fallback(g, opts, injector, who, e, res);
  }
}

}  // namespace gp
