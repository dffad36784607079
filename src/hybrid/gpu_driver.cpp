#include "hybrid/gpu_driver.hpp"

#include <limits>
#include <utility>

#include "mt/mt_partitioner.hpp"
#include "util/log.hpp"

namespace gp {

namespace {

/// Modeled cost of recovering from a device fault before a retry: the
/// driver tears the context down and re-establishes it (cudaDeviceReset +
/// re-init is milliseconds on real hardware).
constexpr double kDeviceResetSeconds = 2e-3;

/// The compact device CSR's fit guard: true when the arc count, the total
/// vertex weight and the total arc weight of `g` all fit the device's
/// 32-bit `idx_t` (every coarse level then fits too — contraction only
/// merges).  Otherwise notes why in `health`.
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

}  // namespace

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

GpuGraph upload_graph(Device& dev, const HostCsr& host,
                      const std::string& label, const BusGuard& guard) {
  GpuGraph g = GpuGraph::upload(dev, host, label);
  audit_transfer(guard, g, host, AuditFailure::Kind::kCsr,
                 label + ": device copy on gpu " +
                     std::to_string(dev.device_id()) +
                     " differs from its host source");
  return g;
}

GpuLadderOutcome run_gpu_ladder(
    const CsrGraph& g, const PartitionOptions& opts, FaultInjector* injector,
    const GpuRungs& rungs, PartitionResult& res,
    const std::function<void(vid_t handoff, const VcycleControl& control)>&
        attempt) {
  const Watchdog watchdog(opts.time_budget_seconds);
  RefinementShed shed(watchdog, res.health);
  const VcycleControl control{injector, &res.health, &shed};
  const vid_t n = g.num_vertices();
  vid_t handoff =
      std::max<vid_t>(opts.gpu_cpu_threshold, opts.coarsen_target());
  GpuLadderOutcome out;
  int oom_retries = 0;
  int task_faults = 0;
  int audit_failures = 0;
  auto say = [&](const std::string& what) {
    res.health.note(rungs.who + (": " + what));
    log_warn("%s: %s", rungs.who, what.c_str());
  };
  // A restart is a retry, a degraded run, and a modeled device reset.
  auto restart = [&](const char* label) {
    res.health.gpu_retries += 1;
    res.health.degraded = true;
    res.ledger.charge_raw(label, kDeviceResetSeconds);
  };
  const bool fits = device_csr_fits(g, rungs.who, res.health);
  while (fits && !out.on_gpu && out.attempts < rungs.max_attempts) {
    ++out.attempts;
    try {
      attempt(handoff, control);
      out.on_gpu = true;
    } catch (const DeviceOutOfMemory& e) {
      restart("fault/device-reset");
      // Once the handoff covers the whole graph the GPU does no level at
      // all, so further retries cannot help.
      if (++oom_retries > kMaxGpuOomRetries || handoff >= n) {
        say(std::string("OOM retries exhausted (") + e.what() + ")");
        break;
      }
      handoff = handoff > n / 4 ? n : handoff * 4;
      say(std::string("OOM (") + e.what() + "); retrying with CPU handoff at " +
          std::to_string(handoff) + " vertices");
    } catch (const DeviceFailure& e) {
      restart("fault/device-reset");
      if (!rungs.device_failed(e)) break;
    } catch (const ThreadPoolTaskError& e) {
      // Injected `task` fault in a CPU phase: the attempt unwound at a job
      // boundary, so restart it once; occurrence counters keep advancing,
      // so a one-shot rule cannot refire.
      restart("fault/task-restart");
      if (++task_faults > 1) {
        say(std::string("repeated pool task fault (") + e.what() +
            "); leaving the GPU");
        break;
      }
      say(std::string("pool task fault (") + e.what() +
          "); restarting the attempt");
    } catch (const AuditError& e) {
      // Damage beyond level scope.  Without an injector it is a genuine
      // logic bug — never mask it behind a fallback.
      if (!injector) throw;
      ++res.health.rollbacks;
      restart("fault/device-reset");
      if (++audit_failures > 1 || watchdog.expired()) {
        say(std::string("audit failed again or past the time budget (") +
            e.what() + "); leaving the GPU");
        break;
      }
      res.health.note(std::string("rollback: ") + rungs.who +
                      " attempt restarted after failed audit (" + e.what() +
                      ")");
    }
  }
  if (!out.on_gpu) {
    say("no usable GPU path after " + std::to_string(out.attempts) +
        " attempt(s); degrading to a pure mt-metis run");
    res.health.fallbacks += 1;
    res.health.degraded = true;
    ThreadPool pool(opts.threads);
    pool.set_cancel_token(opts.cancel);
    pool.set_fault_injector(injector);
    MtBackend backend(opts, MtContext{&pool, &res.ledger, opts.seed});
    vcycle_run(g, opts, backend, control, res);
  }
  return out;
}

}  // namespace gp
