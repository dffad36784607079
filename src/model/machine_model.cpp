#include "model/machine_model.hpp"

#include <algorithm>
#include <cmath>

namespace gp {

CostEntry CostLedger::entry(const std::string& label) const {
  CostEntry e;
  e.label = label;
  e.phase = phase_;
  return e;
}

void CostLedger::push(CostEntry e) {
  total_ += e.seconds;
  entries_.push_back(std::move(e));
}

void CostLedger::charge_serial(const std::string& label,
                               std::uint64_t work_units) {
  CostEntry e = entry(label);
  e.work_units = work_units;
  e.seconds = static_cast<double>(work_units) / model_.cpu_work_rate;
  push(std::move(e));
}

void CostLedger::charge_mt_pass(
    const std::string& label,
    const std::vector<std::uint64_t>& per_thread_work) {
  std::uint64_t mx = 0;
  for (const auto w : per_thread_work) mx = std::max(mx, w);
  CostEntry e = entry(label);
  std::uint64_t sum = 0;
  for (const auto w : per_thread_work) sum += w;
  e.work_units = sum;
  const double avg =
      per_thread_work.empty()
          ? 0.0
          : static_cast<double>(sum) /
                static_cast<double>(per_thread_work.size());
  e.imbalance = (avg > 0) ? static_cast<double>(mx) / avg : 1.0;
  const double per_core_rate = model_.cpu_work_rate * model_.cpu_parallel_eff;
  e.seconds = static_cast<double>(mx) / per_core_rate + model_.cpu_barrier_s;
  push(std::move(e));
}

void CostLedger::charge_mt_dynamic_pass(const std::string& label,
                                        std::uint64_t total_work,
                                        std::uint64_t max_chunk_work,
                                        int num_threads) {
  CostEntry e = entry(label);
  e.work_units = total_work;
  const double avg = num_threads > 0 ? static_cast<double>(total_work) /
                                           static_cast<double>(num_threads)
                                     : 0.0;
  const double makespan =
      std::max(avg, static_cast<double>(max_chunk_work));
  e.imbalance = (avg > 0) ? makespan / avg : 1.0;
  const double per_core_rate = model_.cpu_work_rate * model_.cpu_parallel_eff;
  e.seconds = makespan / per_core_rate + model_.cpu_barrier_s;
  push(std::move(e));
}

void CostLedger::charge_gpu_kernel(const std::string& label,
                                   std::uint64_t total_work,
                                   double imbalance) {
  CostEntry e = entry(label);
  e.work_units = total_work;
  e.imbalance = std::max(1.0, imbalance);
  e.launches = 1;
  e.seconds =
      ((static_cast<double>(total_work) +
        (total_work > 0 ? model_.gpu_low_occupancy_tail_units : 0.0)) /
       model_.gpu_work_rate) *
          std::pow(e.imbalance, model_.gpu_imbalance_exp) +
      model_.gpu_kernel_launch_s;
  push(std::move(e));
}

void CostLedger::charge_gpu_fused(const std::string& label,
                                  const std::vector<GpuFusedStage>& stages) {
  // Header: the dispatch itself.  Launch overhead once, and ONE
  // low-occupancy ramp for the whole chained pipeline (stages hand work
  // over through the scoreboard without a device-wide drain, so the
  // machine fills once, not per stage).
  std::uint64_t total_work = 0;
  for (const auto& s : stages) total_work += s.work_units;
  CostEntry h = entry(label);
  h.launches = 1;
  h.seconds = model_.gpu_kernel_launch_s +
              (total_work > 0
                   ? model_.gpu_low_occupancy_tail_units / model_.gpu_work_rate
                   : 0.0);
  push(std::move(h));
  // Constituent sweeps: full-bandwidth work under each stage's own warp
  // imbalance — fusing saves dispatch overhead, never memory traffic.
  for (const auto& s : stages) {
    CostEntry e = entry(label + "/" + s.name);
    e.work_units = s.work_units;
    e.imbalance = std::max(1.0, s.imbalance);
    e.seconds = (static_cast<double>(s.work_units) / model_.gpu_work_rate) *
                std::pow(e.imbalance, model_.gpu_imbalance_exp);
    push(std::move(e));
  }
}

void CostLedger::charge_transfer(const std::string& label,
                                 std::uint64_t bytes) {
  CostEntry e = entry(label);
  e.phase = Phase::kTransfer;
  e.bytes = bytes;
  e.seconds = model_.pcie_latency_s +
              static_cast<double>(bytes) / model_.pcie_bw_bytes_per_s;
  push(std::move(e));
}

void CostLedger::charge_messages(const std::string& label,
                                 std::uint64_t num_messages,
                                 std::uint64_t bytes) {
  CostEntry e = entry(label);
  e.bytes = bytes;
  e.seconds = static_cast<double>(num_messages) * model_.net_alpha_s +
              static_cast<double>(bytes) * model_.net_beta_s_per_byte;
  push(std::move(e));
}

void CostLedger::charge_raw(const std::string& label, double seconds) {
  CostEntry e = entry(label);
  e.seconds = seconds;
  push(std::move(e));
}

void CostLedger::merge(const std::string& prefix, const CostLedger& other) {
  for (const auto& e : other.entries()) {
    CostEntry copy = e;
    copy.label = prefix + copy.label;
    push(std::move(copy));
  }
}

double CostLedger::seconds_in(Phase phase) const {
  double s = 0;
  for (const auto& e : entries_) {
    if (e.phase == phase) s += e.seconds;
  }
  return s;
}

double CostLedger::seconds_with_prefix(const std::string& prefix) const {
  double s = 0;
  for (const auto& e : entries_) {
    if (e.label.rfind(prefix, 0) == 0) s += e.seconds;
  }
  return s;
}

std::uint64_t CostLedger::bytes_with_prefix(const std::string& prefix) const {
  std::uint64_t b = 0;
  for (const auto& e : entries_) {
    if (e.label.rfind(prefix, 0) == 0) b += e.bytes;
  }
  return b;
}

std::uint64_t CostLedger::launches_with_prefix(const std::string& prefix) const {
  std::uint64_t n = 0;
  for (const auto& e : entries_) {
    if (e.label.rfind(prefix, 0) == 0) n += e.launches;
  }
  return n;
}

void CostLedger::clear() {
  entries_.clear();
  total_ = 0;
  phase_ = Phase::kNone;
}

std::string CostLedger::to_json() const {
  std::string out = "[\n";
  char buf[256];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& e = entries_[i];
    std::snprintf(buf, sizeof(buf),
                  "  {\"label\": \"%s\", \"seconds\": %.9g, "
                  "\"work_units\": %llu, \"bytes\": %llu, "
                  "\"imbalance\": %.4g}%s\n",
                  e.label.c_str(), e.seconds,
                  static_cast<unsigned long long>(e.work_units),
                  static_cast<unsigned long long>(e.bytes), e.imbalance,
                  i + 1 < entries_.size() ? "," : "");
    out += buf;
  }
  out += "]\n";
  return out;
}

}  // namespace gp
