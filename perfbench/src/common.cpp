#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace pb {

double process_cpu_seconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void Report::check(const std::string& what, const std::string& error) {
  ++attempted;
  if (!error.empty()) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED %s: %s\n", what.c_str(),
                 error.c_str());
  }
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void add_medians(Report& report,
                 const std::vector<std::vector<Metric>>& samples) {
  if (samples.empty()) return;
  for (std::size_t i = 0; i < samples.front().size(); ++i) {
    std::vector<double> v;
    for (const auto& s : samples) v.push_back(s[i].value);
    const Metric& m = samples.front()[i];
    report.add(m.name, median(v), m.unit);
    std::printf("stats: %s median=%.9g q1=%.9g q3=%.9g n=%zu\n",
                m.name.c_str(), median(v), quantile(v, 0.25),
                quantile(v, 0.75), v.size());
  }
}

std::uint64_t partition_fnv(const gp::Partition& p) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(p.where.data());
  const std::size_t n = p.where.size() * sizeof(gp::part_t);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::string check_result(const gp::CsrGraph& g, gp::part_t k, double eps,
                         const gp::PartitionResult& r,
                         std::optional<double> balance_slack) {
  if (r.partition.k != k) {
    return "partition has k=" + std::to_string(r.partition.k) +
           ", expected " + std::to_string(k);
  }
  std::string err =
      gp::validate_partition(g, r.partition, r.cut, r.balance);
  if (!err.empty()) return err;
  if (r.exec.pool_leaked_blocks != 0) {
    return "leaked " + std::to_string(r.exec.pool_leaked_blocks) +
           " device pool blocks";
  }
  if (balance_slack) {
    gp::wgt_t max_vw = 0;
    for (const gp::wgt_t w : g.vwgt()) max_vw = std::max(max_vw, w);
    const double granularity = static_cast<double>(k) *
                               static_cast<double>(max_vw) /
                               static_cast<double>(g.total_vertex_weight());
    const double limit = 1.0 + eps + granularity + *balance_slack;
    if (r.balance > limit + 1e-9) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "balance %.4f exceeds %.4f",
                    r.balance, limit);
      return buf;
    }
  }
  return {};
}

}  // namespace pb
