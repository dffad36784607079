#include "passes.hpp"

#include <cstdio>
#include <exception>

#include "service/engine.hpp"

namespace pb {

PassRunner::PassRunner(const Workload& w) : w_(w) {
  for (const auto& s : kSystems) {
    systems_.push_back(gp::make_partitioner_by_name(s));
  }
}

namespace {

void accumulate(SystemSample& s, const gp::PartitionResult& r,
                double wall_s, double cpu_s) {
  s.wall_s += wall_s;
  s.cpu_s += cpu_s;
  s.modeled_s += r.modeled_seconds;
  s.cut += static_cast<double>(r.cut);
  s.phases.coarsen += r.phases.coarsen;
  s.phases.initpart += r.phases.initpart;
  s.phases.uncoarsen += r.phases.uncoarsen;
  s.phases.transfer += r.phases.transfer;
  s.levels += r.coarsen_levels;
  s.coarsest_n += r.coarsest_vertices;
  s.kernels_coarsen +=
      static_cast<double>(r.ledger.launches_with_prefix("kernel/coarsen/"));
  s.kernels_uncoarsen +=
      static_cast<double>(r.ledger.launches_with_prefix("kernel/uncoarsen/"));
  s.pool_hits += static_cast<double>(r.exec.pool_hits);
  s.pool_misses += static_cast<double>(r.exec.pool_misses);
  s.transfer_bytes +=
      static_cast<double>(r.ledger.bytes_with_prefix("transfer/"));
  s.comm_modeled_s += r.ledger.seconds_with_prefix("comm/");
  s.comm_bytes += static_cast<double>(r.ledger.bytes_with_prefix("comm/"));
}

}  // namespace

const SystemSample& PassResult::at(const std::string& system) const {
  static const SystemSample none;
  const auto it = systems.find(system);
  return it == systems.end() ? none : it->second;
}

std::vector<Metric> PassResult::end_to_end() const {
  std::vector<Metric> m;
  for (const auto& s : kSystems) {
    m.push_back({"cpu_s." + s, at(s).cpu_s, "s"});
  }
  for (const auto& s : kSystems) {
    m.push_back({"modeled_s." + s, at(s).modeled_s, "s"});
  }
  for (const auto& s : kSystems) {
    m.push_back({"cut." + s, at(s).cut, "edges"});
  }
  return m;
}

std::vector<Metric> PassResult::walls() const {
  std::vector<Metric> m;
  for (const auto& s : kSystems) {
    m.push_back({"wall_s." + s, at(s).wall_s, "s"});
  }
  return m;
}

std::vector<Metric> PassResult::layers() const {
  std::vector<Metric> m;
  for (const auto& s : kSystems) {
    const gp::PhaseSeconds& ph = at(s).phases;
    m.push_back({"model." + s + ".coarsen_s", ph.coarsen, "s"});
    m.push_back({"model." + s + ".initpart_s", ph.initpart, "s"});
    m.push_back({"model." + s + ".uncoarsen_s", ph.uncoarsen, "s"});
  }
  const SystemSample& gpu = at("gp-metis");
  const SystemSample& par = at("parmetis");
  m.push_back({"model.gp-metis.transfer_s", gpu.phases.transfer, "s"});
  for (const auto& s : kSystems) {
    m.push_back({"core." + s + ".levels", at(s).levels, "count"});
    m.push_back({"core." + s + ".coarsest_n", at(s).coarsest_n, "count"});
  }
  const double acquisitions = gpu.pool_hits + gpu.pool_misses;
  m.push_back({"gpu.kernels_coarsen", gpu.kernels_coarsen, "count"});
  m.push_back({"gpu.kernels_uncoarsen", gpu.kernels_uncoarsen, "count"});
  m.push_back({"gpu.pool_hit_ratio",
               acquisitions > 0 ? gpu.pool_hits / acquisitions : 0.0,
               "ratio"});
  m.push_back({"gpu.transfer_bytes", gpu.transfer_bytes, "B"});
  m.push_back({"par.comm_modeled_s", par.comm_modeled_s, "s"});
  m.push_back({"par.comm_bytes", par.comm_bytes, "B"});
  m.push_back({"par.wall_over_modeled",
               par.modeled_s > 0 ? par.wall_s / par.modeled_s : 0.0,
               "ratio"});
  return m;
}

PassResult PassRunner::run(int index, Report& report, Tracer& tracer) const {
  PassResult out;
  const auto t_pass = Clock::now();
  Scope pass_span(tracer, "pass " + std::to_string(index), "workload");
  const std::size_t ns = systems_.size();
  for (const auto& in : w_.graphs) {
    for (const gp::part_t k : in.ks) {
      const gp::PartitionOptions opts = w_.options(k);
      for (std::size_t j = 0; j < ns; ++j) {
        const std::size_t s = (j + static_cast<std::size_t>(index)) % ns;
        const std::string job =
            in.name + "/k" + std::to_string(k) + "/" + kSystems[s];
        Scope job_span(tracer, job, "job");
        std::string err;
        gp::PartitionResult r;
        const auto t0 = Clock::now();
        const double cpu0 = process_cpu_seconds();
        try {
          Scope run_span(tracer, "Partitioner::run", "run");
          r = systems_[s]->run(in.graph, opts);
        } catch (const std::exception& e) {
          err = std::string("threw: ") + e.what();
        }
        const double cpu = process_cpu_seconds() - cpu0;
        const double wall = seconds_since(t0);
        if (err.empty()) {
          err = check_result(in.graph, k, opts.eps, r, in.balance_slack);
        }
        report.check(w_.name + " " + job, err);
        out.job_wall_s.push_back(wall);
        if (!err.empty()) continue;
        ++out.valid_jobs;
        out.cpu_s += cpu;
        accumulate(out.systems[kSystems[s]], r, wall, cpu);
        if (tracer.enabled()) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "\"modeled_s\": %.9g, \"cut\": %lld, \"levels\": %d",
                        r.modeled_seconds, static_cast<long long>(r.cut),
                        r.coarsen_levels);
          job_span.set_args(buf);
        }
      }
    }
  }
  out.wall_s = seconds_since(t_pass);
  return out;
}

std::vector<IdentityRow> identity_replay(const Workload& w, Report& report) {
  std::vector<IdentityRow> rows;
  for (const char* name : {"metis", "mt-metis", "gp-metis"}) {
    const auto sys = gp::make_partitioner_by_name(name);
    for (const auto& in : w.graphs) {
      for (const gp::part_t k : in.ks) {
        gp::PartitionOptions opts = w.options(k);
        opts.threads = 1;
        opts.gpu_host_workers = 1;
        IdentityRow row{in.name, k, name, 0, 0};
        std::string err;
        try {
          const auto r = sys->run(in.graph, opts);
          err = check_result(in.graph, k, opts.eps, r, in.balance_slack);
          row.fnv = partition_fnv(r.partition);
          row.det_s = r.modeled_seconds;
        } catch (const std::exception& e) {
          err = std::string("threw: ") + e.what();
        }
        report.check(w.name + " identity " + in.name + "/" + name, err);
        rows.push_back(row);
      }
    }
  }
  return rows;
}

}  // namespace pb
