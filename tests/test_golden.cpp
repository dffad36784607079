// Golden regression table for the deterministic single-thread
// configuration (delaunay 1/256, seed 7, k 8, threads 1, ranks 1, one
// device worker): the configuration bench_e2e's "determinism" section and
// perfbench's identity lines use.
//
// Per system and per `--gpu-scan` mode the table pins the partition FNV,
// the cut and a fingerprint of the full cost ledger (every row's label,
// launches, work, bytes and the bit pattern of its modeled seconds), so a
// refactor that moves a charge, renames a label or reorders rows fails
// here even when the partition is unchanged.  Two more tables pin the
// serial and mt V-cycles off the happy path: on a graph whose coarsening
// stalls, and under `--audit phase --fault-spec cmap@0` (the complete
// RunHealth record too), which walks the corruption site, the
// contraction audit and the level rollback.
//
// A legitimate algorithm change may move these values: update them
// consciously, together with the determinism section of BENCH_e2e.json.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "gen/generators.hpp"

namespace gp {
namespace {

class Fnv {
 public:
  void add(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void add_value(const T& v) {
    add(&v, sizeof(T));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::uint64_t partition_fnv(const Partition& p) {
  Fnv f;
  f.add(p.where.data(), p.where.size() * sizeof(part_t));
  return f.value();
}

/// Fingerprint of the ledger rows, skipping row `skip` (npos = none).
std::uint64_t ledger_fnv(const CostLedger& ledger,
                         std::size_t skip = std::string::npos) {
  Fnv f;
  const auto& rows = ledger.entries();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i == skip) continue;
    const CostEntry& e = rows[i];
    f.add(e.label.data(), e.label.size() + 1);  // include the terminator
    f.add_value(e.launches);
    f.add_value(e.work_units);
    f.add_value(e.bytes);
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(e.seconds));
    std::memcpy(&bits, &e.seconds, sizeof(bits));
    f.add_value(bits);
  }
  return f.value();
}

PartitionOptions golden_options() {
  PartitionOptions opts;
  opts.k = 8;
  opts.seed = 7;
  opts.threads = 1;
  opts.ranks = 1;
  opts.gpu_host_workers = 1;
  opts.gpu_cpu_threshold = 1024;
  return opts;
}

const CsrGraph& golden_graph() {
  static const CsrGraph g = make_paper_graph("delaunay", 1.0 / 256.0, 7);
  return g;
}

std::string test_name(std::string s) {
  for (auto& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

// --- fault-free runs: partition, cut and ledger per system and scan mode ---

struct GoldenRun {
  const char* system;
  std::unique_ptr<Partitioner> (*make)();
  GpuScanMode scan;
  std::uint64_t fnv;
  wgt_t cut;
  std::uint64_t ledger;
};

void PrintTo(const GoldenRun& run, std::ostream* os) { *os << run.system; }

class Golden : public ::testing::TestWithParam<GoldenRun> {};

TEST_P(Golden, SingleThreadRunMatchesPin) {
  const GoldenRun& gold = GetParam();
  PartitionOptions opts = golden_options();
  opts.gpu_scan = gold.scan;
  const auto sys = gold.make();
  const auto r1 = sys->run(golden_graph(), opts);
  const auto r2 = sys->run(golden_graph(), opts);
  // Byte-compare across in-process runs before comparing to the pin.
  ASSERT_EQ(r1.partition.where, r2.partition.where) << gold.system;
  EXPECT_EQ(partition_fnv(r1.partition), gold.fnv)
      << "deterministic partition drifted for " << gold.system;
  EXPECT_EQ(r1.cut, gold.cut) << gold.system;
  EXPECT_EQ(ledger_fnv(r1.ledger), gold.ledger)
      << "ledger rows drifted for " << gold.system << " ("
      << r1.ledger.entries().size() << " rows)";
  EXPECT_EQ(ledger_fnv(r2.ledger), ledger_fnv(r1.ledger)) << gold.system;
}

// The partition and the cut are the same in both scan modes; only
// gp-metis's ledger differs (the fused pipelines charge fewer launches).
INSTANTIATE_TEST_SUITE_P(
    GoldenRuns, Golden,
    ::testing::Values(
        GoldenRun{"metis", &make_serial_partitioner, GpuScanMode::kBlocked,
                  16254912780744818177ULL, 498, 9678032076033456779ULL},
        GoldenRun{"metis", &make_serial_partitioner, GpuScanMode::kLookback,
                  16254912780744818177ULL, 498, 9678032076033456779ULL},
        GoldenRun{"parmetis", &make_par_partitioner, GpuScanMode::kBlocked,
                  3681740895285960291ULL, 532, 17943250799610126445ULL},
        GoldenRun{"parmetis", &make_par_partitioner, GpuScanMode::kLookback,
                  3681740895285960291ULL, 532, 17943250799610126445ULL},
        GoldenRun{"mt-metis", &make_mt_partitioner, GpuScanMode::kBlocked,
                  7355817695509169360ULL, 570, 9812347408540548577ULL},
        GoldenRun{"mt-metis", &make_mt_partitioner, GpuScanMode::kLookback,
                  7355817695509169360ULL, 570, 9812347408540548577ULL},
        GoldenRun{"gp-metis", &make_hybrid_partitioner, GpuScanMode::kBlocked,
                  5153263865161350000ULL, 604, 13460664073750141993ULL},
        GoldenRun{"gp-metis", &make_hybrid_partitioner, GpuScanMode::kLookback,
                  5153263865161350000ULL, 604, 7448877455917731465ULL}),
    [](const ::testing::TestParamInfo<GoldenRun>& info) {
      return test_name(info.param.system) +
             (info.param.scan == GpuScanMode::kBlocked ? "_blocked"
                                                       : "_lookback");
    });

// --- a stalling V-cycle: coarsening stops on the power-law graph ---

struct GoldenStallRun {
  const char* system;
  std::unique_ptr<Partitioner> (*make)();
  std::uint64_t fnv;
  std::uint64_t ledger;
};

void PrintTo(const GoldenStallRun& run, std::ostream* os) {
  *os << run.system;
}

class GoldenStall : public ::testing::TestWithParam<GoldenStallRun> {};

// HEM stops shrinking an RMAT graph well above the coarsening target, so
// the last matching is thrown away.  Serial metis never meters that
// matching; mt-metis's matcher charges its own passes as it runs.
TEST_P(GoldenStall, StalledCoarseningMatchesPin) {
  const GoldenStallRun& gold = GetParam();
  const CsrGraph g = rmat_graph(11, 8192, 7);
  const auto r = gold.make()->run(g, golden_options());
  EXPECT_GT(r.coarsest_vertices, golden_options().coarsen_target())
      << "the graph no longer stalls coarsening; pick another";
  EXPECT_EQ(partition_fnv(r.partition), gold.fnv) << gold.system;
  EXPECT_EQ(ledger_fnv(r.ledger), gold.ledger)
      << "ledger rows drifted for " << gold.system << " ("
      << r.ledger.entries().size() << " rows)";
}

INSTANTIATE_TEST_SUITE_P(
    GoldenStallRuns, GoldenStall,
    ::testing::Values(
        GoldenStallRun{"metis", &make_serial_partitioner,
                       6562588080788757955ULL, 2794797509905178910ULL},
        GoldenStallRun{"mt-metis", &make_mt_partitioner,
                       8453887192926884678ULL, 9184855005487544581ULL}),
    [](const ::testing::TestParamInfo<GoldenStallRun>& info) {
      return test_name(info.param.system);
    });

// --- cmap@0 under phase audits: the V-cycle's corruption/rollback chain ---

struct GoldenCmapRun {
  const char* system;
  std::unique_ptr<Partitioner> (*make)();
  std::uint64_t fnv;
  wgt_t cut;
  std::uint64_t ledger;
  /// The ledger without the last `coarsen/contract/L0` row (the reference
  /// re-contraction of the rolled-back level).  mt-metis once charged
  /// nothing for that step; this pins that the metering fix added exactly
  /// that one row and changed nothing else.  0 = not checked.
  std::uint64_t ledger_unmetered;
  /// faults_injected, gpu_retries, devices_lost, messages_dropped,
  /// messages_resent, match_repairs, payload_discards, fallbacks,
  /// audits_run, audits_failed, rollbacks, corruptions_injected, degraded
  std::vector<std::uint64_t> counters;
  std::vector<std::string> events;
};

std::vector<std::uint64_t> health_counters(const RunHealth& h) {
  return {h.faults_injected,  h.gpu_retries,     h.devices_lost,
          h.messages_dropped, h.messages_resent, h.match_repairs,
          h.payload_discards, h.fallbacks,       h.audits_run,
          h.audits_failed,    h.rollbacks,       h.corruptions_injected,
          h.degraded ? 1ULL : 0ULL};
}

void PrintTo(const GoldenCmapRun& run, std::ostream* os) {
  *os << run.system;
}

class GoldenCmap : public ::testing::TestWithParam<GoldenCmapRun> {};

TEST_P(GoldenCmap, CorruptedLevelRollbackMatchesPin) {
  const GoldenCmapRun& gold = GetParam();
  PartitionOptions opts = golden_options();
  opts.audit_level = AuditLevel::kPhase;
  opts.fault_spec = "cmap@0";
  const auto r = gold.make()->run(golden_graph(), opts);
  EXPECT_EQ(partition_fnv(r.partition), gold.fnv) << gold.system;
  EXPECT_EQ(r.cut, gold.cut) << gold.system;
  EXPECT_EQ(health_counters(r.health), gold.counters) << gold.system;
  EXPECT_EQ(r.health.events, gold.events) << gold.system;
  EXPECT_EQ(ledger_fnv(r.ledger), gold.ledger)
      << "ledger rows drifted for " << gold.system << " ("
      << r.ledger.entries().size() << " rows)";
  if (gold.ledger_unmetered != 0) {
    const auto& rows = r.ledger.entries();
    std::size_t recontract = std::string::npos;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].label == "coarsen/contract/L0") recontract = i;
    }
    ASSERT_NE(recontract, std::string::npos) << gold.system;
    EXPECT_EQ(ledger_fnv(r.ledger, recontract), gold.ledger_unmetered)
        << gold.system;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GoldenCmapRuns, GoldenCmap,
    ::testing::Values(
        GoldenCmapRun{
            "metis",
            &make_serial_partitioner,
            16254912780744818177ULL,
            498,
            17201557015242508114ULL,
            0,
            {1, 0, 0, 0, 0, 0, 0, 0, 24, 1, 1, 1, 1},
            {"audit: audit failed [contraction/cmap-consistency]: cmap "
             "differs across matched pair at 568",
             "rollback: coarsen/L0 re-contracted from rebuilt cmap",
             "fault: cmap@0 corrupted"}},
        GoldenCmapRun{
            "mt-metis",
            &make_mt_partitioner,
            7355817695509169360ULL,
            570,
            17982184199719757415ULL,
            8238791679944394173ULL,
            {1, 0, 0, 0, 0, 0, 0, 0, 24, 1, 1, 1, 1},
            {"audit: audit failed [contraction/cmap-consistency]: cmap "
             "differs across matched pair at 245",
             "rollback: coarsen/L0 re-contracted from rebuilt cmap",
             "fault: cmap@0 corrupted"}}),
    [](const ::testing::TestParamInfo<GoldenCmapRun>& info) {
      return test_name(info.param.system);
    });

}  // namespace
}  // namespace gp
