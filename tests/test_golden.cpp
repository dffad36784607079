// Golden regression table for the deterministic single-thread
// configuration (delaunay 1/256, seed 7, k 8, threads 1, ranks 1, one
// device worker): the configuration bench_e2e's "determinism" section and
// perfbench's identity lines use.
//
// Per system and per `--gpu-scan` mode the table pins the partition FNV,
// the cut, a fingerprint of the full cost ledger (every row's label,
// launches, work, bytes and the bit pattern of its modeled seconds) and
// the four phase sums, so a refactor that moves a charge, renames a label,
// reorders rows or re-tags a row's phase fails here even when the
// partition is unchanged.  Two more tables pin the V-cycles off the happy
// path: on a graph whose coarsening stalls, and under `--audit phase
// --fault-spec cmap@0` (the complete RunHealth record too), which walks
// the corruption site, the contraction audit and the level rollback.
//
// A legitimate algorithm change may move these values: update them
// consciously, together with the determinism section of BENCH_e2e.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

/// Fingerprint of the ledger rows, skipping rows labelled in `skip`.
std::uint64_t ledger_fnv(const CostLedger& ledger,
                         const std::vector<std::string>& skip = {}) {
  Fnv f;
  for (const CostEntry& e : ledger.entries()) {
    if (std::find(skip.begin(), skip.end(), e.label) != skip.end()) continue;
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
  PhaseSeconds phases;  ///< coarsen, initpart, uncoarsen, transfer
};

/// Phase sums are compared at 1e-12 relative: the same rows summed in a
/// different order may differ in the last bits.
void expect_phases(const PhaseSeconds& got, const PhaseSeconds& want,
                   const char* system) {
  auto near = [](double a, double b) {
    return std::abs(a - b) <= 1e-12 * std::max(std::abs(a), std::abs(b));
  };
  EXPECT_TRUE(near(got.coarsen, want.coarsen)) << system << " coarsen";
  EXPECT_TRUE(near(got.initpart, want.initpart)) << system << " initpart";
  EXPECT_TRUE(near(got.uncoarsen, want.uncoarsen)) << system << " uncoarsen";
  EXPECT_TRUE(near(got.transfer, want.transfer)) << system << " transfer";
}

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
  expect_phases(r1.phases, gold.phases, gold.system);
}

// The partition and the cut are the same in both scan modes; only
// gp-metis's ledger differs (the fused pipelines charge fewer launches).
INSTANTIATE_TEST_SUITE_P(
    GoldenRuns, Golden,
    ::testing::Values(
        GoldenRun{"metis", &make_serial_partitioner, GpuScanMode::kBlocked,
                  16254912780744818177ULL, 498, 9678032076033456779ULL,
                  {0.0019163454545454545, 0.00025870909090909094,
                   0.001977490909090909, 0}},
        GoldenRun{"metis", &make_serial_partitioner, GpuScanMode::kLookback,
                  16254912780744818177ULL, 498, 9678032076033456779ULL,
                  {0.0019163454545454545, 0.00025870909090909094,
                   0.001977490909090909, 0}},
        GoldenRun{"parmetis", &make_par_partitioner, GpuScanMode::kBlocked,
                  3681740895285960291ULL, 532, 17943250799610126445ULL,
                  {0.0024260545454545413, 0.00019871229090909093,
                   0.0023317454545454539, 0}},
        GoldenRun{"parmetis", &make_par_partitioner, GpuScanMode::kLookback,
                  3681740895285960291ULL, 532, 17943250799610126445ULL,
                  {0.0024260545454545413, 0.00019871229090909093,
                   0.0023317454545454539, 0}},
        GoldenRun{"mt-metis", &make_mt_partitioner, GpuScanMode::kBlocked,
                  7355817695509169360ULL, 570, 9812347408540548577ULL,
                  {0.0035217849223946793, 0.00020488913525498891,
                   0.0050229463414634169, 0}},
        GoldenRun{"mt-metis", &make_mt_partitioner, GpuScanMode::kLookback,
                  7355817695509169360ULL, 570, 9812347408540548577ULL,
                  {0.0035217849223946793, 0.00020488913525498891,
                   0.0050229463414634169, 0}},
        GoldenRun{"gp-metis", &make_hybrid_partitioner, GpuScanMode::kBlocked,
                  5153263865161350000ULL, 604, 13460664073750141993ULL,
                  {0.0031327074355458387, 0.00020049889135254987,
                   0.0044276808906834339, 0.00062982472727272692}},
        GoldenRun{"gp-metis", &make_hybrid_partitioner, GpuScanMode::kLookback,
                  5153263865161350000ULL, 604, 7448877455917731465ULL,
                  {0.0011729136877375529, 0.00020049889135254987,
                   0.0024189278192828772, 0.00062982472727272692}}),
    [](const ::testing::TestParamInfo<GoldenRun>& info) {
      return test_name(info.param.system) +
             (info.param.scan == GpuScanMode::kBlocked ? "_blocked"
                                                       : "_lookback");
    });

// --- a stalling V-cycle: coarsening stops on the power-law graph ---

struct GoldenStallRun {
  const char* system;
  std::unique_ptr<Partitioner> (*make)();
  int levels;  ///< coarsening levels kept
  std::uint64_t fnv;
  std::uint64_t ledger;
  /// Rows an earlier build charged for the stalled level, contracted and
  /// audited before the stall check threw it away.  The pinned ledger is
  /// that build's ledger minus exactly these rows, so they must be absent.
  std::vector<std::string> discarded;
};

void PrintTo(const GoldenStallRun& run, std::ostream* os) {
  *os << run.system;
}

class GoldenStall : public ::testing::TestWithParam<GoldenStallRun> {};

// HEM stops shrinking an RMAT graph well above the coarsening target, so
// the last matching is thrown away before it is contracted.  Serial
// metis never meters that matching; mt-metis's matcher and parmetis's
// match supersteps charge their own passes as they run.
TEST_P(GoldenStall, StalledCoarseningMatchesPin) {
  const GoldenStallRun& gold = GetParam();
  const CsrGraph g = rmat_graph(11, 8192, 7);
  const auto r = gold.make()->run(g, golden_options());
  EXPECT_GT(r.coarsest_vertices, golden_options().coarsen_target())
      << "the graph no longer stalls coarsening; pick another";
  EXPECT_EQ(r.coarsen_levels, gold.levels) << gold.system;
  EXPECT_EQ(partition_fnv(r.partition), gold.fnv) << gold.system;
  EXPECT_EQ(ledger_fnv(r.ledger, gold.discarded), gold.ledger)
      << "ledger rows drifted for " << gold.system << " ("
      << r.ledger.entries().size() << " rows)";
  for (const CostEntry& e : r.ledger.entries()) {
    EXPECT_TRUE(std::find(gold.discarded.begin(), gold.discarded.end(),
                          e.label) == gold.discarded.end())
        << gold.system << " charged the stalled level: " << e.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GoldenStallRuns, GoldenStall,
    ::testing::Values(
        GoldenStallRun{"metis", &make_serial_partitioner, 6,
                       6562588080788757955ULL, 2794797509905178910ULL, {}},
        GoldenStallRun{"mt-metis", &make_mt_partitioner, 3,
                       8453887192926884678ULL, 9184855005487544581ULL, {}},
        // The 4th level (L3) stalls.
        GoldenStallRun{"parmetis",
                       &make_par_partitioner,
                       3,
                       15690166004976555620ULL,
                       6637107980832000991ULL,
                       {"comm/ghost/cmap/L3", "comm/coarsen/shipadj/L3",
                        "compute/coarsen/contract/L3"}}),
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
  /// The ledger without the `coarsen/contract/L0` row (the reference
  /// re-contraction of the rolled-back level), pinned where an earlier
  /// build charged nothing for that step: it pins that the later build
  /// added exactly that one row and changed nothing else.  0 = not
  /// checked.
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
    EXPECT_EQ(ledger_fnv(r.ledger, {"coarsen/contract/L0"}),
              gold.ledger_unmetered)
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
             "fault: cmap@0 corrupted"}},
        // An earlier parmetis had no cmap site: its ledger under this
        // spec is the unmetered one, so the site added exactly the
        // reference re-contraction.
        GoldenCmapRun{
            "parmetis",
            &make_par_partitioner,
            3681740895285960291ULL,
            532,
            7477262583390651016ULL,
            17562669317601392271ULL,
            {1, 0, 0, 0, 0, 0, 0, 0, 24, 1, 1, 1, 1},
            {"audit: audit failed [contraction/cmap-consistency]: cmap "
             "differs across matched pair at 568",
             "rollback: coarsen/L0 re-contracted from rebuilt cmap",
             "fault: cmap@0 corrupted"}}),
    [](const ::testing::TestParamInfo<GoldenCmapRun>& info) {
      return test_name(info.param.system);
    });

}  // namespace
}  // namespace gp
