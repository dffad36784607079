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
  int devices = 2;      ///< gp-metis-multi's gpu_devices
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
  opts.gpu_devices = gold.devices;
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

// The partition and the cut are the same in both scan modes; only the GPU
// drivers' ledgers differ (the fused pipelines charge fewer launches).
// gp-metis-multi runs on golden_options()'s two devices, and on one device,
// where it is gp-metis: the same partition, ledger and phase sums.
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
                  6263540440294644131ULL, 540, 17397832085798357345ULL,
                  {0.0024288909090909062, 0.00019243956363636363,
                   0.0022160909090909084, 0}},
        GoldenRun{"parmetis", &make_par_partitioner, GpuScanMode::kLookback,
                  6263540440294644131ULL, 540, 17397832085798357345ULL,
                  {0.0024288909090909062, 0.00019243956363636363,
                   0.0022160909090909084, 0}},
        GoldenRun{"mt-metis", &make_mt_partitioner, GpuScanMode::kBlocked,
                  15849764574823015888ULL, 555, 4178474775602906348ULL,
                  {0.0035487804878048786, 0.00019198447893569847,
                   0.0047527405764966751, 0}},
        GoldenRun{"mt-metis", &make_mt_partitioner, GpuScanMode::kLookback,
                  15849764574823015888ULL, 555, 4178474775602906348ULL,
                  {0.0035487804878048786, 0.00019198447893569847,
                   0.0047527405764966751, 0}},
        GoldenRun{"gp-metis", &make_hybrid_partitioner, GpuScanMode::kBlocked,
                  8127633237916665778ULL, 574, 14722700249677955626ULL,
                  {0.0031361496381818229, 0.00020012195121951222,
                   0.0066393147685695781, 0.00048276727272727283}},
        GoldenRun{"gp-metis", &make_hybrid_partitioner, GpuScanMode::kLookback,
                  8127633237916665778ULL, 574, 13723415600858261683ULL,
                  {0.0010571392237068711, 0.00020012195121951222,
                   0.0015313458316256392, 0.00024265090909090915}},
        GoldenRun{"gp-metis-multi", &make_multi_gpu_partitioner,
                  GpuScanMode::kBlocked, 14420664376415821206ULL, 611,
                  13890705361018013836ULL,
                  {0.0027845302730147032, 0.00019876940133037695,
                   0.0026478057759172684, 0.00091472145454545462}},
        GoldenRun{"gp-metis-multi", &make_multi_gpu_partitioner,
                  GpuScanMode::kLookback, 14420664376415821206ULL, 611,
                  11545019545690565238ULL,
                  {0.0010137451300318231, 0.00019876940133037695,
                   0.0026478057759172684, 0.00091472145454545462}},
        GoldenRun{"gp-metis-multi",
                  &make_multi_gpu_partitioner,
                  GpuScanMode::kLookback,
                  8127633237916665778ULL,
                  574,
                  13723415600858261683ULL,
                  {0.0010571392237068711, 0.00020012195121951222,
                   0.0015313458316256392, 0.00024265090909090915},
                  /*devices=*/1}),
    [](const ::testing::TestParamInfo<GoldenRun>& info) {
      return test_name(info.param.system) +
             (info.param.devices == 1 ? "_one_device" : "") +
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
  /// Rows the stalled level would charge if it were contracted and
  /// audited before the stall check threw it away (as an earlier build
  /// did).  They must be absent; the pinned ledger skips them.
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
        GoldenStallRun{"mt-metis", &make_mt_partitioner, 5,
                       1132923692592559798ULL, 525699968945424510ULL, {}},
        // The 5th level (L4) stalls.
        GoldenStallRun{"parmetis",
                       &make_par_partitioner,
                       4,
                       17229458267333935905ULL,
                       3983110389003078581ULL,
                       {"comm/ghost/cmap/L4", "comm/coarsen/shipadj/L4",
                        "compute/coarsen/contract/L4"}},
        // Device matching stalls at L2 above the handoff: the level is
        // downloaded and the mt middle phase coarsens it, 4 more levels.
        GoldenStallRun{"gp-metis-multi",
                       &make_multi_gpu_partitioner,
                       6,
                       16369280703168534673ULL,
                       16662301338665637124ULL,
                       {"transfer/coarsen/contract/L2",
                        "kernel/coarsen/contract/L2"}},
        // Three device levels reach the handoff; the mt middle phase adds
        // three more, then stalls at 762 vertices against a target of 240.
        GoldenStallRun{"gp-metis", &make_hybrid_partitioner, 6,
                       10906540584111849281ULL, 7791248051973550499ULL, {}}),
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
  /// re-contraction of the rolled-back level): together with `ledger` it
  /// pins that the rollback charges exactly that one row.  0 = not
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
  // A level rollback restarts nothing: no device reset, no task restart.
  for (const CostEntry& e : r.ledger.entries()) {
    EXPECT_NE(e.label.rfind("fault/", 0), 0u) << gold.system << " " << e.label;
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
            15849764574823015888ULL,
            555,
            11534913690697015838ULL,
            4082516948316812336ULL,
            {1, 0, 0, 0, 0, 0, 0, 0, 24, 1, 1, 1, 1},
            {"audit: audit failed [contraction/cmap-consistency]: cmap "
             "differs across matched pair at 245",
             "rollback: coarsen/L0 re-contracted from rebuilt cmap",
             "fault: cmap@0 corrupted"}},
        GoldenCmapRun{
            "parmetis",
            &make_par_partitioner,
            6263540440294644131ULL,
            540,
            5789011421173868265ULL,
            2482786811857965106ULL,
            {1, 0, 0, 0, 0, 0, 0, 0, 24, 1, 1, 1, 1},
            {"audit: audit failed [contraction/cmap-consistency]: cmap "
             "differs across matched pair at 568",
             "rollback: coarsen/L0 re-contracted from rebuilt cmap",
             "fault: cmap@0 corrupted"}},
        // The fault lands on the first device level and keeps to its
        // device's coarse block.  The perturbed entry is a mate, so the
        // device contractions go through and the contraction audit (on
        // host views of the level) rejects the cmap.  The reference
        // re-contraction keeps the level's block distribution and uploads
        // each row in slot order, as the device contraction emits it, so
        // the partition is the fault-free one (the Golden row).  The audits
        // include the bus guard's checks of every host view and of each
        // device's halo uploads.
        GoldenCmapRun{
            "gp-metis-multi",
            &make_multi_gpu_partitioner,
            14420664376415821206ULL,
            611,
            11446556487922008041ULL,
            9499415187243774643ULL,
            {1, 0, 0, 0, 0, 0, 0, 0, 64, 1, 1, 1, 1},
            {"audit: audit failed [contraction/cmap-consistency]: cmap "
             "differs across matched pair at 568",
             "rollback: coarsen/L0 re-contracted from rebuilt cmap",
             "fault: cmap@0 corrupted"}},
        // The fault lands on the first device level.  The perturbed entry
        // is a mate, so the device contraction goes through and the
        // contraction audit (on host views of the level) rejects the cmap.
        // The level is rolled back, not the attempt: no GPU retry, no
        // device-reset row, and the fault-free partition.  The audits
        // include the bus guard's checks of every host view.
        GoldenCmapRun{"gp-metis",
                      &make_hybrid_partitioner,
                      8127633237916665778ULL,
                      574,
                      7385823198898505084ULL,
                      16698510903824206513ULL,
                      {1, 0, 0, 0, 0, 0, 0, 0, 45, 1, 1, 1, 1},
                      {"audit: audit failed [contraction/cmap-consistency]: "
                       "cmap differs across matched pair at 568",
                       "rollback: coarsen/L0 re-contracted from rebuilt cmap",
                       "fault: cmap@0 corrupted"}}),
    [](const ::testing::TestParamInfo<GoldenCmapRun>& info) {
      return test_name(info.param.system);
    });

}  // namespace
}  // namespace gp
