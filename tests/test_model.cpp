// Tests for src/model: the cost ledger's charge functions, prefix sums,
// merge behaviour, and the machine-model arithmetic the benches rely on.
#include <gtest/gtest.h>

#include "model/machine_model.hpp"

namespace gp {
namespace {

TEST(CostLedger, SerialChargeUsesCpuRate) {
  MachineModel m;
  CostLedger l(m);
  l.charge_serial("a", 1000000);
  EXPECT_DOUBLE_EQ(l.total_seconds(), 1.0e6 / m.cpu_work_rate);
}

TEST(CostLedger, MtPassUsesMaxThreadWork) {
  MachineModel m;
  CostLedger l(m);
  l.charge_mt_pass("pass", {100, 400, 200, 300});
  const double per_core = m.cpu_work_rate * m.cpu_parallel_eff;
  EXPECT_DOUBLE_EQ(l.total_seconds(), 400.0 / per_core + m.cpu_barrier_s);
  EXPECT_DOUBLE_EQ(l.entries()[0].imbalance, 400.0 / 250.0);
}

TEST(CostLedger, GpuKernelAppliesImbalanceAndTail) {
  MachineModel m;
  CostLedger l(m);
  l.charge_gpu_kernel("k", 1000000, 2.0);
  const double expect =
      ((1.0e6 + m.gpu_low_occupancy_tail_units) / m.gpu_work_rate) * 2.0 +
      m.gpu_kernel_launch_s;
  EXPECT_DOUBLE_EQ(l.total_seconds(), expect);
}

TEST(CostLedger, GpuKernelImbalanceFloorIsOne) {
  CostLedger l;
  l.charge_gpu_kernel("k", 100, 0.25);  // nonsense < 1 gets clamped
  EXPECT_DOUBLE_EQ(l.entries()[0].imbalance, 1.0);
}

TEST(CostLedger, TransferUsesLatencyPlusBandwidth) {
  MachineModel m;
  CostLedger l(m);
  l.charge_transfer("t", 5'500'000);
  EXPECT_DOUBLE_EQ(l.total_seconds(),
                   m.pcie_latency_s + 5.5e6 / m.pcie_bw_bytes_per_s);
}

TEST(CostLedger, MessagesUseAlphaBeta) {
  MachineModel m;
  CostLedger l(m);
  l.charge_messages("msg", 10, 1000);
  EXPECT_DOUBLE_EQ(l.total_seconds(),
                   10 * m.net_alpha_s + 1000 * m.net_beta_s_per_byte);
}

TEST(CostLedger, PrefixQueries) {
  CostLedger l;
  l.charge_serial("coarsen/match", 100);
  l.charge_serial("coarsen/contract", 200);
  l.charge_serial("initpart/rb", 300);
  l.charge_transfer("transfer/h2d/g", 1000);
  EXPECT_GT(l.seconds_with_prefix("coarsen/"), 0.0);
  EXPECT_DOUBLE_EQ(
      l.seconds_with_prefix("coarsen/") + l.seconds_with_prefix("initpart/") +
          l.seconds_with_prefix("transfer/"),
      l.total_seconds());
  EXPECT_EQ(l.bytes_with_prefix("transfer/"), 1000u);
  EXPECT_EQ(l.bytes_with_prefix("nope/"), 0u);
}

TEST(CostLedger, PhaseScopeTagsRowsAndRestoresTheEnclosingPhase) {
  CostLedger l;
  l.charge_raw("fault/x", 1.0);
  {
    PhaseScope phase(&l, Phase::kCoarsen);
    l.charge_serial("a", 100);
    l.charge_transfer("t", 1000);  // transfers are always transfer
    {
      const PhaseScope inner(&l, Phase::kInitpart);
      l.charge_serial("b", 200);
    }
    l.charge_serial("c", 300);
    phase.enter(Phase::kUncoarsen);
    l.charge_gpu_fused("f", {{"s", 400, 1.0}});
  }
  l.charge_raw("fault/y", 2.0);
  std::vector<Phase> tags;
  for (const CostEntry& e : l.entries()) tags.push_back(e.phase);
  EXPECT_EQ(tags, (std::vector<Phase>{Phase::kNone, Phase::kCoarsen,
                                      Phase::kTransfer, Phase::kInitpart,
                                      Phase::kCoarsen, Phase::kUncoarsen,
                                      Phase::kUncoarsen, Phase::kNone}));
  EXPECT_DOUBLE_EQ(l.seconds_in(Phase::kNone), 3.0);
  EXPECT_DOUBLE_EQ(l.seconds_in(Phase::kInitpart),
                   l.entries()[3].seconds);
  CostLedger merged;
  const PhaseScope other(&merged, Phase::kInitpart);
  merged.merge("", l);  // rows keep their own tags
  for (std::size_t i = 0; i < l.entries().size(); ++i) {
    EXPECT_EQ(merged.entries()[i].phase, l.entries()[i].phase);
  }
}

TEST(CostLedger, MergePrefixesLabels) {
  CostLedger a, b;
  b.charge_serial("x", 100);
  a.merge("sub/", b);
  ASSERT_EQ(a.entries().size(), 1u);
  EXPECT_EQ(a.entries()[0].label, "sub/x");
  EXPECT_DOUBLE_EQ(a.total_seconds(), b.total_seconds());
}

TEST(CostLedger, ClearResets) {
  CostLedger l;
  l.charge_serial("a", 1000);
  l.clear();
  EXPECT_DOUBLE_EQ(l.total_seconds(), 0.0);
  EXPECT_TRUE(l.entries().empty());
}

TEST(CostLedger, RawCharge) {
  CostLedger l;
  l.charge_raw("raw", 1.5);
  EXPECT_DOUBLE_EQ(l.total_seconds(), 1.5);
}

TEST(CostLedger, JsonExportContainsEntries) {
  CostLedger l;
  l.charge_serial("coarsen/match", 1234);
  l.charge_transfer("transfer/h2d/g", 5678);
  const auto json = l.to_json();
  EXPECT_NE(json.find("\"coarsen/match\""), std::string::npos);
  EXPECT_NE(json.find("\"work_units\": 1234"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\": 5678"), std::string::npos);
  // Valid-ish JSON shape: array brackets and one comma between entries.
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
}

TEST(MachineModel, PaperTestbedIsDefault) {
  const auto m = MachineModel::paper_testbed();
  EXPECT_EQ(m.cpu_cores, 8);        // Xeon E5540
  EXPECT_GT(m.gpu_work_rate, m.cpu_work_rate);  // Titan >> one core
}

}  // namespace
}  // namespace gp
