// Tests for src/util/fault: plan parsing, deterministic injection, and the
// graceful-degradation policies of the three partitioner substrates.
#include <gtest/gtest.h>

#include <atomic>

#include "chaos/campaign.hpp"
#include "core/partitioner.hpp"
#include "core/vcycle.hpp"
#include "gen/generators.hpp"
#include "gpu/device.hpp"
#include "gpu/device_buffer.hpp"
#include "hybrid/gp_partitioner.hpp"
#include "hybrid/multi_gpu_partitioner.hpp"
#include "par/comm.hpp"
#include "par/parmetis_partitioner.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace gp {
namespace {

// ---------------------------------------------------------------- parsing

TEST(FaultPlan, ParsesEverySiteForm) {
  const auto plan =
      FaultPlan::parse("alloc@3; kernel:p=0.01, h2d@1;d2h@0;msg:p=0.5;"
                       "superstep@2;device1:lost;device0:lost@40;"
                       "rank2:fail;rank1:fail@6");
  ASSERT_EQ(plan.rules.size(), 6u);
  EXPECT_EQ(plan.rules[0].site, FaultSite::kAlloc);
  EXPECT_EQ(plan.rules[0].at, 3);
  EXPECT_EQ(plan.rules[1].site, FaultSite::kKernel);
  EXPECT_DOUBLE_EQ(plan.rules[1].p, 0.01);
  EXPECT_EQ(plan.rules[2].site, FaultSite::kH2D);
  EXPECT_EQ(plan.rules[3].site, FaultSite::kD2H);
  EXPECT_EQ(plan.rules[4].site, FaultSite::kMsg);
  EXPECT_EQ(plan.rules[5].site, FaultSite::kSuperstep);
  ASSERT_EQ(plan.device_losses.size(), 2u);
  EXPECT_EQ(plan.device_losses[0].device, 1);
  EXPECT_EQ(plan.device_losses[0].after_ops, 0u);
  EXPECT_EQ(plan.device_losses[1].device, 0);
  EXPECT_EQ(plan.device_losses[1].after_ops, 40u);
  ASSERT_EQ(plan.rank_failures.size(), 2u);
  EXPECT_EQ(plan.rank_failures[0].rank, 2);
  EXPECT_EQ(plan.rank_failures[1].from_superstep, 6u);
}

TEST(FaultPlan, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("  ;  , ").empty());
  EXPECT_FALSE(FaultPlan::parse("alloc@0").empty());
}

TEST(FaultPlan, RejectsMalformedRules) {
  EXPECT_THROW(FaultPlan::parse("alloc"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("frobnicate@3"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("alloc@-1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("alloc@x"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("kernel:p=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("kernel:q=0.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("device1:gone"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("rank0:lost"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("device:lost"), std::invalid_argument);
}

TEST(FaultPlan, BadSpecRejectedByOptionValidation) {
  const auto g = grid2d_graph(10, 10);
  PartitionOptions opts;
  opts.k = 2;
  opts.fault_spec = "bogus@1";
  EXPECT_THROW(validate_options(g, opts), std::invalid_argument);
}

// ----------------------------------------------------------- the injector

TEST(FaultInjector, AtRuleFiresExactlyOnce) {
  FaultInjector inj(0, FaultPlan::parse("alloc@2"));
  EXPECT_EQ(inj.on_device_op(0, FaultSite::kAlloc), FaultInjector::Action::kNone);
  EXPECT_EQ(inj.on_device_op(0, FaultSite::kAlloc), FaultInjector::Action::kNone);
  EXPECT_EQ(inj.on_device_op(0, FaultSite::kAlloc), FaultInjector::Action::kOom);
  EXPECT_EQ(inj.on_device_op(0, FaultSite::kAlloc), FaultInjector::Action::kNone);
  EXPECT_EQ(inj.faults_fired(), 1u);
}

TEST(FaultInjector, KernelFaultIsFailNotOom) {
  FaultInjector inj(0, FaultPlan::parse("kernel@0"));
  EXPECT_EQ(inj.on_device_op(0, FaultSite::kKernel),
            FaultInjector::Action::kFail);
}

TEST(FaultInjector, SitesCountIndependently) {
  // An alloc rule must not be perturbed by interleaved kernel checks.
  FaultInjector inj(0, FaultPlan::parse("alloc@1"));
  EXPECT_EQ(inj.on_device_op(0, FaultSite::kKernel),
            FaultInjector::Action::kNone);
  EXPECT_EQ(inj.on_device_op(0, FaultSite::kAlloc),
            FaultInjector::Action::kNone);
  EXPECT_EQ(inj.on_device_op(0, FaultSite::kKernel),
            FaultInjector::Action::kNone);
  EXPECT_EQ(inj.on_device_op(0, FaultSite::kAlloc),
            FaultInjector::Action::kOom);
}

TEST(FaultInjector, ProbabilisticRuleIsSeedDeterministic) {
  const auto plan = FaultPlan::parse("kernel:p=0.3");
  std::vector<bool> a, b;
  {
    FaultInjector inj(42, FaultPlan(plan));
    for (int i = 0; i < 200; ++i) {
      a.push_back(inj.on_device_op(0, FaultSite::kKernel) !=
                  FaultInjector::Action::kNone);
    }
  }
  {
    FaultInjector inj(42, FaultPlan(plan));
    for (int i = 0; i < 200; ++i) {
      b.push_back(inj.on_device_op(0, FaultSite::kKernel) !=
                  FaultInjector::Action::kNone);
    }
  }
  EXPECT_EQ(a, b);
  std::size_t fired = 0;
  for (const bool x : a) fired += x;
  EXPECT_GT(fired, 30u);   // ~60 expected at p=0.3
  EXPECT_LT(fired, 120u);
  // A different seed gives a different schedule (overwhelmingly likely).
  FaultInjector inj2(43, FaultPlan(plan));
  std::vector<bool> c;
  for (int i = 0; i < 200; ++i) {
    c.push_back(inj2.on_device_op(0, FaultSite::kKernel) !=
                FaultInjector::Action::kNone);
  }
  EXPECT_NE(a, c);
}

TEST(FaultInjector, LostDeviceFailsEveryOpAndReportsOnce) {
  FaultInjector inj(0, FaultPlan::parse("device1:lost@2"));
  EXPECT_EQ(inj.on_device_op(1, FaultSite::kAlloc),
            FaultInjector::Action::kNone);
  EXPECT_EQ(inj.on_device_op(1, FaultSite::kKernel),
            FaultInjector::Action::kNone);
  EXPECT_EQ(inj.on_device_op(1, FaultSite::kKernel),
            FaultInjector::Action::kFail);
  EXPECT_EQ(inj.on_device_op(1, FaultSite::kH2D),
            FaultInjector::Action::kFail);
  // Device 0 is unaffected.
  EXPECT_EQ(inj.on_device_op(0, FaultSite::kKernel),
            FaultInjector::Action::kNone);
  EXPECT_EQ(inj.devices_lost(), 1u);
  RunHealth h;
  inj.report_into(h);
  EXPECT_TRUE(h.degraded);
  EXPECT_EQ(h.devices_lost, 1u);
}

// ------------------------------------------------- device-level plumbing

TEST(FaultDevice, InjectedAllocThrowsDeviceOutOfMemory) {
  FaultInjector inj(0, FaultPlan::parse("alloc@0"));
  Device dev;
  dev.set_fault_injector(&inj, 3);
  try {
    DeviceBuffer<vid_t> buf(dev, 128, "t");
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const DeviceOutOfMemory& e) {
    EXPECT_EQ(e.device_id(), 3);
  }
}

TEST(FaultDevice, InjectedKernelThrowsDeviceFailure) {
  FaultInjector inj(0, FaultPlan::parse("kernel@0"));
  Device dev;
  dev.set_fault_injector(&inj, 1);
  try {
    dev.launch("t", 4, [](std::int64_t) -> std::uint64_t { return 1; });
    FAIL() << "expected DeviceFailure";
  } catch (const DeviceFailure& e) {
    EXPECT_EQ(e.device_id(), 1);
  }
}

TEST(FaultDevice, InjectedTransferFaultsThrow) {
  FaultInjector inj(0, FaultPlan::parse("h2d@0;d2h@0"));
  Device dev;
  dev.set_fault_injector(&inj, 0);
  DeviceBuffer<vid_t> buf(dev, 16, "t");
  const std::vector<vid_t> host(16, 7);
  EXPECT_THROW(buf.h2d(host), DeviceFailure);
  EXPECT_THROW((void)buf.d2h_vector(), DeviceFailure);
}

// -------------------------------------------------------- comm satellites

TEST(SimComm, MessagePayloadSizeMismatchThrows) {
  SimMessage m;
  m.bytes.assign(10, 0);  // not a multiple of 8
  EXPECT_THROW((void)m.as<std::uint64_t>(), std::runtime_error);
  m.bytes.assign(16, 0);
  EXPECT_EQ(m.as<std::uint64_t>().size(), 2u);
}

TEST(SimComm, SendToBadRankThrows) {
  std::vector<SimMessage> inbox;
  Mailbox mb(0, 4, &inbox);
  const std::vector<int> data{1, 2, 3};
  EXPECT_THROW(mb.send(-1, data), std::out_of_range);
  EXPECT_THROW(mb.send(4, data), std::out_of_range);
  mb.send(3, data);  // in range: fine
}

// ------------------------------------------- GP-metis degradation ladder

PartitionOptions gp_fault_opts() {
  PartitionOptions opts;
  opts.k = 4;
  opts.threads = 1;
  opts.gpu_host_workers = 1;  // bit-deterministic kernels
  opts.gpu_cpu_threshold = 500;
  return opts;
}

TEST(GpMetisFaults, AllocFaultAtAnyIndexStillYieldsValidPartition) {
  const auto g = delaunay_graph(4000, 3);
  for (const int at : {0, 1, 2, 5, 9, 20}) {
    PartitionOptions opts = gp_fault_opts();
    opts.fault_spec = "alloc@" + std::to_string(at);
    GpPhaseLog log;
    const auto r = gp_metis_run(g, opts, &log);
    EXPECT_TRUE(validate_partition(g, r.partition).empty())
        << "alloc@" << at;
    EXPECT_GT(r.cut, 0) << "alloc@" << at;
    EXPECT_TRUE(r.health.degraded) << "alloc@" << at;
    EXPECT_EQ(r.health.faults_injected, 1u) << "alloc@" << at;
    EXPECT_GE(r.health.gpu_retries, 1u) << "alloc@" << at;
    EXPECT_GE(log.attempts, 2);
  }
}

TEST(GpMetisFaults, KernelFaultRetriesAndRecovers) {
  const auto g = delaunay_graph(4000, 3);
  PartitionOptions opts = gp_fault_opts();
  opts.fault_spec = "kernel@2";
  GpPhaseLog log;
  const auto r = gp_metis_run(g, opts, &log);
  EXPECT_TRUE(validate_partition(g, r.partition).empty());
  EXPECT_TRUE(r.health.degraded);
  EXPECT_EQ(r.health.gpu_retries, 1u);
  // The retry succeeds on the full GPU path: no CPU fallback.
  EXPECT_FALSE(log.cpu_fallback);
  EXPECT_EQ(r.health.fallbacks, 0u);
}

TEST(GpMetisFaults, PersistentFailureFallsBackToPureCpu) {
  // Every kernel launch faults: all GPU attempts die, and the run must
  // still complete via the mt-metis fallback.
  const auto g = delaunay_graph(4000, 3);
  PartitionOptions opts = gp_fault_opts();
  opts.fault_spec = "kernel:p=1.0";
  GpPhaseLog log;
  const auto r = gp_metis_run(g, opts, &log);
  EXPECT_TRUE(validate_partition(g, r.partition).empty());
  EXPECT_GT(r.cut, 0);
  EXPECT_TRUE(r.health.degraded);
  EXPECT_EQ(r.health.fallbacks, 1u);
  EXPECT_TRUE(log.cpu_fallback);
  EXPECT_EQ(log.gpu_coarsen_levels, 0);
}

TEST(GpMetisFaults, RetryCostStaysInLedger) {
  const auto g = delaunay_graph(4000, 3);
  PartitionOptions clean = gp_fault_opts();
  const auto r0 = gp_metis_run(g, clean, nullptr);
  PartitionOptions faulty = gp_fault_opts();
  faulty.fault_spec = "kernel@3";
  const auto r1 = gp_metis_run(g, faulty, nullptr);
  // The failed attempt's work plus the reset penalty stay visible: a
  // degraded run is modeled strictly slower than a clean one.
  EXPECT_GT(r1.modeled_seconds, r0.modeled_seconds);
  EXPECT_GT(r1.ledger.seconds_with_prefix("fault/"), 0.0);
  EXPECT_EQ(r0.ledger.seconds_with_prefix("fault/"), 0.0);
}

TEST(GpMetisFaults, NoPlanIsBitIdenticalToSeedBehaviour) {
  // Zero-overhead requirement: an empty fault spec must not change the
  // partition or the modeled time in any way.
  const auto g = delaunay_graph(3000, 7);
  PartitionOptions opts = gp_fault_opts();
  const auto r0 = gp_metis_run(g, opts, nullptr);
  const auto r1 = gp_metis_run(g, opts, nullptr);
  EXPECT_EQ(r0.partition.where, r1.partition.where);
  EXPECT_DOUBLE_EQ(r0.modeled_seconds, r1.modeled_seconds);
  EXPECT_EQ(r0.health, r1.health);
  EXPECT_FALSE(r0.health.degraded);
  EXPECT_EQ(r0.health.faults_injected, 0u);
}

TEST(GpMetisFaults, SameSeedSamePlanIsFullyDeterministic) {
  // Acceptance criterion: identical --fault-seed/--fault-spec give an
  // identical partition vector AND an identical RunHealth record.
  const auto g = delaunay_graph(3000, 7);
  PartitionOptions opts = gp_fault_opts();
  opts.fault_spec = "kernel:p=0.02;alloc@4";
  opts.fault_seed = 99;
  const auto r0 = gp_metis_run(g, opts, nullptr);
  const auto r1 = gp_metis_run(g, opts, nullptr);
  EXPECT_EQ(r0.partition.where, r1.partition.where);
  EXPECT_EQ(r0.health, r1.health);
  EXPECT_DOUBLE_EQ(r0.modeled_seconds, r1.modeled_seconds);
  EXPECT_TRUE(r0.health.degraded);
  EXPECT_TRUE(validate_partition(g, r0.partition).empty());
}

// ------------------------------------------- multi-GPU device-loss ladder

TEST(MultiGpuFaults, LostDeviceRedistributesOverSurvivors) {
  const auto g = delaunay_graph(6000, 5);
  PartitionOptions opts;
  opts.k = 4;
  opts.threads = 1;
  opts.gpu_host_workers = 1;
  opts.gpu_devices = 3;
  opts.gpu_cpu_threshold = 500;
  opts.fault_spec = "device1:lost@20";
  MultiGpuLog log;
  const auto r = multi_gpu_run(g, opts, &log);
  EXPECT_TRUE(validate_partition(g, r.partition).empty());
  EXPECT_GT(r.cut, 0);
  EXPECT_TRUE(r.health.degraded);
  EXPECT_EQ(r.health.devices_lost, 1u);
  EXPECT_EQ(log.devices_lost, 1);
  EXPECT_FALSE(log.cpu_fallback);
  EXPECT_EQ(log.devices, 2);  // survivors carried the successful attempt
  EXPECT_GE(log.attempts, 2);
  // Every restart of the GPU attempt is a retry, a lost device included.
  EXPECT_EQ(r.health.gpu_retries,
            static_cast<std::uint64_t>(log.attempts - 1));
}

TEST(MultiGpuFaults, AllDevicesLostFallsBackToCpu) {
  const auto g = delaunay_graph(6000, 5);
  PartitionOptions opts;
  opts.k = 4;
  opts.threads = 1;
  opts.gpu_host_workers = 1;
  opts.gpu_devices = 2;
  opts.gpu_cpu_threshold = 500;
  opts.fault_spec = "device0:lost;device1:lost";
  MultiGpuLog log;
  const auto r = multi_gpu_run(g, opts, &log);
  EXPECT_TRUE(validate_partition(g, r.partition).empty());
  EXPECT_TRUE(r.health.degraded);
  EXPECT_EQ(r.health.devices_lost, 2u);
  EXPECT_TRUE(log.cpu_fallback);
  EXPECT_EQ(r.health.fallbacks, 1u);
}

// --------------------------------------------- ParMetis message recovery

TEST(ParMetisFaults, DroppedMessagesAreRepairedOrResent) {
  const auto g = delaunay_graph(6000, 11);
  PartitionOptions opts;
  opts.k = 4;
  opts.ranks = 4;
  opts.threads = 1;
  opts.fault_spec = "msg:p=0.2";
  opts.fault_seed = 7;
  const auto r = ParMetisPartitioner{}.run(g, opts);
  EXPECT_TRUE(validate_partition(g, r.partition).empty());
  EXPECT_GT(r.cut, 0);
  EXPECT_TRUE(r.health.degraded);
  EXPECT_GT(r.health.messages_dropped, 0u);
  // With 20% loss across many supersteps, at least one grant or cmap
  // message was affected and repaired/resent.
  EXPECT_GT(r.health.match_repairs + r.health.messages_resent, 0u);
}

TEST(ParMetisFaults, SingleDropRecovers) {
  // `msg@3` eats exactly one message on the deterministic routing path.
  // (The rank compute itself races by design, so only the drop count —
  // not the partition vector — is compared across runs here; byte-level
  // fault determinism is covered on the GP-metis substrate above.)
  const auto g = delaunay_graph(6000, 11);
  PartitionOptions opts;
  opts.k = 4;
  opts.ranks = 4;
  opts.threads = 1;
  opts.fault_spec = "msg@3";
  const auto r0 = ParMetisPartitioner{}.run(g, opts);
  const auto r1 = ParMetisPartitioner{}.run(g, opts);
  EXPECT_TRUE(validate_partition(g, r0.partition).empty());
  EXPECT_TRUE(validate_partition(g, r1.partition).empty());
  EXPECT_EQ(r0.health.messages_dropped, 1u);
  EXPECT_EQ(r1.health.messages_dropped, 1u);
  EXPECT_TRUE(r0.health.degraded);
}

TEST(ParMetisFaults, RankFailureAbortsCleanly) {
  const auto g = delaunay_graph(4000, 2);
  PartitionOptions opts;
  opts.k = 4;
  opts.ranks = 4;
  opts.threads = 1;
  opts.fault_spec = "rank2:fail@5";
  EXPECT_THROW(ParMetisPartitioner{}.run(g, opts), CommFailure);
}

TEST(ParMetisFaults, PoolTaskFaultRestartsTheRunOnce) {
  // `task@3` throws out of the 4th superstep's dispatch.  SimComm empties
  // its mail queue before it dispatches a step, so nothing from the
  // aborted step reaches the restarted run.
  const auto g = delaunay_graph(6000, 11);
  PartitionOptions opts;
  opts.k = 4;
  opts.ranks = 4;
  opts.threads = 1;
  opts.fault_spec = "task@3";
  const auto r = ParMetisPartitioner{}.run(g, opts);
  EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty());
  EXPECT_TRUE(r.health.degraded);
  EXPECT_EQ(r.health.rollbacks, 1u);
  EXPECT_EQ(r.health.faults_injected, 1u);
  bool restarted = false;
  for (const auto& e : r.health.events) {
    if (e.find("whole-run restart after pool task fault") !=
        std::string::npos) {
      restarted = true;
    }
  }
  EXPECT_TRUE(restarted);
}

/// A CPU backend whose every matching fails its audit: damage that no
/// restart repairs, so the run-level ladder must reach its last rung.
class UnrepairableBackend final : public VcycleBackend {
 public:
  UnrepairableBackend()
      : VcycleBackend({"test/coarsen", "test/initpart", "test/uncoarsen",
                       /*refine_attempts=*/1, Phase::kInitpart},
                      nullptr) {}
  MatchResult match(const CsrGraph&, int) override {
    throw AuditError({AuditFailure::Kind::kMatching, "test", "unrepairable"});
  }
  CsrGraph contract(const CsrGraph& fine, const MatchResult&, int) override {
    return fine;
  }
  Partition initial_partition(const CsrGraph&, VcycleLevels&) override {
    return {};
  }
  void build_cache(const CsrGraph&, const std::vector<part_t>&, GainCache&,
                   RefineSite) override {}
  void refine(const CsrGraph&, Partition&, GainCache&, RefineSite) override {}
  std::string refine_name(RefineSite) const override { return "test"; }
  std::vector<part_t> project(const CsrGraph&, const std::vector<vid_t>&,
                              const std::vector<part_t>& coarse,
                              int) override {
    return coarse;
  }
};

TEST(VcycleLadder, AuditFailureSurvivingTheRestartFallsBackToSerial) {
  const auto g = delaunay_graph(2000, 5);
  PartitionOptions opts;
  opts.k = 4;
  opts.threads = 1;
  FaultInjector injector(1, FaultPlan::parse("cmap@0"));
  UnrepairableBackend backend;
  PartitionResult res;
  vcycle_run(g, opts, backend, &injector, res);
  EXPECT_TRUE(
      validate_partition(g, res.partition, res.cut, res.balance).empty());
  EXPECT_EQ(res.partition.where,
            make_serial_partitioner()->run(g, opts).partition.where);
  EXPECT_TRUE(res.health.degraded);
  EXPECT_EQ(res.health.rollbacks, 2u);  // the restart, then the fallback
  bool fell_back = false;
  for (const auto& e : res.health.events) {
    fell_back |= e.find("whole-run serial fallback") != std::string::npos;
  }
  EXPECT_TRUE(fell_back);
}

TEST(VcycleLadder, AuditErrorWithoutInjectorPropagates) {
  // With no injector attached nothing was corrupted on purpose: a failed
  // audit is a genuine bug, and no rung may mask it.
  const auto g = delaunay_graph(2000, 5);
  PartitionOptions opts;
  opts.k = 4;
  UnrepairableBackend backend;
  PartitionResult res;
  FaultInjector* no_injector = nullptr;
  EXPECT_THROW(vcycle_run(g, opts, backend, no_injector, res), AuditError);
  EXPECT_EQ(res.health.rollbacks, 0u);
}

TEST(ParMetisFaults, NoPlanHealthStaysClean) {
  const auto g = delaunay_graph(4000, 2);
  PartitionOptions opts;
  opts.k = 4;
  opts.ranks = 4;
  opts.threads = 1;
  const auto r = ParMetisPartitioner{}.run(g, opts);
  EXPECT_FALSE(r.health.degraded);
  EXPECT_EQ(r.health, RunHealth{});
}

// ------------------------------------------------- to_string / hardening

TEST(FaultPlan, ToStringRoundTripsEveryClauseKind) {
  const std::string spec =
      "alloc@3;kernel:p=0.01;flip@2;cmap:p=0.05;task@7;"
      "device1:lost;device0:lost@40;rank2:fail;rank1:fail@6;"
      "mem-cap=262144";
  const auto plan = FaultPlan::parse(spec);
  EXPECT_EQ(plan.to_string(), spec);
  // parse(to_string(parse(s))) == parse(s): the printed form is canonical.
  const auto reparsed = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(reparsed.to_string(), plan.to_string());
  EXPECT_EQ(reparsed.mem_cap_bytes, 262144u);
}

TEST(FaultPlan, ToStringPreservesAwkwardProbabilities) {
  // 0.1 has no exact double; the printer must still round-trip it.
  for (const char* spec : {"msg:p=0.1", "flip:p=0.3333333333333333",
                           "alloc:p=0.001"}) {
    const auto plan = FaultPlan::parse(spec);
    const auto again = FaultPlan::parse(plan.to_string());
    ASSERT_EQ(again.rules.size(), 1u);
    EXPECT_DOUBLE_EQ(again.rules[0].p, plan.rules[0].p) << spec;
  }
}

TEST(FaultPlan, RejectsDuplicateAndConflictingClauses) {
  EXPECT_THROW(FaultPlan::parse("alloc@3;alloc@3"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("kernel:p=0.1;kernel:p=0.2"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("device0:lost;device0:lost@5"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("rank1:fail;rank1:fail@3"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("mem-cap=4096;mem-cap=8192"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("mem-cap=0"), std::invalid_argument);
  // Distinct occurrences of the same site remain legal.
  EXPECT_NO_THROW(FaultPlan::parse("alloc@3;alloc@5"));
  // One @N rule plus one :p= rule on the same site remains legal.
  EXPECT_NO_THROW(FaultPlan::parse("task@2;task:p=0.01"));
}

TEST(FaultPlan, MemCapParsesAndCountsAsNonEmpty) {
  const auto plan = FaultPlan::parse("mem-cap=65536");
  EXPECT_EQ(plan.mem_cap_bytes, 65536u);
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.to_string(), "mem-cap=65536");
}

// ------------------------------------------------------ new fault sites

TEST(FaultDevice, ProbabilisticAllocCertaintyFiresEveryAllocation) {
  FaultInjector inj(7, FaultPlan::parse("alloc:p=1"));
  Device dev;
  dev.set_fault_injector(&inj, 0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_THROW(DeviceBuffer<vid_t>(dev, 64, "t"), DeviceOutOfMemory);
  }
  EXPECT_GE(inj.faults_fired(), 4u);
}

TEST(FaultPool, TaskFaultThrowsAtNthDispatch) {
  FaultInjector inj(0, FaultPlan::parse("task@2"));
  ThreadPool pool(1);
  pool.set_fault_injector(&inj);
  std::atomic<int> ran{0};
  const auto job = [&](int, std::int64_t, std::int64_t) { ++ran; };
  pool.parallel_for_dynamic(8, 1, job);  // dispatch 0
  pool.parallel_for_dynamic(8, 1, job);  // dispatch 1
  EXPECT_THROW(pool.parallel_for_dynamic(8, 1, job), ThreadPoolTaskError);
  // The pool survives the throw and keeps dispatching.
  pool.set_fault_injector(nullptr);
  ran = 0;
  pool.parallel_for_dynamic(8, 1, job);
  EXPECT_EQ(ran.load(), 8);
}

TEST(FaultPool, TaskFaultCrossesWorkerBoundaryOnMultiSlotPools) {
  // With >1 slot the throw happens on a worker thread and must travel
  // through the pool's record-and-rethrow-after-join machinery.
  FaultInjector inj(0, FaultPlan::parse("task@0"));
  ThreadPool pool(4);
  pool.set_fault_injector(&inj);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for_dynamic(
                   64, 1, [&](int, std::int64_t, std::int64_t) { ++ran; }),
               ThreadPoolTaskError);
  // The faulted task ran to completion before throwing (fault-at-end
  // semantics), so no chunk is silently lost besides the injected error.
  EXPECT_GE(ran.load(), 1);
  pool.set_fault_injector(nullptr);
  ran = 0;
  pool.parallel_for_dynamic(64, 1,
                            [&](int, std::int64_t, std::int64_t) { ++ran; });
  EXPECT_EQ(ran.load(), 64);
}

TEST(FaultDevice, MemCapSqueezeThrowsOomAndRecordsEvent) {
  FaultInjector inj(0, FaultPlan::parse("mem-cap=1024"));
  Device dev;
  dev.set_fault_injector(&inj, 0);
  EXPECT_NO_THROW(DeviceBuffer<vid_t>(dev, 64, "small"));  // under the cap
  EXPECT_THROW(DeviceBuffer<vid_t>(dev, 4096, "big"), DeviceOutOfMemory);
  EXPECT_GE(inj.faults_fired(), 1u);
  RunHealth health;
  inj.report_into(health);
  bool saw = false;
  for (const auto& e : health.events) {
    if (e.find("mem-cap") != std::string::npos) saw = true;
  }
  EXPECT_TRUE(saw);
}

TEST(GpMetisFaults, TaskFaultInPureCpuRungRestartsOnce) {
  // Every kernel faults, so the ladder leaves the GPU; the first pool task
  // of the mt V-cycle then faults too.  The pure-CPU rung runs under
  // vcycle_run, which restarts the run once, and the run ends valid and
  // degraded.
  const auto g = delaunay_graph(4000, 3);
  PartitionOptions opts = gp_fault_opts();
  opts.fault_spec = "kernel:p=1.0;task@0";
  GpPhaseLog log;
  const auto r = gp_metis_run(g, opts, &log);
  EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty());
  EXPECT_TRUE(r.health.degraded);
  EXPECT_TRUE(log.cpu_fallback);
  EXPECT_EQ(r.health.rollbacks, 1u);
  bool restarted = false;
  for (const auto& e : r.health.events) {
    restarted |= e.find("whole-run restart after pool task fault") !=
                 std::string::npos;
  }
  EXPECT_TRUE(restarted);
}

/// Chaos campaign options (the default ChaosConfig) for one spec on the
/// campaign graph, with audits off: threads 1, one device host worker,
/// the CPU handoff at 150 vertices.
PartitionOptions chaos_spec_opts(const std::string& spec, int spec_index) {
  const ChaosConfig cfg;
  PartitionOptions opts;
  opts.k = cfg.k;
  opts.seed = cfg.partition_seed;
  opts.threads = 1;
  opts.gpu_host_workers = 1;
  opts.gpu_cpu_threshold = 150;
  opts.audit_level = AuditLevel::kOff;
  opts.time_budget_seconds = cfg.time_budget_seconds;
  opts.fault_spec = spec;
  opts.fault_seed = chaos_fault_seed(2026, spec_index);
  return opts;
}

TEST(GpMetisFaults, SecondFailedAuditLeavesTheGpu) {
  // The cmap rule damages a GPU level in each of the first two attempts,
  // and the handoff graph's guard fails both.  The second failed audit
  // leaves the GPU, and the pure-CPU rung returns a valid partition.
  const CsrGraph g = chaos_make_graph(ChaosConfig{});
  const PartitionOptions opts = chaos_spec_opts("cmap:p=0.05;payload@14", 121);
  GpPhaseLog log;
  const auto r = gp_metis_run(g, opts, &log);
  EXPECT_EQ(log.attempts, 2);
  EXPECT_TRUE(log.cpu_fallback);
  EXPECT_TRUE(r.health.degraded);
  EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty());
}

TEST(GpMetisFaults, CpuRungIsMtMetisRun) {
  // A lost device sends gp-metis to the pure-CPU rung before its pool
  // dispatches anything, so the rung sees the task fault exactly as an
  // mt-metis run does: the same partition after the same one restart.
  const CsrGraph g = chaos_make_graph(ChaosConfig{});
  const PartitionOptions opts = chaos_spec_opts("task@1;device0:lost", 0);
  GpPhaseLog log;
  const auto gp = gp_metis_run(g, opts, &log);
  const auto mt = make_mt_partitioner()->run(g, opts);
  EXPECT_TRUE(log.cpu_fallback);
  EXPECT_EQ(gp.partition.where, mt.partition.where);
  EXPECT_EQ(gp.cut, mt.cut);
  EXPECT_EQ(gp.health.rollbacks, mt.health.rollbacks);
  EXPECT_EQ(mt.health.rollbacks, 1u);
  EXPECT_TRUE(validate_partition(g, gp.partition, gp.cut, gp.balance).empty());
}

TEST(GpMetisFaults, TaskFaultRetriesAndRecovers) {
  const auto g = delaunay_graph(4000, 2);
  PartitionOptions opts = gp_fault_opts();
  opts.fault_spec = "task@0";
  const auto r = gp_metis_run(g, opts, nullptr);
  EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty());
  EXPECT_TRUE(r.health.degraded);
  EXPECT_GE(r.health.gpu_retries, 1u);
}

}  // namespace
}  // namespace gp
