// Silent-corruption defense, end to end (DESIGN.md §3.5): for every
// partitioning system, a seeded corruption plan must (a) terminate with a
// structurally valid partition, (b) leave a corruption -> audit-failure ->
// rollback chain in RunHealth, and (c) replay byte-identically for the
// same (fault_seed, fault_spec) — including the event trail.
#include <gtest/gtest.h>

#include "core/partitioner.hpp"
#include "gen/generators.hpp"
#include "gpu/device.hpp"
#include "hybrid/gp_partitioner.hpp"
#include "hybrid/multi_gpu_partitioner.hpp"
#include "mt/mt_partitioner.hpp"
#include "par/parmetis_partitioner.hpp"
#include "serial/metis_partitioner.hpp"
#include "util/fault.hpp"

namespace gp {
namespace {

bool has_event_containing(const RunHealth& h, const std::string& needle) {
  for (const auto& e : h.events) {
    if (e.find(needle) != std::string::npos) return true;
  }
  return false;
}

PartitionOptions corruption_opts() {
  PartitionOptions opts;
  opts.k = 4;
  opts.threads = 1;          // bit-deterministic shared-memory phases
  opts.gpu_host_workers = 1; // bit-deterministic kernels
  opts.audit_level = AuditLevel::kPhase;
  opts.fault_seed = 17;
  return opts;
}

// ------------------------------------------------------------- serial

TEST(CorruptionSerial, CmapPerturbationIsCaughtRolledBackAndDeterministic) {
  const auto g = delaunay_graph(4000, 3);
  PartitionOptions opts = corruption_opts();
  opts.fault_spec = "cmap@0";
  const auto r0 = SerialMetisPartitioner{}.run(g, opts);
  const auto r1 = SerialMetisPartitioner{}.run(g, opts);
  EXPECT_TRUE(validate_partition(g, r0.partition, r0.cut, r0.balance).empty());
  EXPECT_EQ(r0.health.corruptions_injected, 1u);
  EXPECT_GE(r0.health.audits_failed, 1u);
  EXPECT_GE(r0.health.rollbacks, 1u);
  EXPECT_TRUE(r0.health.degraded);
  EXPECT_TRUE(has_event_containing(r0.health, "audit:"));
  EXPECT_TRUE(has_event_containing(r0.health, "rollback:"));
  // Byte-identical replay: partition, counters, and the event trail.
  EXPECT_EQ(r0.partition.where, r1.partition.where);
  EXPECT_EQ(r0.health, r1.health);
  EXPECT_EQ(r0.cut, r1.cut);
}

TEST(CorruptionSerial, WithoutAuditsTheCorruptionGoesUndetected) {
  // The control experiment: the same plan at audit off terminates (the
  // cmap perturbation stays in-range by construction) but nothing fires.
  const auto g = delaunay_graph(4000, 3);
  PartitionOptions opts = corruption_opts();
  opts.audit_level = AuditLevel::kOff;
  opts.fault_spec = "cmap@0";
  const auto r = SerialMetisPartitioner{}.run(g, opts);
  EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty());
  EXPECT_EQ(r.health.corruptions_injected, 1u);
  EXPECT_EQ(r.health.audits_failed, 0u);
  EXPECT_EQ(r.health.rollbacks, 0u);
}

TEST(CorruptionSerial, AuditsAloneDoNotChangeThePartition) {
  // Audits observe, never steer: with no faults, phase-level auditing
  // must reproduce the audit-off partition bit for bit.
  const auto g = delaunay_graph(4000, 3);
  PartitionOptions off = corruption_opts();
  off.audit_level = AuditLevel::kOff;
  PartitionOptions phase = corruption_opts();
  const auto r_off = SerialMetisPartitioner{}.run(g, off);
  const auto r_phase = SerialMetisPartitioner{}.run(g, phase);
  EXPECT_EQ(r_off.partition.where, r_phase.partition.where);
  EXPECT_GT(r_phase.health.audits_run, 0u);
  EXPECT_EQ(r_phase.health.audits_failed, 0u);
  EXPECT_FALSE(r_phase.health.degraded);
}

// ------------------------------------------------------------ mt-metis

TEST(CorruptionMt, CmapPerturbationIsCaughtRolledBackAndDeterministic) {
  const auto g = delaunay_graph(4000, 3);
  PartitionOptions opts = corruption_opts();
  opts.fault_spec = "cmap@0";
  const auto r0 = MtMetisPartitioner{}.run(g, opts);
  const auto r1 = MtMetisPartitioner{}.run(g, opts);
  EXPECT_TRUE(validate_partition(g, r0.partition, r0.cut, r0.balance).empty());
  EXPECT_EQ(r0.health.corruptions_injected, 1u);
  EXPECT_GE(r0.health.audits_failed, 1u);
  EXPECT_GE(r0.health.rollbacks, 1u);
  EXPECT_TRUE(r0.health.degraded);
  EXPECT_EQ(r0.partition.where, r1.partition.where);
  EXPECT_EQ(r0.health, r1.health);
}

TEST(CorruptionMt, ProbabilisticCmapStormStillTerminatesValid) {
  const auto g = delaunay_graph(4000, 3);
  PartitionOptions opts = corruption_opts();
  opts.fault_spec = "cmap:p=0.5";
  const auto r0 = MtMetisPartitioner{}.run(g, opts);
  const auto r1 = MtMetisPartitioner{}.run(g, opts);
  EXPECT_TRUE(validate_partition(g, r0.partition, r0.cut, r0.balance).empty());
  EXPECT_GT(r0.health.corruptions_injected, 0u);
  EXPECT_EQ(r0.partition.where, r1.partition.where);
  EXPECT_EQ(r0.health, r1.health);
}

// ------------------------------------------------------------- gp-metis

TEST(CorruptionGp, TransferFlipIsCaughtRolledBackAndDeterministic) {
  const auto g = delaunay_graph(4000, 3);
  PartitionOptions opts = corruption_opts();
  opts.gpu_cpu_threshold = 500;
  opts.fault_spec = "flip@1";  // second payload-carrying device transfer
  const auto r0 = gp_metis_run(g, opts, nullptr);
  const auto r1 = gp_metis_run(g, opts, nullptr);
  EXPECT_TRUE(validate_partition(g, r0.partition, r0.cut, r0.balance).empty());
  EXPECT_EQ(r0.health.corruptions_injected, 1u);
  EXPECT_GE(r0.health.audits_failed, 1u);
  EXPECT_TRUE(r0.health.degraded);
  EXPECT_TRUE(has_event_containing(r0.health, "audit:"));
  EXPECT_EQ(r0.partition.where, r1.partition.where);
  EXPECT_EQ(r0.health, r1.health);
}

TEST(CorruptionGp, FlipStormAcrossSeedsAlwaysTerminatesValid) {
  // Acceptance shape: probabilistic flips + phase audits.  Every seed
  // must end in a valid partition, by recovery or by clean luck.
  const auto g = delaunay_graph(4000, 3);
  for (const std::uint64_t fs : {1u, 2u, 3u, 4u, 5u}) {
    PartitionOptions opts = corruption_opts();
    opts.gpu_cpu_threshold = 500;
    opts.fault_spec = "flip:p=0.05";
    opts.fault_seed = fs;
    const auto r = gp_metis_run(g, opts, nullptr);
    EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty())
        << "fault_seed " << fs;
    if (r.health.audits_failed > 0) {
      EXPECT_TRUE(has_event_containing(r.health, "audit:")) << fs;
      EXPECT_TRUE(r.health.degraded) << fs;
    }
  }
}

TEST(CorruptionGp, EscalationReachesCpuFallbackUnderSaturation) {
  // Every device transfer corrupted: no GPU attempt can pass its audits,
  // so the ladder must walk down to the transfer-free pure-CPU rung and
  // emerge with a valid partition.
  const auto g = delaunay_graph(4000, 3);
  PartitionOptions opts = corruption_opts();
  opts.gpu_cpu_threshold = 500;
  opts.fault_spec = "flip:p=1.0";
  const auto r0 = gp_metis_run(g, opts, nullptr);
  const auto r1 = gp_metis_run(g, opts, nullptr);
  EXPECT_TRUE(validate_partition(g, r0.partition, r0.cut, r0.balance).empty());
  EXPECT_TRUE(r0.health.degraded);
  EXPECT_GE(r0.health.fallbacks, 1u);
  EXPECT_GE(r0.health.audits_failed, 1u);
  EXPECT_EQ(r0.partition.where, r1.partition.where);
  EXPECT_EQ(r0.health, r1.health);
}

TEST(CorruptionGp, ContractionInvariantRollsBackWithoutAudits) {
  // With audits off a perturbed cmap reaches the device contraction.  A
  // perturbed leader breaks its first-scan invariant: the V-cycle rolls
  // that level back onto the reference contraction, with no attempt
  // restart.  A perturbed mate yields an asymmetric coarse graph, which
  // the handoff guard (on whenever an injector is attached) rejects after
  // the level was kept, so the attempt restarts, unless the damage happens
  // to cancel out.
  const auto g = delaunay_graph(4000, 3);
  int caught = 0;
  int caught_at_handoff = 0;
  for (const std::uint64_t fs : {1u, 2u, 3u, 4u, 5u, 6u}) {
    PartitionOptions opts = corruption_opts();
    opts.audit_level = AuditLevel::kOff;
    opts.gpu_cpu_threshold = 500;
    opts.fault_spec = "cmap@0";
    opts.fault_seed = fs;
    const auto r = gp_metis_run(g, opts, nullptr);
    EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty())
        << "fault_seed " << fs;
    EXPECT_EQ(r.health.corruptions_injected, 1u) << fs;
    EXPECT_EQ(r.health.audits_run, 0u) << fs;
    if (has_event_containing(r.health, "first scan total")) {
      ++caught;
      EXPECT_EQ(r.health.rollbacks, 1u) << fs;
      EXPECT_TRUE(has_event_containing(r.health, "rollback: coarsen/L")) << fs;
      EXPECT_EQ(r.health.gpu_retries, 0u) << fs;
    } else if (has_event_containing(r.health, "csr/well-formedness")) {
      ++caught_at_handoff;
      EXPECT_EQ(r.health.rollbacks, 1u) << fs;
      EXPECT_EQ(r.health.gpu_retries, 1u) << fs;
    } else {
      EXPECT_EQ(r.health.rollbacks, 0u) << fs;
    }
  }
  EXPECT_GT(caught, 0) << "no fault seed perturbed a leader; pick others";
  EXPECT_GT(caught_at_handoff, 0) << "no fault seed perturbed a mate";
}

// -------------------------------------------------------- gp-metis-multi

TEST(CorruptionMultiGpu, TransferFlipIsCaughtAndDeterministic) {
  const auto g = delaunay_graph(6000, 5);
  PartitionOptions opts = corruption_opts();
  opts.gpu_devices = 2;
  opts.gpu_cpu_threshold = 500;
  opts.fault_spec = "flip@2";
  const auto r0 = multi_gpu_run(g, opts, nullptr);
  const auto r1 = multi_gpu_run(g, opts, nullptr);
  EXPECT_TRUE(validate_partition(g, r0.partition, r0.cut, r0.balance).empty());
  EXPECT_EQ(r0.health.corruptions_injected, 1u);
  EXPECT_GE(r0.health.audits_failed, 1u);
  EXPECT_TRUE(r0.health.degraded);
  EXPECT_GE(r0.health.rollbacks, 1u);
  EXPECT_EQ(r0.partition.where, r1.partition.where);
  EXPECT_EQ(r0.health, r1.health);
}

TEST(CorruptionMultiGpu, FlipSaturationDegradesToCpuThenTerminates) {
  const auto g = delaunay_graph(6000, 5);
  PartitionOptions opts = corruption_opts();
  opts.gpu_devices = 2;
  opts.gpu_cpu_threshold = 500;
  opts.fault_spec = "flip:p=1.0";
  const auto r = multi_gpu_run(g, opts, nullptr);
  EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty());
  EXPECT_TRUE(r.health.degraded);
  EXPECT_GE(r.health.fallbacks, 1u);
}

// ------------------------------------------------------- both GPU drivers

TEST(CorruptionGpuDrivers, FlipSweepWithoutAuditsEndsValidDegradedOrTyped) {
  // With audits off, flip each of the first 60 payload-carrying device
  // transfers in turn.  The attached injector turns the upload and handoff
  // guards on, and gp-metis-multi's contraction checks the cmap it
  // indexes through, so no flip may become an out-of-bounds access: every
  // run ends valid, degraded with a trail, or with a typed error.  A flip
  // is a transient bus error, not a broken device: gp-metis-multi guards
  // its contraction uploads too, so no run may drop a device.
  const auto g = delaunay_graph(6000, 5);
  for (const bool multi : {false, true}) {
    for (int i = 0; i < 60; ++i) {
      PartitionOptions opts = corruption_opts();
      opts.audit_level = AuditLevel::kOff;
      opts.gpu_devices = 2;
      opts.gpu_cpu_threshold = 500;
      opts.fault_spec = "flip@" + std::to_string(i);
      SCOPED_TRACE((multi ? "gp-metis-multi " : "gp-metis ") + opts.fault_spec);
      try {
        const auto r = multi ? multi_gpu_run(g, opts, nullptr)
                             : gp_metis_run(g, opts, nullptr);
        EXPECT_TRUE(
            validate_partition(g, r.partition, r.cut, r.balance).empty());
        EXPECT_EQ(r.health.audits_run, 0u);
        EXPECT_TRUE(!r.health.degraded || !r.health.events.empty());
        EXPECT_EQ(r.health.devices_lost, 0u);
      } catch (const AuditError&) {
      } catch (const DeviceFailure& e) {
        EXPECT_FALSE(multi) << e.what();
      } catch (const DeviceOutOfMemory&) {
      }
    }
  }
}

// --------------------------------------------------------------- parmetis

TEST(CorruptionParMetis, GarbledPayloadTerminatesValidAndAccountably) {
  // Rank compute races by design (shared-address-space matching), so the
  // partition vector is not compared across runs; the injection schedule
  // and final validity are.
  const auto g = delaunay_graph(6000, 11);
  PartitionOptions opts = corruption_opts();
  opts.ranks = 4;
  opts.fault_spec = "payload@2";
  const auto r0 = ParMetisPartitioner{}.run(g, opts);
  const auto r1 = ParMetisPartitioner{}.run(g, opts);
  EXPECT_TRUE(validate_partition(g, r0.partition, r0.cut, r0.balance).empty());
  EXPECT_TRUE(validate_partition(g, r1.partition, r1.cut, r1.balance).empty());
  EXPECT_EQ(r0.health.corruptions_injected, 1u);
  EXPECT_EQ(r1.health.corruptions_injected, 1u);
}

TEST(CorruptionParMetis, PayloadStormIsHealedOrEscalated) {
  const auto g = delaunay_graph(6000, 11);
  PartitionOptions opts = corruption_opts();
  opts.ranks = 4;
  opts.fault_spec = "payload:p=0.3";
  const auto r = ParMetisPartitioner{}.run(g, opts);
  EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty());
  EXPECT_GT(r.health.corruptions_injected, 0u);
  // Every corrupted record is accounted for: discarded at the receive
  // bounds checks, healed by loss recovery, or escalated via an audit.
  EXPECT_TRUE(r.health.payload_discards > 0 || r.health.audits_failed > 0 ||
              r.health.match_repairs > 0 || r.health.messages_resent > 0);
}

// --------------------------------------------------------------- watchdog

TEST(Watchdog, ExpiredBudgetShedsRefinementButStaysValid) {
  const auto g = delaunay_graph(4000, 3);
  PartitionOptions opts = corruption_opts();
  opts.audit_level = AuditLevel::kOff;
  opts.time_budget_seconds = 1e-9;  // expired before the first phase ends
  const auto r = SerialMetisPartitioner{}.run(g, opts);
  EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty());
  EXPECT_TRUE(r.health.degraded);
  EXPECT_TRUE(has_event_containing(r.health, "watchdog:"));
}

TEST(Watchdog, GpuDriversRecordOneShedPerRun) {
  // The deadline expires before the CPU middle phase, so both that phase
  // and the GPU uncoarsening levels shed their refinement: one shed, one
  // fallback, one event.
  const auto g = delaunay_graph(20000, 3);
  PartitionOptions opts = corruption_opts();
  opts.audit_level = AuditLevel::kOff;
  opts.gpu_cpu_threshold = 2048;
  opts.time_budget_seconds = 1e-9;
  for (const auto& r :
       {gp_metis_run(g, opts, nullptr), multi_gpu_run(g, opts, nullptr)}) {
    EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty());
    EXPECT_TRUE(r.health.degraded);
    EXPECT_EQ(r.health.fallbacks, 1u);
    int sheds = 0;
    for (const auto& e : r.health.events) {
      if (e.rfind("watchdog:", 0) == 0) ++sheds;
    }
    EXPECT_EQ(sheds, 1);
  }
}

TEST(Watchdog, GenerousBudgetChangesNothing) {
  const auto g = delaunay_graph(4000, 3);
  PartitionOptions opts = corruption_opts();
  opts.audit_level = AuditLevel::kOff;
  const auto r0 = SerialMetisPartitioner{}.run(g, opts);
  opts.time_budget_seconds = 3600.0;
  const auto r1 = SerialMetisPartitioner{}.run(g, opts);
  EXPECT_EQ(r0.partition.where, r1.partition.where);
  EXPECT_EQ(r0.health, r1.health);
}

}  // namespace
}  // namespace gp
