// Crash-recovery determinism: kill the flow at an armed poll site via
// FaultPlan, resume from the latest on-disk checkpoint, and require the
// continued run to be byte-identical (hexfloat fingerprint) to the same
// seed run that was never interrupted. This is the strongest statement a
// checkpoint can make: nothing the annealer depends on — RNG stream,
// schedule position, calibrations, incremental cost state — was lost or
// recomputed differently.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "check/validate.hpp"
#include "fingerprint.hpp"
#include "flow/multilevel.hpp"
#include "flow/timberwolf.hpp"
#include "recover/budget.hpp"
#include "recover/checkpoint.hpp"
#include "recover/fault.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

using recover::CheckpointErrc;
using recover::CheckpointError;
using recover::FaultPlan;
using recover::FaultSite;
using recover::FlowCheckpoint;
using recover::InjectedFault;
using recover::RunOutcome;
using testing::fast_flow;
using testing::fingerprint;

constexpr std::uint64_t kSeed = 77;

std::string fresh_dir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/" + leaf;
  std::filesystem::remove_all(dir);
  return dir;
}

const Netlist& test_netlist() {
  static const Netlist nl = generate_circuit(tiny_circuit(21));
  return nl;
}

/// Fingerprint of the uninterrupted run — the ground truth every resumed
/// run must reproduce.
const std::string& baseline() {
  static const std::string fp = [] {
    Placement p(test_netlist());
    const FlowResult r = TimberWolfMC(test_netlist(), fast_flow(kSeed)).run(p);
    return fingerprint(p, r);
  }();
  return fp;
}

/// Runs the flow with a kill armed at (site, nth), proves the fault fired,
/// resumes from the newest checkpoint, and returns the continuation's
/// fingerprint (asserting its outcome is kResumed).
std::string kill_and_resume(FaultSite site, std::int64_t nth,
                            const std::string& leaf) {
  const std::string dir = fresh_dir(leaf);

  FaultPlan plan;
  plan.kill_at(site, nth);
  FlowParams params = fast_flow(kSeed);
  params.recover.checkpoint_dir = dir;
  params.recover.checkpoint_every = 1;
  params.recover.faults = &plan;

  {
    Placement doomed(test_netlist());
    EXPECT_THROW((void)TimberWolfMC(test_netlist(), params).run(doomed),
                 InjectedFault)
        << "site " << recover::to_string(site) << " poll " << nth
        << " never fired";
  }

  const auto latest = recover::find_latest_checkpoint(dir);
  EXPECT_TRUE(latest.has_value()) << "no checkpoint survived the crash";
  if (!latest) return {};
  const FlowCheckpoint cp = recover::load_checkpoint(*latest);

  FlowParams resume_params = fast_flow(kSeed);
  Placement p(test_netlist());
  const FlowResult r =
      TimberWolfMC(test_netlist(), resume_params).resume(p, cp);
  EXPECT_EQ(r.outcome, RunOutcome::kResumed);
  return fingerprint(p, r);
}

TEST(Resume, Stage1KilledAtEarlyStep) {
  EXPECT_EQ(kill_and_resume(FaultSite::kStage1Step, 1, "tw_res_s1a"),
            baseline());
}

TEST(Resume, Stage1KilledMidSchedule) {
  EXPECT_EQ(kill_and_resume(FaultSite::kStage1Step, 4, "tw_res_s1b"),
            baseline());
}

TEST(Resume, Stage1KilledLate) {
  EXPECT_EQ(kill_and_resume(FaultSite::kStage1Step, 9, "tw_res_s1c"),
            baseline());
}

TEST(Resume, Stage1KilledMidStepAtAnAccept) {
  // Dying between checkpoints loses the partial step; the resume replays
  // it from the last boundary and must still converge to the same bytes.
  EXPECT_EQ(kill_and_resume(FaultSite::kStage1Accept, 100, "tw_res_s1d"),
            baseline());
}

TEST(Resume, Stage2KilledAtFirstStep) {
  EXPECT_EQ(kill_and_resume(FaultSite::kStage2Step, 0, "tw_res_s2a"),
            baseline());
}

TEST(Resume, Stage2KilledLater) {
  EXPECT_EQ(kill_and_resume(FaultSite::kStage2Step, 3, "tw_res_s2b"),
            baseline());
}

TEST(Resume, Stage2KilledAtAPassBoundary) {
  EXPECT_EQ(kill_and_resume(FaultSite::kStage2Pass, 1, "tw_res_s2c"),
            baseline());
}

TEST(Resume, Stage3RoutingKilledAtAnEarlyNet) {
  // Dying inside stage-3 global routing loses the partial pass; the
  // resume replays it from the last checkpointed boundary and must still
  // converge to the same bytes.
  EXPECT_EQ(kill_and_resume(FaultSite::kRouteNet, 2, "tw_res_s3a"),
            baseline());
}

TEST(Resume, Stage3RoutingKilledDeepInThePass) {
  EXPECT_EQ(kill_and_resume(FaultSite::kRouteNet, 8, "tw_res_s3b"),
            baseline());
}

/// Observer for the budget wind-down test: records how much work the
/// budget had charged when stage-3 routing first polled, without ever
/// killing anything.
class RouteBudgetProbe final : public recover::FaultInjector {
 public:
  explicit RouteBudgetProbe(const recover::RunBudget* budget)
      : budget_(budget) {}

  void poll(FaultSite site) override {
    if (site != FaultSite::kRouteNet) return;
    ++route_polls_;
    if (first_route_moves_ < 0)
      first_route_moves_ = budget_->moves_charged();
  }

  std::int64_t first_route_moves() const { return first_route_moves_; }
  std::int64_t route_polls() const { return route_polls_; }

 private:
  const recover::RunBudget* budget_;
  std::int64_t first_route_moves_ = -1;
  std::int64_t route_polls_ = 0;
};

// A work quota that expires while stage-3 routing is under way must wind
// down gracefully: typed kBudgetExhausted outcome and a placement that
// still validates. (No fingerprint claim — budget counters are not part
// of the checkpoint, so a budgeted run is its own reproducible schedule,
// compared against nothing.)
TEST(Resume, BudgetExpiryDuringRoutingWindsDownToAValidPlacement) {
  // Measurement run: where does routing start, in budget-moves terms?
  recover::RunBudget unlimited;
  RouteBudgetProbe probe(&unlimited);
  FlowParams params = fast_flow(kSeed);
  params.recover.budget = &unlimited;
  params.recover.faults = &probe;
  {
    Placement p(test_netlist());
    const FlowResult r = TimberWolfMC(test_netlist(), params).run(p);
    ASSERT_EQ(r.outcome, RunOutcome::kCompleted);
  }
  ASSERT_GT(probe.route_polls(), 0) << "stage 3 never polled";
  ASSERT_GE(probe.first_route_moves(), 0);

  // Budgeted run: the quota lands just past the first routed net, so the
  // exhaustion is observed during (or immediately after) stage-3 work.
  recover::RunBudget budget(probe.first_route_moves() + 50,
                            recover::RunBudget::kUnlimited);
  RouteBudgetProbe confirm(&budget);
  FlowParams capped = fast_flow(kSeed);
  capped.recover.budget = &budget;
  capped.recover.faults = &confirm;
  Placement p(test_netlist());
  const FlowResult r = TimberWolfMC(test_netlist(), capped).run(p);

  EXPECT_EQ(r.outcome, RunOutcome::kBudgetExhausted);
  EXPECT_GT(confirm.route_polls(), 0)
      << "the quota fired before routing ever started";
  EXPECT_GE(budget.moves_charged(), probe.first_route_moves());
  const ValidationReport vr = validate_placement(p);
  EXPECT_TRUE(vr.ok()) << vr.str();
}

// --- multilevel flow --------------------------------------------------------

MultilevelParams fast_multilevel() {
  MultilevelParams p;
  p.refine.attempts_per_cell = 12;
  p.refine.p2_samples = 6;
  p.seed = kSeed;
  return p;
}

Stage1Params fast_coarse() {
  Stage1Params p;
  p.attempts_per_cell = 8;
  p.p2_samples = 6;
  return p;
}

/// Ground truth for the multilevel resume tests: the uninterrupted run.
const std::string& ml_baseline() {
  static const std::string fp = [] {
    ClusterWarmStart warm({}, fast_coarse());
    MultilevelFlow flow(test_netlist(), warm, fast_multilevel());
    Placement p(test_netlist());
    const MultilevelResult r = flow.run(p);
    return fingerprint(p, r);
  }();
  return fp;
}

/// Kill inside the refinement anneal, resume from the newest checkpoint,
/// and require the continuation to be byte-identical to ml_baseline().
/// The warm start (clustering + coarse anneal) is not replayed on resume:
/// its outputs ride in the kMultilevelRefine checkpoint.
std::string ml_kill_and_resume(FaultSite site, std::int64_t nth,
                               const std::string& leaf) {
  const std::string dir = fresh_dir(leaf);

  FaultPlan plan;
  plan.kill_at(site, nth);
  MultilevelParams params = fast_multilevel();
  params.recover.checkpoint_dir = dir;
  params.recover.checkpoint_every = 1;
  params.recover.faults = &plan;

  {
    ClusterWarmStart warm({}, fast_coarse());
    MultilevelFlow doomed_flow(test_netlist(), warm, params);
    Placement doomed(test_netlist());
    EXPECT_THROW((void)doomed_flow.run(doomed), InjectedFault)
        << "site " << recover::to_string(site) << " poll " << nth
        << " never fired";
  }

  const auto latest = recover::find_latest_checkpoint(dir);
  EXPECT_TRUE(latest.has_value()) << "no checkpoint survived the crash";
  if (!latest) return {};
  const FlowCheckpoint cp = recover::load_checkpoint(*latest);
  EXPECT_EQ(cp.phase, recover::FlowPhase::kMultilevelRefine);

  ClusterWarmStart warm({}, fast_coarse());
  MultilevelFlow flow(test_netlist(), warm, fast_multilevel());
  Placement p(test_netlist());
  const MultilevelResult r = flow.resume(p, cp);
  EXPECT_EQ(r.outcome, RunOutcome::kResumed);
  return fingerprint(p, r);
}

TEST(Resume, MultilevelRefineKilledEarly) {
  EXPECT_EQ(ml_kill_and_resume(FaultSite::kStage1Step, 1, "tw_res_mla"),
            ml_baseline());
}

TEST(Resume, MultilevelRefineKilledMidSchedule) {
  EXPECT_EQ(ml_kill_and_resume(FaultSite::kStage1Step, 5, "tw_res_mlb"),
            ml_baseline());
}

TEST(Resume, MultilevelRefineKilledMidStepAtAnAccept) {
  // Dying between checkpoints loses the partial step; the resume replays
  // it from the last boundary and must still converge to the same bytes.
  EXPECT_EQ(ml_kill_and_resume(FaultSite::kStage1Accept, 120, "tw_res_mlc"),
            ml_baseline());
}

TEST(Resume, MultilevelRejectsForeignPhaseCheckpoint) {
  // A stage-1 checkpoint from the classic flow must be refused by the
  // multilevel resume with a typed error, not misinterpreted.
  const std::string dir = fresh_dir("tw_res_mlphase");
  FlowParams params = fast_flow(kSeed);
  params.recover.checkpoint_dir = dir;
  params.recover.checkpoint_every = 1;
  Placement p(test_netlist());
  (void)TimberWolfMC(test_netlist(), params).run(p);
  FlowCheckpoint cp =
      recover::load_checkpoint(*recover::find_latest_checkpoint(dir));
  ASSERT_NE(cp.phase, recover::FlowPhase::kMultilevelRefine);

  ClusterWarmStart warm({}, fast_coarse());
  MultilevelFlow flow(test_netlist(), warm, fast_multilevel());
  Placement p2(test_netlist());
  try {
    (void)flow.resume(p2, cp);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), CheckpointErrc::kCorrupt);
  }
}

TEST(Resume, FlowRejectsMultilevelCheckpoint) {
  // The mirror case: a multilevel-refine checkpoint carries a stage-1
  // cursor too, but the classic flow must refuse it with a typed error
  // rather than continue stage 1 from the multilevel refinement's cursor.
  const std::string dir = fresh_dir("tw_res_flowphase");
  ClusterWarmStart warm({}, fast_coarse());
  MultilevelParams params = fast_multilevel();
  params.recover.checkpoint_dir = dir;
  params.recover.checkpoint_every = 1;
  Placement p(test_netlist());
  (void)MultilevelFlow(test_netlist(), warm, params).run(p);
  FlowCheckpoint cp =
      recover::load_checkpoint(*recover::find_latest_checkpoint(dir));
  ASSERT_EQ(cp.phase, recover::FlowPhase::kMultilevelRefine);

  Placement p2(test_netlist());
  try {
    (void)TimberWolfMC(test_netlist(), fast_flow(kSeed)).resume(p2, cp);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), CheckpointErrc::kCorrupt);
  }
}

TEST(Resume, OldCheckpointVersionIsTypedError) {
  // Version-2 files (the pre-multilevel format) and version-4 files (the
  // last format with a parallel stage-1 phase) must be rejected with
  // kBadVersion by today's reader — no silent migration. The frame CRC
  // only covers the payload, so rewriting the version field alone forges
  // a structurally valid old-version file.
  const std::string dir = fresh_dir("tw_res_oldver");
  FlowParams params = fast_flow(kSeed);
  params.recover.checkpoint_dir = dir;
  params.recover.checkpoint_every = 1;
  Placement p(test_netlist());
  (void)TimberWolfMC(test_netlist(), params).run(p);
  const std::string path = *recover::find_latest_checkpoint(dir);

  for (const std::uint32_t old_version : {2u, 4u}) {
    SCOPED_TRACE(old_version);
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(4);  // magic "TWCP" | u32 version | ...
    f.write(reinterpret_cast<const char*>(&old_version), 4);
    f.close();

    try {
      (void)recover::load_checkpoint(path);
      FAIL() << "expected CheckpointError";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.code(), CheckpointErrc::kBadVersion);
    }
  }
}

TEST(Resume, NetlistMismatchIsTypedError) {
  const std::string dir = fresh_dir("tw_res_badnl");
  FlowParams params = fast_flow(kSeed);
  params.recover.checkpoint_dir = dir;
  params.recover.checkpoint_every = 1;
  Placement p(test_netlist());
  (void)TimberWolfMC(test_netlist(), params).run(p);
  const FlowCheckpoint cp =
      recover::load_checkpoint(*recover::find_latest_checkpoint(dir));

  const Netlist other = generate_circuit(tiny_circuit(22));
  Placement po(other);
  try {
    (void)TimberWolfMC(other, fast_flow(kSeed)).resume(po, cp);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), CheckpointErrc::kNetlistMismatch);
  }
}

TEST(Resume, SeedMismatchIsTypedError) {
  const std::string dir = fresh_dir("tw_res_badseed");
  FlowParams params = fast_flow(kSeed);
  params.recover.checkpoint_dir = dir;
  params.recover.checkpoint_every = 1;
  Placement p(test_netlist());
  (void)TimberWolfMC(test_netlist(), params).run(p);
  const FlowCheckpoint cp =
      recover::load_checkpoint(*recover::find_latest_checkpoint(dir));

  Placement p2(test_netlist());
  try {
    (void)TimberWolfMC(test_netlist(), fast_flow(kSeed + 1)).resume(p2, cp);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), CheckpointErrc::kSeedMismatch);
  }
}

}  // namespace
}  // namespace tw
