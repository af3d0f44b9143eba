// Tests for the multilevel flow (src/flow/multilevel + warm_start):
// same-seed byte-identical determinism, warm-start source behavior, and
// the known-optimum quality comparison against a flat anneal under the
// same RunBudget. The SoC-tier smokes live in test_soc.cpp.
#include <gtest/gtest.h>

#include "fingerprint.hpp"
#include "flow/multilevel.hpp"
#include "place/stage1.hpp"
#include "workload/generator.hpp"
#include "workload/known_optimum.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

/// Compact anneal parameters that finish in test time.
Stage1Params fast_stage1(int attempts_per_cell = 12) {
  Stage1Params p;
  p.attempts_per_cell = attempts_per_cell;
  p.p2_samples = 6;
  return p;
}

MultilevelParams fast_multilevel(std::uint64_t seed) {
  MultilevelParams p;
  p.refine = fast_stage1();
  p.seed = seed;
  return p;
}

TEST(Multilevel, SameSeedRunsAreByteIdentical) {
  const Netlist nl = generate_circuit(tiny_circuit(5));
  std::string prints[2];
  for (auto& print : prints) {
    ClusterWarmStart warm({}, fast_stage1(8));
    MultilevelFlow flow(nl, warm, fast_multilevel(42));
    Placement placement(nl);
    const MultilevelResult r = flow.run(placement);
    EXPECT_EQ(r.outcome, recover::RunOutcome::kCompleted);
    EXPECT_EQ(r.warm_source, "cluster");
    EXPECT_GT(r.warm.clusters, 0);
    print = testing::fingerprint(placement, r);
  }
  EXPECT_EQ(prints[0], prints[1]);
}

TEST(Multilevel, SeedChangesTheRun) {
  const Netlist nl = generate_circuit(tiny_circuit(5));
  std::string prints[2];
  std::uint64_t seeds[2] = {42, 43};
  for (int i = 0; i < 2; ++i) {
    ClusterWarmStart warm({}, fast_stage1(8));
    MultilevelFlow flow(nl, warm, fast_multilevel(seeds[i]));
    Placement placement(nl);
    const MultilevelResult r = flow.run(placement);
    prints[i] = testing::fingerprint(placement, r);
  }
  EXPECT_NE(prints[0], prints[1]);
}

TEST(Multilevel, QuadraticWarmStartRuns) {
  const Netlist nl = generate_circuit(tiny_circuit(5));
  QuadraticWarmStart warm;
  MultilevelFlow flow(nl, warm, fast_multilevel(7));
  Placement placement(nl);
  const MultilevelResult r = flow.run(placement);
  EXPECT_EQ(r.outcome, recover::RunOutcome::kCompleted);
  EXPECT_EQ(r.warm_source, "quadratic");
  EXPECT_EQ(r.warm.clusters, 0);
  EXPECT_GT(r.warm.teil, 0.0);
  EXPECT_GT(r.final_teil, 0.0);
}

TEST(Multilevel, BudgetExpiryWindsDownGracefully) {
  const Netlist nl = generate_circuit(tiny_circuit(5));
  recover::RunBudget budget(400, recover::RunBudget::kUnlimited);
  ClusterWarmStart warm({}, fast_stage1(8));
  MultilevelParams params = fast_multilevel(7);
  params.recover.budget = &budget;
  MultilevelFlow flow(nl, warm, params);
  Placement placement(nl);
  const MultilevelResult r = flow.run(placement);
  EXPECT_EQ(r.outcome, recover::RunOutcome::kBudgetExhausted);
  EXPECT_GT(r.final_teil, 0.0);
}

TEST(Multilevel, RejectsBadRefineTFactor) {
  const Netlist nl = generate_circuit(tiny_circuit(5));
  ClusterWarmStart warm({}, fast_stage1(8));
  MultilevelParams params = fast_multilevel(7);
  params.refine_t_factor = 1.0;
  EXPECT_THROW(MultilevelFlow(nl, warm, params), std::invalid_argument);
}

/// The acceptance experiment at unit-test size: on a known-optimum grid
/// instance, the multilevel flow must reach a lower final TEIL than a flat
/// stage-1 anneal given the same move budget.
TEST(Multilevel, BeatsFlatAnnealOnKnownOptimumUnderSameBudget) {
  const KnownOptimumCircuit ko = known_optimum_circuit({/*grid=*/8,
                                                        /*cell_size=*/40,
                                                        /*seed=*/3});
  const std::int64_t kMoves = 60000;

  double flat_teil = 0.0;
  {
    recover::RunBudget budget(kMoves, recover::RunBudget::kUnlimited);
    Stage1Params sp = fast_stage1();
    Stage1Placer flat(ko.netlist, sp, derive_seed(21, "stage1"));
    Stage1Hooks hooks;
    hooks.budget = &budget;
    flat.set_hooks(hooks);
    Placement placement(ko.netlist);
    flat.run(placement);
    flat_teil = placement.teil();
  }

  double ml_teil = 0.0;
  {
    recover::RunBudget budget(kMoves, recover::RunBudget::kUnlimited);
    ClusterWarmStart warm({}, fast_stage1());
    MultilevelParams params = fast_multilevel(21);
    params.recover.budget = &budget;
    MultilevelFlow flow(ko.netlist, warm, params);
    Placement placement(ko.netlist);
    const MultilevelResult r = flow.run(placement);
    ml_teil = r.final_teil;
  }

  EXPECT_LT(ml_teil, flat_teil)
      << "multilevel " << ml_teil << " vs flat " << flat_teil
      << " (optimum " << ko.optimal_teil << ")";
}

/// The probe gate: deriving the refinement's starting temperature from
/// the warm placement must not re-scramble a good warm start. On the
/// known-optimum instance the probed run has to stay in the same quality
/// band as the fixed-factor run (the failure mode being guarded against —
/// probing far too hot — lands 2-3x worse, far outside the band), and the
/// probe must not cost quality against the flat-anneal baseline either.
TEST(Multilevel, ProbedRefineTemperatureKeepsKnownOptimumQuality) {
  const KnownOptimumCircuit ko = known_optimum_circuit({/*grid=*/8,
                                                        /*cell_size=*/40,
                                                        /*seed=*/3});
  const std::int64_t kMoves = 60000;

  const auto run_ml = [&](bool probe) {
    recover::RunBudget budget(kMoves, recover::RunBudget::kUnlimited);
    ClusterWarmStart warm({}, fast_stage1());
    MultilevelParams params = fast_multilevel(21);
    params.probe_refine_t = probe;
    params.recover.budget = &budget;
    MultilevelFlow flow(ko.netlist, warm, params);
    Placement placement(ko.netlist);
    const MultilevelResult r = flow.run(placement);
    EXPECT_GT(r.final_teil, 0.0);
    return r.final_teil;
  };

  const double probed = run_ml(true);
  const double fixed = run_ml(false);
  EXPECT_LT(probed, 1.25 * fixed)
      << "probed " << probed << " vs fixed " << fixed
      << " (optimum " << ko.optimal_teil << ")";
}

}  // namespace
}  // namespace tw
