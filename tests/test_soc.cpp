// The SoC-tier smoke (ctest -L soc runs this binary, and only this one): a
// 1k-macro circuit through the full multilevel flow under a RunBudget, and
// flat against multilevel on a 1024-macro known optimum under the same
// move budget. Bounded by moves, not steps, so the cases finish in CI time
// at any optimization level; they take minutes under the sanitizers, which
// is why they sit apart from the fast multilevel cases in
// test_multilevel.cpp.
#include <gtest/gtest.h>

#include "flow/multilevel.hpp"
#include "place/stage1.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/known_optimum.hpp"

namespace tw {
namespace {

/// Compact anneal parameters that finish in test time.
Stage1Params fast_stage1(int attempts_per_cell) {
  Stage1Params p;
  p.attempts_per_cell = attempts_per_cell;
  p.p2_samples = 6;
  return p;
}

TEST(Soc, TierSpecsScale) {
  EXPECT_EQ(soc_circuit(SocTier::k1k).num_cells, 1000);
  EXPECT_EQ(soc_circuit(SocTier::k4k).num_cells, 4000);
  EXPECT_EQ(soc_circuit(SocTier::k10k).num_cells, 10000);
  EXPECT_EQ(soc_circuit(SocTier::k10k).num_pins, 140000);
}

TEST(Soc, MultilevelFlowSmoke1k) {
  const Netlist nl = generate_circuit(soc_circuit(SocTier::k1k, 2));
  ASSERT_EQ(nl.num_cells(), 1000u);

  recover::RunBudget budget(300000, recover::RunBudget::kUnlimited);
  ClusterWarmStart warm({}, fast_stage1(8));
  MultilevelParams params;
  params.refine = fast_stage1(8);
  params.seed = 9;
  params.recover.budget = &budget;
  MultilevelFlow flow(nl, warm, params);
  Placement placement(nl);
  const MultilevelResult r = flow.run(placement);

  EXPECT_GT(r.warm.clusters, 100);
  EXPECT_GT(r.warm.teil, 0.0);
  EXPECT_GT(r.final_teil, 0.0);
  EXPECT_EQ(r.outcome, recover::RunOutcome::kBudgetExhausted);
  // Note the warm placement's TEIL is not a lower bound for the
  // refinement: the projection leaves inter-cluster overlap, and
  // squeezing it out legitimately lengthens some nets. The quality
  // criterion (beating the flat anneal under the same budget) is the
  // next test.
}

/// The acceptance experiment at SoC scale: 1024 macros with a constructed
/// optimum, flat vs multilevel under the same move budget.
TEST(Soc, MultilevelBeatsFlatOn1kKnownOptimum) {
  const KnownOptimumCircuit ko = known_optimum_circuit({/*grid=*/32,
                                                        /*cell_size=*/40,
                                                        /*seed=*/3});
  ASSERT_EQ(ko.netlist.num_cells(), 1024u);
  const std::int64_t kMoves = 300000;

  double flat_teil = 0.0;
  {
    recover::RunBudget budget(kMoves, recover::RunBudget::kUnlimited);
    Stage1Placer flat(ko.netlist, fast_stage1(8), derive_seed(21, "stage1"));
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
    ClusterWarmStart warm({}, fast_stage1(8));
    MultilevelParams params;
    params.refine = fast_stage1(8);
    params.seed = 21;
    params.recover.budget = &budget;
    MultilevelFlow flow(ko.netlist, warm, params);
    Placement placement(ko.netlist);
    ml_teil = flow.run(placement).final_teil;
  }

  EXPECT_LT(ml_teil, flat_teil)
      << "multilevel " << ml_teil << " vs flat " << flat_teil
      << " (optimum " << ko.optimal_teil << ")";
}

}  // namespace
}  // namespace tw
