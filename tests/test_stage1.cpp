// Tests for the stage-1 annealing placer: improvement over random,
// overlap removal, determinism, trace structure, and the behavior the
// paper attributes to its knobs.
#include <gtest/gtest.h>

#include "place/stage1.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

Stage1Params fast_params() {
  Stage1Params p;
  p.attempts_per_cell = 12;  // keep unit tests quick
  p.p2_samples = 8;
  return p;
}

TEST(Stage1, ImprovesTeilOverRandom) {
  const Netlist nl = generate_circuit(tiny_circuit(1));
  // Random baseline: mean TEIL over a few random placements in the core.
  Stage1Placer placer(nl, fast_params(), 42);
  Placement placement(nl);
  const Stage1Result r = placer.run(placement);

  Placement rnd(nl);
  Rng rng(7);
  double random_teil = 0.0;
  for (int i = 0; i < 8; ++i) {
    rnd.randomize(rng, r.core);
    random_teil += rnd.teil();
  }
  random_teil /= 8.0;
  EXPECT_LT(r.final_teil, 0.8 * random_teil);
}

TEST(Stage1, RemovesMostOverlap) {
  const Netlist nl = generate_circuit(tiny_circuit(2));
  Stage1Placer placer(nl, fast_params(), 3);
  Placement placement(nl);
  const Stage1Result r = placer.run(placement);
  // The *bare* cell overlap (legality) must be a small fraction of the
  // total cell area. The reported residual_overlap additionally counts
  // shared routing margins (the estimator's expansions) and is larger.
  OverlapEngine bare(placement, r.core, {});
  EXPECT_LT(static_cast<double>(bare.total_overlap()),
            0.08 * static_cast<double>(nl.total_cell_area()));
  EXPECT_GE(r.residual_overlap, bare.total_overlap());
}

TEST(Stage1, DeterministicForSeed) {
  const Netlist nl = generate_circuit(tiny_circuit(3));
  Placement p1(nl), p2(nl);
  const Stage1Result r1 = Stage1Placer(nl, fast_params(), 11).run(p1);
  const Stage1Result r2 = Stage1Placer(nl, fast_params(), 11).run(p2);
  EXPECT_DOUBLE_EQ(r1.final_teic, r2.final_teic);
  EXPECT_EQ(r1.residual_overlap, r2.residual_overlap);
  for (const auto& c : nl.cells())
    EXPECT_EQ(p1.state(c.id).center, p2.state(c.id).center);
}

TEST(Stage1, DifferentSeedsDiffer) {
  const Netlist nl = generate_circuit(tiny_circuit(3));
  Placement p1(nl), p2(nl);
  const Stage1Result r1 = Stage1Placer(nl, fast_params(), 1).run(p1);
  const Stage1Result r2 = Stage1Placer(nl, fast_params(), 2).run(p2);
  EXPECT_NE(r1.final_teic, r2.final_teic);
}

TEST(Stage1, TraceStructure) {
  const Netlist nl = generate_circuit(tiny_circuit(4));
  Stage1Placer placer(nl, fast_params(), 5);
  Placement placement(nl);
  const Stage1Result r = placer.run(placement);
  ASSERT_GT(r.trace.size(), 10u);
  EXPECT_EQ(static_cast<int>(r.trace.size()), r.temperature_steps);
  // Temperatures strictly decrease; windows never grow.
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LT(r.trace[i].t, r.trace[i - 1].t);
    EXPECT_LE(r.trace[i].window_x, r.trace[i - 1].window_x);
  }
  // Acceptance near 100 percent at T_inf, low at the end.
  EXPECT_GT(r.trace.front().acceptance_rate, 0.85);
  EXPECT_LT(r.trace.back().acceptance_rate, 0.45);
}

TEST(Stage1, StopsAtMinimumWindow) {
  const Netlist nl = generate_circuit(tiny_circuit(5));
  Stage1Placer placer(nl, fast_params(), 5);
  Placement placement(nl);
  const Stage1Result r = placer.run(placement);
  EXPECT_EQ(r.trace.back().window_x, 6);
  EXPECT_LT(r.temperature_steps, kStage1MaxSteps);
}

TEST(Stage1, TInfinityScalesWithCellArea) {
  // Eqn 19: T_inf proportional to the average effective cell area.
  CircuitSpec small = tiny_circuit(6);
  CircuitSpec big = tiny_circuit(6);
  big.name = "big";
  big.mean_cell_dim = small.mean_cell_dim * 3;
  const Netlist nls = generate_circuit(small);
  const Netlist nlb = generate_circuit(big);
  Placement ps(nls), pb(nlb);
  const Stage1Result rs = Stage1Placer(nls, fast_params(), 1).run(ps);
  const Stage1Result rb = Stage1Placer(nlb, fast_params(), 1).run(pb);
  EXPECT_GT(rb.t_infinity, 4.0 * rs.t_infinity);
}

TEST(Stage1, CellsEndInsideCore) {
  const Netlist nl = generate_circuit(tiny_circuit(7));
  Stage1Placer placer(nl, fast_params(), 9);
  Placement placement(nl);
  const Stage1Result r = placer.run(placement);
  // Centers stay in the core by construction; the overwhelming share of
  // cell area must also lie inside (border penalty drives it in).
  Coord inside = 0, total = 0;
  for (const auto& c : nl.cells()) {
    for (const Rect& t : placement.absolute_tiles(c.id)) {
      total += t.area();
      inside += t.intersect(r.core).area();
    }
  }
  EXPECT_GT(static_cast<double>(inside), 0.9 * static_cast<double>(total));
}

TEST(Stage1, PinSitesNotOverloadedAtEnd) {
  CircuitSpec spec = tiny_circuit(8);
  spec.custom_fraction = 0.5;
  const Netlist nl = generate_circuit(spec);
  Stage1Placer placer(nl, fast_params(), 13);
  Placement placement(nl);
  const Stage1Result r = placer.run(placement);
  // kappa = 5 drives overloads to zero by the end of stage 1.
  EXPECT_LE(r.overloaded_sites, 1);
}

TEST(Stage1, RunsWithPureMacroCircuit) {
  CircuitSpec spec = tiny_circuit(9);
  spec.custom_fraction = 0.0;
  const Netlist nl = generate_circuit(spec);
  Stage1Placer placer(nl, fast_params(), 1);
  Placement placement(nl);
  const Stage1Result r = placer.run(placement);
  EXPECT_GT(r.final_teil, 0.0);
}

TEST(Stage1, RunsWithAllCustomCircuit) {
  CircuitSpec spec = tiny_circuit(10);
  spec.custom_fraction = 1.0;
  const Netlist nl = generate_circuit(spec);
  Stage1Placer placer(nl, fast_params(), 1);
  Placement placement(nl);
  const Stage1Result r = placer.run(placement);
  EXPECT_GT(r.final_teil, 0.0);
  EXPECT_EQ(placement.overloaded_sites(), r.overloaded_sites);
}

TEST(Stage1, AttemptCountScalesWithAc) {
  const Netlist nl = generate_circuit(tiny_circuit(11));
  Stage1Params p1 = fast_params();
  p1.attempts_per_cell = 5;
  Stage1Params p2 = fast_params();
  p2.attempts_per_cell = 10;
  Placement a(nl), b(nl);
  const Stage1Result r1 = Stage1Placer(nl, p1, 1).run(a);
  const Stage1Result r2 = Stage1Placer(nl, p2, 1).run(b);
  EXPECT_GT(r2.attempts, r1.attempts);
}

TEST(Stage1, MoreAttemptsNoWorseQuality) {
  const Netlist nl = generate_circuit(medium_circuit(1));
  Stage1Params lo = fast_params();
  lo.attempts_per_cell = 4;
  Stage1Params hi = fast_params();
  hi.attempts_per_cell = 40;
  double lo_sum = 0.0, hi_sum = 0.0;
  for (std::uint64_t s = 1; s <= 2; ++s) {
    Placement a(nl), b(nl);
    lo_sum += Stage1Placer(nl, lo, s).run(a).final_teil;
    hi_sum += Stage1Placer(nl, hi, s).run(b).final_teil;
  }
  EXPECT_LT(hi_sum, lo_sum * 1.05);
}

TEST(Stage1, NetWeightingShortensCriticalNet) {
  // Eqn 6's weighting factors: a heavily weighted net should end with a
  // clearly smaller span than the same net unweighted (averaged over
  // seeds). Build a circuit where one net competes against several others.
  auto build = [](double weight) {
    Netlist nl;
    const NetId critical = nl.add_net("critical", weight, weight);
    std::vector<NetId> rest;
    for (int i = 0; i < 6; ++i)
      rest.push_back(nl.add_net("n" + std::to_string(i)));
    for (int c = 0; c < 8; ++c)
      nl.add_macro("c" + std::to_string(c), {Rect{0, 0, 30, 30}});
    // The critical net joins cells 0 and 7; the rest form a chain that
    // pulls 0 and 7 apart.
    nl.add_fixed_pin(0, "crit", critical, Point{15, 15});
    nl.add_fixed_pin(7, "crit", critical, Point{15, 15});
    for (int i = 0; i < 6; ++i) {
      nl.add_fixed_pin(static_cast<CellId>(i), "a", rest[static_cast<std::size_t>(i)], Point{0, 15});
      nl.add_fixed_pin(static_cast<CellId>(i + 1), "b", rest[static_cast<std::size_t>(i)], Point{30, 15});
    }
    nl.validate();
    return nl;
  };

  double weighted = 0.0, unweighted = 0.0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const double w : {1.0, 8.0}) {
      const Netlist nl = build(w);
      Stage1Params params;
      params.attempts_per_cell = 25;
      params.p2_samples = 8;
      Stage1Placer placer(nl, params, seed * 101);
      Placement placement(nl);
      placer.run(placement);
      const Rect bb = placement.net_bbox(0);
      (w > 1.0 ? weighted : unweighted) +=
          static_cast<double>(bb.half_perimeter());
    }
  }
  EXPECT_LT(weighted, unweighted);
}

TEST(Stage1, P2Positive) {
  const Netlist nl = generate_circuit(tiny_circuit(12));
  Stage1Placer placer(nl, fast_params(), 2);
  Placement placement(nl);
  const Stage1Result r = placer.run(placement);
  EXPECT_GT(r.p2, 0.0);
}

}  // namespace
}  // namespace tw
