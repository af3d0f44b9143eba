// Tests for the stage-1 cost model: full vs partial consistency (the core
// correctness property behind the annealer's incremental deltas), the p2
// normalization (Eqn 9), and the three-term composition.
#include <gtest/gtest.h>

#include "place/cost.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

struct Fixture {
  Netlist nl;
  Placement placement;
  Rect core{-300, -300, 300, 300};
  OverlapEngine overlap;
  CostModel model;

  explicit Fixture(std::uint64_t seed = 1)
      : nl(generate_circuit(tiny_circuit(seed))),
        placement(nl),
        overlap(placement, core, {}),
        model(placement, overlap, {}) {
    Rng rng(seed);
    placement.randomize(rng, core);
    overlap.refresh_all();
  }
};

TEST(Cost, FullTermsNonNegative) {
  Fixture f;
  const CostTerms t = f.model.full();
  EXPECT_GT(t.c1, 0.0);
  EXPECT_GE(t.c2_raw, 0.0);
  EXPECT_GE(t.c3, 0.0);
  EXPECT_DOUBLE_EQ(t.total(2.0), t.c1 + 2.0 * t.c2_raw + t.c3);
}

TEST(Cost, C1MatchesTeic) {
  Fixture f;
  EXPECT_DOUBLE_EQ(f.model.full().c1, f.placement.teic());
}

TEST(Cost, C2MatchesEngine) {
  Fixture f;
  EXPECT_DOUBLE_EQ(f.model.full().c2_raw,
                   static_cast<double>(f.overlap.total_overlap()));
}

TEST(Cost, PartialC1SubsetOfFull) {
  Fixture f;
  const CellId cells[] = {0};
  EXPECT_LE(f.model.partial_c1(cells), f.model.full().c1 + 1e-9);
}

TEST(Cost, DeltaConsistency_SingleCellMove) {
  // The invariant the annealer relies on: partial-before/after deltas match
  // full-recompute deltas exactly.
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Fixture f(seed);
    Rng rng(seed * 7 + 1);
    for (int trial = 0; trial < 30; ++trial) {
      const CellId i =
          static_cast<CellId>(rng.uniform_int(0, static_cast<std::int64_t>(f.nl.num_cells()) - 1));
      const CellId cells[] = {i};
      const CostTerms full_before = f.model.full();
      const double p1_before = f.model.partial_c1(cells);
      const double p2_before = f.model.partial_c2_raw(cells);
      const double p3_before = f.model.partial_c3(cells);

      f.placement.set_center(i, Point{rng.uniform_int(-250, 250),
                                      rng.uniform_int(-250, 250)});
      f.overlap.refresh(i);

      const CostTerms full_after = f.model.full();
      const double p1_after = f.model.partial_c1(cells);
      const double p2_after = f.model.partial_c2_raw(cells);
      const double p3_after = f.model.partial_c3(cells);

      EXPECT_NEAR(p1_after - p1_before, full_after.c1 - full_before.c1, 1e-6);
      EXPECT_NEAR(p2_after - p2_before, full_after.c2_raw - full_before.c2_raw,
                  1e-6);
      EXPECT_NEAR(p3_after - p3_before, full_after.c3 - full_before.c3, 1e-6);
    }
  }
}

TEST(Cost, DeltaConsistency_Interchange) {
  Fixture f(5);
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const auto n = static_cast<std::int64_t>(f.nl.num_cells());
    const CellId i = static_cast<CellId>(rng.uniform_int(0, n - 1));
    CellId j = i;
    while (j == i) j = static_cast<CellId>(rng.uniform_int(0, n - 1));
    const CellId cells[] = {i, j};

    const CostTerms full_before = f.model.full();
    const double p1b = f.model.partial_c1(cells);
    const double p2b = f.model.partial_c2_raw(cells);

    const Point ci = f.placement.state(i).center;
    const Point cj = f.placement.state(j).center;
    f.placement.set_center(i, cj);
    f.placement.set_center(j, ci);
    f.overlap.refresh(i);
    f.overlap.refresh(j);

    const CostTerms full_after = f.model.full();
    EXPECT_NEAR(f.model.partial_c1(cells) - p1b, full_after.c1 - full_before.c1,
                1e-6);
    EXPECT_NEAR(f.model.partial_c2_raw(cells) - p2b,
                full_after.c2_raw - full_before.c2_raw, 1e-6);
  }
}

TEST(Cost, DeltaConsistency_OrientationChange) {
  Fixture f(8);
  Rng rng(123);
  for (int trial = 0; trial < 30; ++trial) {
    const CellId i = static_cast<CellId>(
        rng.uniform_int(0, static_cast<std::int64_t>(f.nl.num_cells()) - 1));
    const CellId cells[] = {i};
    const CostTerms fb = f.model.full();
    const double p1b = f.model.partial_c1(cells);
    const double p2b = f.model.partial_c2_raw(cells);
    f.placement.set_orient(
        i, kAllOrients[static_cast<std::size_t>(rng.uniform_int(0, 7))]);
    f.overlap.refresh(i);
    const CostTerms fa = f.model.full();
    EXPECT_NEAR(f.model.partial_c1(cells) - p1b, fa.c1 - fb.c1, 1e-6);
    EXPECT_NEAR(f.model.partial_c2_raw(cells) - p2b, fa.c2_raw - fb.c2_raw,
                1e-6);
  }
}

TEST(Cost, PartialC2CountsSetPairsOnce) {
  // partial over {i, j} must equal the full-overlap change of moving both:
  // verify against a brute-force recompute.
  Fixture f(11);
  const CellId cells[] = {0, 1};
  // Brute force contribution of cells {0,1}: all pairs touching them.
  Coord brute = f.overlap.border_overlap(0) + f.overlap.border_overlap(1) +
                f.overlap.pair_overlap(0, 1);
  const auto n = static_cast<CellId>(f.nl.num_cells());
  for (CellId k = 2; k < n; ++k)
    brute += f.overlap.pair_overlap(0, k) + f.overlap.pair_overlap(1, k);
  EXPECT_DOUBLE_EQ(f.model.partial_c2_raw(cells), static_cast<double>(brute));
}

TEST(Cost, CalibrationTargetsEta) {
  Fixture f(3);
  Rng rng(17);
  const double p2 = f.model.calibrate_p2(f.placement, f.overlap, f.core, rng, 32);
  EXPECT_GT(p2, 0.0);
  // After calibration, sampling fresh random states should give
  // p2 * avg(C2) ~ eta * avg(C1) within sampling noise.
  double sum_c1 = 0.0, sum_c2 = 0.0;
  for (int s = 0; s < 32; ++s) {
    f.placement.randomize(rng, f.core);
    f.overlap.refresh_all();
    sum_c1 += f.placement.teic();
    sum_c2 += static_cast<double>(f.overlap.total_overlap());
  }
  const double ratio = p2 * sum_c2 / sum_c1;
  EXPECT_NEAR(ratio, f.model.params().eta, 0.3);
}

TEST(Cost, CalibrationRespondsToEta) {
  Fixture f(3);
  Rng r1(17), r2(17);
  CostModel weak(f.placement, f.overlap, CostParams{0.25});
  CostModel strong(f.placement, f.overlap, CostParams{1.0});
  const double p_weak = weak.calibrate_p2(f.placement, f.overlap, f.core, r1, 16);
  const double p_strong =
      strong.calibrate_p2(f.placement, f.overlap, f.core, r2, 16);
  EXPECT_NEAR(p_strong / p_weak, 4.0, 0.1);
}

TEST(Cost, C3ReflectsSiteOverloads) {
  Netlist nl;
  const NetId n = nl.add_net("n");
  const CellId c = nl.add_custom("c", 64, 1.0, 1.0, 8);
  const CellId d = nl.add_macro("d", {Rect{0, 0, 5, 5}});
  for (int i = 0; i < 3; ++i)
    nl.add_edge_pin(c, "p" + std::to_string(i), n);
  nl.add_fixed_pin(d, "q", n, Point{0, 0});
  Placement placement(nl);
  OverlapEngine overlap(placement, Rect{-50, -50, 50, 50}, {});
  CostModel model(placement, overlap, {});
  for (int i = 0; i < 3; ++i) placement.assign_pin_to_site(c, i, 0);
  EXPECT_DOUBLE_EQ(model.full().c3, 49.0);
  const CellId cells[] = {c};
  EXPECT_DOUBLE_EQ(model.partial_c3(cells), 49.0);
  const CellId other[] = {d};
  EXPECT_DOUBLE_EQ(model.partial_c3(other), 0.0);
}

}  // namespace
}  // namespace tw
