// Tests for the wire estimator and the dynamic interconnect-area estimator
// (Section 2.2): modulation functions, alpha normalization, pin-density
// factors, the dynamic position dependence, and initial core sizing.
#include <gtest/gtest.h>

#include "estimator/area_estimator.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

Netlist simple_circuit() {
  Netlist nl;
  const NetId n = nl.add_net("n");
  const CellId a = nl.add_macro("a", {Rect{0, 0, 40, 40}});
  const CellId b = nl.add_macro("b", {Rect{0, 0, 40, 40}});
  // All of a's pins on the right side -> high pin density there.
  nl.add_fixed_pin(a, "p0", n, Point{40, 10});
  nl.add_fixed_pin(a, "p1", n, Point{40, 20});
  nl.add_fixed_pin(a, "p2", n, Point{40, 30});
  nl.add_fixed_pin(b, "q0", n, Point{0, 20});
  return nl;
}

TEST(Modulation, PeaksAtCenterFallsToEdges) {
  Modulation m;
  m.core = {-50, -50, 50, 50};
  EXPECT_DOUBLE_EQ(m.fx(0), 2.0);
  EXPECT_DOUBLE_EQ(m.fx(50), 1.0);
  EXPECT_DOUBLE_EQ(m.fx(-50), 1.0);
  EXPECT_DOUBLE_EQ(m.fx(25), 1.5);
  EXPECT_DOUBLE_EQ(m.fy(0), 2.0);
  EXPECT_DOUBLE_EQ(m.fy(-50), 1.0);
}

TEST(Modulation, ClampsOutsideCore) {
  Modulation m;
  m.core = {-50, -50, 50, 50};
  EXPECT_DOUBLE_EQ(m.fx(200), 1.0);
  EXPECT_DOUBLE_EQ(m.fx(-200), 1.0);
}

TEST(Modulation, OffCenterCore) {
  Modulation m;
  m.core = {0, 0, 100, 100};
  EXPECT_DOUBLE_EQ(m.fx(50), 2.0);
  EXPECT_DOUBLE_EQ(m.fx(0), 1.0);
  EXPECT_DOUBLE_EQ(m.fx(100), 1.0);
}

TEST(Modulation, AlphaClosedForm) {
  Modulation m;  // M=2, B=1
  EXPECT_DOUBLE_EQ(m.alpha(), 2.25);  // ((2+1)/2)^2, Eqn 4
  m.mx = m.my = 3.0;
  m.bx = m.by = 1.0;
  EXPECT_DOUBLE_EQ(m.alpha(), 4.0);
}

TEST(Modulation, AlphaMatchesNumericalMean) {
  // alpha must equal the mean of fx*fy over the core (Eqn 3).
  Modulation m;
  m.mx = 2.0; m.bx = 1.0; m.my = 2.5; m.by = 0.5;
  m.core = {-100, -80, 100, 80};
  double sum = 0.0;
  int count = 0;
  for (Coord x = -100; x <= 100; x += 2)
    for (Coord y = -80; y <= 80; y += 2) {
      sum += m.fx(x) * m.fy(y);
      ++count;
    }
  // Inclusive endpoint sampling biases the discrete mean slightly low.
  EXPECT_NEAR(sum / count, m.alpha(), 0.03);
}

TEST(WireEstimator, MonotoneInAreaAndDegrees) {
  const Netlist nl = generate_circuit(tiny_circuit());
  WireEstimator est(nl);
  EXPECT_GT(est.total_length(1e6), est.total_length(1e4));
  EXPECT_GT(est.total_length(1e4), 0.0);
  EXPECT_GT(est.channel_width(500, 500), 0.0);
}

TEST(WireEstimator, ChannelWidthIsLengthOverChannelLength) {
  const Netlist nl = generate_circuit(tiny_circuit());
  WireEstimator est(nl);
  const double cw = est.channel_width(300, 300);
  const double nlen = est.total_length(300.0 * 300.0);
  const double cl = est.total_channel_length(300, 300);
  EXPECT_NEAR(cw, nlen / cl * static_cast<double>(nl.tech().track_separation),
              1e-9);
}

TEST(AreaEstimator, InitialCoreFitsCells) {
  const Netlist nl = generate_circuit(tiny_circuit());
  DynamicAreaEstimator est(nl);
  const Rect core = est.compute_initial_core();
  EXPECT_GT(core.area(), nl.total_cell_area());
  // Core is centered at the origin.
  EXPECT_LE(std::abs(core.xlo + core.xhi), 1);
  EXPECT_LE(std::abs(core.ylo + core.yhi), 1);
}

TEST(AreaEstimator, CoreRespectsAspect) {
  // The core is square (height/width 1) and holds the cells at the 0.85
  // packing efficiency: its area exceeds the cells' by at least 1/0.85.
  const Netlist nl = generate_circuit(tiny_circuit());
  DynamicAreaEstimator est(nl);
  const Rect core = est.compute_initial_core();
  EXPECT_LE(std::abs(core.height() - core.width()), 1);
  EXPECT_GE(static_cast<double>(core.area()),
            static_cast<double>(nl.total_cell_area()) / 0.85);
}

TEST(AreaEstimator, RejectsBadInputs) {
  const Netlist nl = generate_circuit(tiny_circuit());
  DynamicAreaEstimator est(nl);
  EXPECT_THROW(est.set_core(Rect{0, 0, 0, 0}), std::invalid_argument);
}

TEST(AreaEstimator, PinDensityFactorAtLeastOne) {
  const Netlist nl = simple_circuit();
  DynamicAreaEstimator est(nl);
  est.compute_initial_core();
  for (Side s : {Side::kLeft, Side::kRight, Side::kBottom, Side::kTop}) {
    EXPECT_GE(est.pin_density_factor(0, 0, s), 1.0);
    EXPECT_GE(est.pin_density_factor(1, 0, s), 1.0);
  }
}

TEST(AreaEstimator, DenseSideGetsBiggerFactor) {
  const Netlist nl = simple_circuit();
  DynamicAreaEstimator est(nl);
  est.compute_initial_core();
  // Cell a has 3 pins on its right edge and none elsewhere.
  EXPECT_GT(est.pin_density_factor(0, 0, Side::kRight),
            est.pin_density_factor(0, 0, Side::kLeft));
}

TEST(AreaEstimator, ExpansionLargerAtCoreCenter) {
  const Netlist nl = simple_circuit();
  DynamicAreaEstimator est(nl);
  const Rect core = est.compute_initial_core();
  const Coord center_exp =
      est.edge_expansion(0, 0, Orient::N, Side::kRight, Point{0, 0});
  const Coord corner_exp = est.edge_expansion(
      0, 0, Orient::N, Side::kRight, Point{core.xhi, core.yhi});
  EXPECT_GE(center_exp, corner_exp);
  EXPECT_GT(center_exp, 0);
}

TEST(AreaEstimator, CellEffectiveAreaGrowsTowardCenter) {
  // The paper's key dynamic property: moving a cell from a corner to the
  // center increases its effective (expanded) area.
  const Netlist nl = simple_circuit();
  DynamicAreaEstimator est(nl);
  const Rect core = est.compute_initial_core();
  const auto at_center = est.side_expansions(0, 0, Orient::N, Point{0, 0});
  const auto at_corner =
      est.side_expansions(0, 0, Orient::N, Point{core.xlo, core.ylo});
  Coord sum_center = 0, sum_corner = 0;
  for (int s = 0; s < 4; ++s) {
    sum_center += at_center[static_cast<std::size_t>(s)];
    sum_corner += at_corner[static_cast<std::size_t>(s)];
  }
  EXPECT_GT(sum_center, sum_corner);
}

TEST(AreaEstimator, OrientationRotatesPinDensity) {
  const Netlist nl = simple_circuit();
  DynamicAreaEstimator est(nl);
  est.compute_initial_core();
  // Under a 90-degree CCW rotation (W), the dense local Right side faces up.
  const auto n_exp = est.side_expansions(0, 0, Orient::N, Point{0, 0});
  const auto w_exp = est.side_expansions(0, 0, Orient::W, Point{0, 0});
  // N: dense side = right (index 1). W: dense side = top (index 3).
  EXPECT_EQ(n_exp[1], w_exp[3]);
  EXPECT_GE(n_exp[1], n_exp[0]);
}

TEST(AreaEstimator, NominalExpansionMatchesEqn5) {
  const Netlist nl = generate_circuit(tiny_circuit());
  DynamicAreaEstimator est(nl);
  est.compute_initial_core();
  const double expected =
      0.5 * est.channel_width() / est.modulation().alpha() *
      est.modulation().mx * est.modulation().my;
  EXPECT_DOUBLE_EQ(est.nominal_expansion(), expected);
}

TEST(AreaEstimator, ExpectedExpansionIsHalfChannelWidth) {
  // Property behind the alpha normalization: averaged over uniformly random
  // positions, e_w ~= 0.5 * C_W (for f_rp = 1 edges).
  const Netlist nl = generate_circuit(tiny_circuit(7));
  DynamicAreaEstimator est(nl);
  const Rect core = est.compute_initial_core();
  // Pick a side with f_rp == 1.
  CellId cell = kInvalidCell;
  Side side = Side::kLeft;
  for (const auto& c : nl.cells()) {
    for (Side s : {Side::kLeft, Side::kRight, Side::kBottom, Side::kTop})
      if (est.pin_density_factor(c.id, 0, s) == 1.0) {
        cell = c.id;
        side = s;
        break;
      }
    if (cell != kInvalidCell) break;
  }
  ASSERT_NE(cell, kInvalidCell);

  Rng rng(3);
  double sum = 0.0;
  const int samples = 4000;
  for (int i = 0; i < samples; ++i) {
    const Point p{rng.uniform_int(core.xlo, core.xhi),
                  rng.uniform_int(core.ylo, core.yhi)};
    sum += static_cast<double>(est.edge_expansion(cell, 0, Orient::N, side, p));
  }
  const double mean = sum / samples;
  // ceil() rounding biases up by < 0.5 grid units.
  EXPECT_NEAR(mean, 0.5 * est.channel_width(), 0.5 + 0.05 * est.channel_width());
}

}  // namespace
}  // namespace tw
