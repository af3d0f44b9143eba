// Edge cases across modules that the per-module suites do not cover:
// junction-region expansion handling, degenerate pin-site configurations,
// estimator core updates, and report stability.
#include <gtest/gtest.h>

#include "channel/channel_graph.hpp"
#include "flow/report.hpp"
#include "place/legalize.hpp"
#include "refine/stage2.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

TEST(Stage2Expansions, JunctionRegionsContributeNothing) {
  // A 4-cell cross produces junction regions; derive_expansions must skip
  // them (they have no bounding cell edges) without crashing.
  Netlist nl;
  const NetId n = nl.add_net("n");
  for (int i = 0; i < 4; ++i)
    nl.add_macro("c" + std::to_string(i), {Rect{0, 0, 10, 10}});
  nl.add_fixed_pin(0, "p", n, Point{10, 5});
  nl.add_fixed_pin(3, "q", n, Point{0, 5});
  Placement p(nl);
  p.set_center(0, Point{-8, -8});
  p.set_center(1, Point{8, -8});
  p.set_center(2, Point{-8, 8});
  p.set_center(3, Point{8, 8});
  const ChannelGraph cg = build_channel_graph(p, Rect{-30, -30, 30, 30});
  bool has_junction = false;
  for (const auto& r : cg.regions)
    if (r.is_junction()) has_junction = true;
  ASSERT_TRUE(has_junction);
  std::vector<int> densities(cg.regions.size(), 5);
  const auto exp = Stage2Refiner::derive_expansions(nl, cg, densities);
  // Every cell side bounding a channel gets (5+2+1)/2 = 4 at most; no
  // negative or absurd values from junction handling.
  for (const auto& e : exp)
    for (Coord v : e) {
      EXPECT_GE(v, 0);
      EXPECT_LE(v, 4);
    }
}

TEST(PinSites, SingleSitePerEdge) {
  Netlist nl;
  const NetId n = nl.add_net("n");
  const CellId c = nl.add_custom("c", 400, 1.0, 1.0, 1);
  const CellId d = nl.add_macro("d", {Rect{0, 0, 5, 5}});
  nl.add_edge_pin(c, "p", n, kSideAny);
  nl.add_fixed_pin(d, "q", n, Point{0, 0});
  Placement p(nl);
  // One site per edge: the pin sits at an edge midpoint.
  const CellState& st = p.state(c);
  EXPECT_EQ(st.sites.size(), 4u);
  EXPECT_GE(st.pin_site[0], 0);
  EXPECT_LT(st.pin_site[0], 4);
}

TEST(Estimator, SetCoreRescalesChannelWidth) {
  const Netlist nl = generate_circuit(tiny_circuit(3));
  DynamicAreaEstimator est(nl);
  est.compute_initial_core();
  const double cw0 = est.channel_width();
  // A 4x-area core: N_L grows ~2x (sqrt), C_L slightly; C_W must grow.
  const Rect big = est.core().inflated(est.core().width() / 2);
  est.set_core(big);
  EXPECT_GT(est.channel_width(), cw0);
}

TEST(Estimator, TechModulationParametersRespected) {
  Netlist nl;
  const NetId n = nl.add_net("n");
  nl.add_macro("a", {Rect{0, 0, 40, 40}});
  nl.add_macro("b", {Rect{0, 0, 40, 40}});
  nl.add_fixed_pin(0, "p", n, Point{40, 20});
  nl.add_fixed_pin(1, "q", n, Point{0, 20});
  nl.tech().modulation_max = 3.0;
  nl.tech().modulation_min = 1.5;
  DynamicAreaEstimator est(nl);
  est.compute_initial_core();
  EXPECT_DOUBLE_EQ(est.modulation().mx, 3.0);
  EXPECT_DOUBLE_EQ(est.modulation().bx, 1.5);
  EXPECT_DOUBLE_EQ(est.modulation().alpha(), 0.25 * 4.5 * 4.5);
}

TEST(Report, StableAcrossIdenticalRuns) {
  const Netlist nl = generate_circuit(tiny_circuit(5));
  FlowParams params;
  params.stage1.attempts_per_cell = 8;
  params.stage1.p2_samples = 6;
  params.stage2.attempts_per_cell = 6;
  params.stage2.router.steiner.m = 3;
  params.seed = 4;
  Placement p1(nl), p2(nl);
  const FlowResult r1 = TimberWolfMC(nl, params).run(p1);
  const FlowResult r2 = TimberWolfMC(nl, params).run(p2);
  EXPECT_EQ(flow_report(nl, p1, r1), flow_report(nl, p2, r2));
}

TEST(Legalize, MarginZeroStillSeparates) {
  Netlist nl;
  const NetId n = nl.add_net("n");
  nl.add_macro("a", {Rect{0, 0, 10, 10}});
  nl.add_macro("b", {Rect{0, 0, 10, 10}});
  nl.add_fixed_pin(0, "p", n, Point{10, 5});
  nl.add_fixed_pin(1, "q", n, Point{0, 5});
  Placement p(nl);
  p.set_center(0, Point{0, 0});
  p.set_center(1, Point{2, 1});
  const LegalizeResult r = legalize_spread(p, Rect{-50, -50, 50, 50}, 0);
  EXPECT_TRUE(r.success());
}

TEST(Workload, LocalityParameterShapesNets) {
  // Tighter locality must reduce average latent-space distance between a
  // net's members; verify through the placement-independent proxy of net
  // fanout concentration: with very tight locality, nets reuse nearby
  // cells more, so the number of *distinct cell pairs* co-appearing in
  // nets shrinks.
  auto distinct_pairs = [](const Netlist& nl) {
    std::set<std::pair<CellId, CellId>> pairs;
    for (const auto& net : nl.nets()) {
      for (std::size_t i = 0; i < net.pins.size(); ++i)
        for (std::size_t j = i + 1; j < net.pins.size(); ++j) {
          CellId a = nl.pin(net.pins[i]).cell;
          CellId b = nl.pin(net.pins[j]).cell;
          if (a == b) continue;
          if (a > b) std::swap(a, b);
          pairs.insert({a, b});
        }
    }
    return pairs.size();
  };
  CircuitSpec tight = medium_circuit(7);
  tight.locality = 0.05;
  CircuitSpec loose = medium_circuit(7);
  loose.name = "loose";
  loose.locality = 10.0;
  EXPECT_LT(distinct_pairs(generate_circuit(tight)),
            distinct_pairs(generate_circuit(loose)));
}

TEST(Netlist, TeilEqualsTeicWhenWeightsAreUnity) {
  // Section 3: "If all of the net-weighting factors have a value of 1.0,
  // the TEIL is identically equal to the TEIC."
  const Netlist nl = generate_circuit(tiny_circuit(8));
  Placement p(nl);
  Rng rng(9);
  p.randomize(rng, Rect{-300, -300, 300, 300});
  EXPECT_DOUBLE_EQ(p.teic(), p.teil());
}

}  // namespace
}  // namespace tw
