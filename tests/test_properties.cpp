// Parameterized property suites: cross-module invariants checked over a
// sweep of circuit shapes and seeds (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include "channel/channel_graph.hpp"
#include "place/legalize.hpp"
#include "place/stage1.hpp"
#include "route/channel_router.hpp"
#include "route/interchange.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

struct CircuitCase {
  const char* label;
  int cells;
  int nets;
  int pins;
  double custom;
  double rectilinear;
  std::uint64_t seed;
};

void PrintTo(const CircuitCase& c, std::ostream* os) { *os << c.label; }

CircuitSpec to_spec(const CircuitCase& c) {
  CircuitSpec s;
  s.name = c.label;
  s.num_cells = c.cells;
  s.num_nets = c.nets;
  s.num_pins = c.pins;
  s.custom_fraction = c.custom;
  s.rectilinear_fraction = c.rectilinear;
  s.mean_cell_dim = 70;
  s.seed = c.seed;
  return s;
}

class CircuitProperty : public ::testing::TestWithParam<CircuitCase> {};

const CircuitCase kCases[] = {
    {"small_macro", 8, 20, 64, 0.0, 0.0, 1},
    {"small_mixed", 10, 26, 84, 0.4, 0.3, 2},
    {"rectilinear_heavy", 12, 30, 100, 0.0, 0.9, 3},
    {"custom_only", 9, 24, 80, 1.0, 0.0, 4},
    {"net_dense", 10, 60, 150, 0.2, 0.2, 5},
    {"pin_dense", 8, 24, 160, 0.3, 0.2, 6},
};

TEST_P(CircuitProperty, GeneratorInvariants) {
  const Netlist nl = generate_circuit(to_spec(GetParam()));
  EXPECT_NO_THROW(nl.validate());
  EXPECT_EQ(nl.num_cells(), static_cast<std::size_t>(GetParam().cells));
  EXPECT_EQ(nl.num_nets(), static_cast<std::size_t>(GetParam().nets));
  EXPECT_EQ(nl.num_pins(), static_cast<std::size_t>(GetParam().pins));
  for (const auto& n : nl.nets()) EXPECT_GE(n.degree(), 2u);
  EXPECT_GT(nl.average_pin_density(), 0.0);
}

TEST_P(CircuitProperty, PinPositionsAlwaysOnCellBoundary) {
  const Netlist nl = generate_circuit(to_spec(GetParam()));
  Placement p(nl);
  Rng rng(GetParam().seed * 7 + 1);
  const Rect core{-500, -500, 500, 500};
  p.randomize(rng, core);
  for (const auto& pin : nl.pins()) {
    const Point pos = p.pin_position(pin.id);
    const Rect bb = p.bbox(pin.cell);
    EXPECT_TRUE(bb.contains(pos))
        << nl.cell(pin.cell).name << "." << pin.name;
  }
}

TEST_P(CircuitProperty, TeicInvariantUnderWholePlacementTranslation) {
  const Netlist nl = generate_circuit(to_spec(GetParam()));
  Placement p(nl);
  Rng rng(GetParam().seed * 13 + 5);
  p.randomize(rng, Rect{-400, -400, 400, 400});
  const double before = p.teic();
  for (const auto& cell : nl.cells())
    p.set_center(cell.id, p.state(cell.id).center + Point{137, -59});
  EXPECT_NEAR(p.teic(), before, 1e-9);
}

TEST_P(CircuitProperty, EstimatorCoreFitsExpandedCells) {
  const Netlist nl = generate_circuit(to_spec(GetParam()));
  DynamicAreaEstimator est(nl);
  const Rect core = est.compute_initial_core();
  double eff = 0.0;
  for (const auto& c : nl.cells()) {
    const CellInstance& inst = c.instances.front();
    const double e0 = est.nominal_expansion();
    eff += (static_cast<double>(inst.width) + 2.0 * e0) *
           (static_cast<double>(inst.height) + 2.0 * e0);
  }
  // The 0.85 packing slack must be visible.
  EXPECT_GE(static_cast<double>(core.area()), eff * 1.1);
}

TEST_P(CircuitProperty, LegalizedChannelGraphIsConnected) {
  const Netlist nl = generate_circuit(to_spec(GetParam()));
  Placement p(nl);
  Stage1Params s1p;
  s1p.attempts_per_cell = 8;
  s1p.p2_samples = 6;
  Stage1Placer placer(nl, s1p, GetParam().seed * 31 + 9);
  const Stage1Result s1 = placer.run(p);
  legalize_spread(p, s1.core, 2);
  const ChannelGraph cg = build_channel_graph(p, s1.core);

  std::vector<char> vis(cg.graph.num_nodes(), 0);
  std::vector<NodeId> stack{0};
  vis[0] = 1;
  std::size_t seen = 0;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    ++seen;
    for (EdgeId e : cg.graph.incident(u)) {
      const NodeId v = cg.graph.edge(e).other(u);
      if (!vis[static_cast<std::size_t>(v)]) {
        vis[static_cast<std::size_t>(v)] = 1;
        stack.push_back(v);
      }
    }
  }
  EXPECT_EQ(seen, cg.graph.num_nodes()) << "disconnected channel graph";
}

TEST_P(CircuitProperty, SlabsNeverIntersectCells) {
  const Netlist nl = generate_circuit(to_spec(GetParam()));
  DynamicAreaEstimator est(nl);
  const Rect core = est.compute_initial_core();
  Placement p(nl);
  Rng rng(GetParam().seed * 3 + 2);
  p.randomize(rng, core);
  legalize_spread(p, core, 2);
  const auto slabs = free_space_slabs(p, core);
  for (const Rect& s : slabs) {
    for (const auto& cell : nl.cells())
      for (const Rect& t : p.absolute_tiles(cell.id))
        EXPECT_EQ(s.overlap_area(t.intersect(core)), 0);
    EXPECT_TRUE(core.contains(s));
  }
}

TEST_P(CircuitProperty, EverySelectedRouteConnectsItsNet) {
  const Netlist nl = generate_circuit(to_spec(GetParam()));
  // The realistic pipeline: a (brief) stage-1 placement, not a random one —
  // random configurations can have overlap residue that walls off regions.
  Placement p(nl);
  Stage1Params s1p;
  s1p.attempts_per_cell = 8;
  s1p.p2_samples = 6;
  Stage1Placer placer(nl, s1p, GetParam().seed * 17 + 3);
  const Stage1Result s1 = placer.run(p);
  legalize_spread(p, s1.core, 2);
  const ChannelGraph cg = build_channel_graph(p, s1.core);
  const auto targets = build_net_targets(nl, cg);
  const auto routed = GlobalRouter(cg.graph, {{4}, 77}).route(targets);
  EXPECT_EQ(routed.unrouted_nets, 0);
  for (std::size_t n = 0; n < targets.size(); ++n) {
    const Route* r = routed.route_of(n);
    ASSERT_NE(r, nullptr) << "net " << n;
    EXPECT_TRUE(route_connects(cg.graph, targets[n], *r)) << "net " << n;
  }
}

TEST_P(CircuitProperty, RoutedChannelsSatisfyEqn22Bound) {
  const Netlist nl = generate_circuit(to_spec(GetParam()));
  Placement p(nl);
  Stage1Params s1p;
  s1p.attempts_per_cell = 8;
  s1p.p2_samples = 6;
  Stage1Placer placer(nl, s1p, GetParam().seed * 23 + 11);
  const Stage1Result s1 = placer.run(p);
  legalize_spread(p, s1.core, 2);
  const ChannelGraph cg = build_channel_graph(p, s1.core);
  const auto targets = build_net_targets(nl, cg);
  const auto routed = GlobalRouter(cg.graph, {{4}, 99}).route(targets);
  std::vector<std::vector<EdgeId>> route_edges(targets.size());
  for (std::size_t n = 0; n < targets.size(); ++n)
    if (const Route* r = routed.route_of(n)) route_edges[n] = r->edges;
  EXPECT_EQ(validate_channel_widths(cg, route_edges), 0);
}

INSTANTIATE_TEST_SUITE_P(Circuits, CircuitProperty,
                         ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<CircuitCase>& info) {
                           return std::string(info.param.label);
                         });

// ---------------------------------------------------------------------------
// K-shortest-path properties parameterized over k.

class KShortestProperty : public ::testing::TestWithParam<int> {};

TEST_P(KShortestProperty, SortedDistinctSimple) {
  RoutingGraph g;
  Rng rng(42);
  // Random connected graph: a ring plus chords.
  const int n = 12;
  for (int i = 0; i < n; ++i) g.add_node({i * 10, (i * 7) % 30});
  for (int i = 0; i < n; ++i)
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n),
               static_cast<double>(rng.uniform_int(5, 30)), 2);
  for (int i = 0; i < 8; ++i) {
    const NodeId a = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    NodeId b = a;
    while (b == a) b = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    g.add_edge(a, b, static_cast<double>(rng.uniform_int(5, 40)), 2);
  }

  const int k = GetParam();
  const auto paths = k_shortest_paths(g, 0, 6, k);
  ASSERT_FALSE(paths.empty());
  EXPECT_LE(static_cast<int>(paths.size()), k);
  std::set<std::vector<EdgeId>> seen;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(paths[i].length, paths[i - 1].length);
    }
    EXPECT_TRUE(seen.insert(paths[i].edges).second);
    const auto nodes = g.walk_nodes(0, paths[i].edges);
    ASSERT_FALSE(nodes.empty());
    EXPECT_EQ(nodes.back(), 6);
    std::set<NodeId> uniq(nodes.begin(), nodes.end());
    EXPECT_EQ(uniq.size(), nodes.size());
  }
}

INSTANTIATE_TEST_SUITE_P(K, KShortestProperty,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

// ---------------------------------------------------------------------------
// Channel-router properties parameterized over the random-instance seed.

class LeftEdgeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LeftEdgeProperty, OptimalAndConflictFree) {
  Rng rng(GetParam());
  std::vector<ChannelSegment> s;
  const int n = static_cast<int>(rng.uniform_int(3, 40));
  for (int i = 0; i < n; ++i) {
    const Coord lo = rng.uniform_int(0, 120);
    s.push_back({static_cast<std::int32_t>(rng.uniform_int(0, 11)),
                 {lo, lo + rng.uniform_int(1, 40)}});
  }
  const ChannelRouteResult r = route_channel(s);
  EXPECT_EQ(r.tracks_used, r.density);
  for (std::size_t a = 0; a < s.size(); ++a) {
    ASSERT_GE(r.track[a], 0);
    for (std::size_t b = a + 1; b < s.size(); ++b) {
      if (r.track[a] != r.track[b] || s[a].net == s[b].net) continue;
      EXPECT_EQ(s[a].extent.overlap(s[b].extent), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeftEdgeProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace tw
