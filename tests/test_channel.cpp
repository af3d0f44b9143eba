// Tests for channel definition (Section 4.1): placed-edge extraction,
// critical regions (two bounding edges, empty interior, overlapping
// regions kept), the channel graph, and pin projection.
#include <gtest/gtest.h>

#include "channel/channel_graph.hpp"
#include "place/stage1.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

/// Two 10x10 cells side by side with a 6-wide gap, inside a 60x40 core.
struct TwoCellFixture {
  Netlist nl;
  Placement placement;
  Rect core{-30, -20, 30, 20};

  TwoCellFixture() : nl(build()), placement(nl) {
    placement.set_center(0, Point{-8, 0});  // bbox {-13,-5,-3,5}
    placement.set_center(1, Point{8, 0});   // bbox {3,-5,13,5}
  }

  static Netlist build() {
    Netlist nl;
    const NetId n = nl.add_net("n");
    const CellId a = nl.add_macro("a", {Rect{0, 0, 10, 10}});
    const CellId b = nl.add_macro("b", {Rect{0, 0, 10, 10}});
    nl.add_fixed_pin(a, "p", n, Point{10, 5});  // right edge center
    nl.add_fixed_pin(b, "q", n, Point{0, 5});   // left edge center
    return nl;
  }
};

TEST(Edges, CollectIncludesCellsAndCore) {
  TwoCellFixture f;
  const auto edges = collect_edges(f.placement, f.core);
  // 4 per rect cell + 4 core edges.
  EXPECT_EQ(edges.size(), 12u);
  int core_edges = 0;
  for (const auto& e : edges)
    if (e.is_core()) ++core_edges;
  EXPECT_EQ(core_edges, 4);
}

TEST(Edges, CoreEdgesFaceInward) {
  TwoCellFixture f;
  for (const auto& e : collect_edges(f.placement, f.core)) {
    if (!e.is_core()) continue;
    if (e.edge.pos == f.core.xlo) {
      EXPECT_EQ(e.edge.side, Side::kRight);
    }
    if (e.edge.pos == f.core.xhi) {
      EXPECT_EQ(e.edge.side, Side::kLeft);
    }
    if (e.edge.pos == f.core.ylo) {
      EXPECT_EQ(e.edge.side, Side::kTop);
    }
    if (e.edge.pos == f.core.yhi) {
      EXPECT_EQ(e.edge.side, Side::kBottom);
    }
  }
}

TEST(Edges, PinsMapToOwningCellEdges) {
  TwoCellFixture f;
  const auto edges = collect_edges(f.placement, f.core);
  const auto map = map_pins_to_edges(f.placement, edges);
  // Pin 0 is on cell 0's right edge at x = -3.
  const PlacedEdge& e0 = edges[map[0]];
  EXPECT_EQ(e0.cell, 0);
  EXPECT_EQ(e0.edge.side, Side::kRight);
  EXPECT_EQ(e0.edge.pos, -3);
  const PlacedEdge& e1 = edges[map[1]];
  EXPECT_EQ(e1.cell, 1);
  EXPECT_EQ(e1.edge.side, Side::kLeft);
}

TEST(CriticalRegions, GapBetweenFacingCells) {
  TwoCellFixture f;
  const auto edges = collect_edges(f.placement, f.core);
  const auto regions = find_critical_regions(edges);
  // Find the cell-to-cell channel: x in [-3,3], y in [-5,5].
  bool found = false;
  for (const auto& r : regions) {
    if (r.rect == (Rect{-3, -5, 3, 5})) {
      found = true;
      EXPECT_TRUE(r.vertical);
      EXPECT_EQ(r.thickness(), 6);
      EXPECT_EQ(r.length(), 10);
      // Both bounding edges belong to cells, not the core.
      EXPECT_FALSE(edges[r.edge_a].is_core());
      EXPECT_FALSE(edges[r.edge_b].is_core());
    }
  }
  EXPECT_TRUE(found);
}

TEST(CriticalRegions, CellToCoreChannelsExist) {
  TwoCellFixture f;
  const auto edges = collect_edges(f.placement, f.core);
  const auto regions = find_critical_regions(edges);
  int with_core = 0;
  for (const auto& r : regions) {
    if (r.is_junction()) continue;  // junctions have no bounding edges
    if (edges[r.edge_a].is_core() || edges[r.edge_b].is_core()) ++with_core;
  }
  EXPECT_GE(with_core, 4);  // left, right, top, bottom of the pair
}

TEST(CriticalRegions, EveryRegionHasEmptyInterior) {
  TwoCellFixture f;
  const auto edges = collect_edges(f.placement, f.core);
  const auto regions = find_critical_regions(edges);
  for (const auto& r : regions) {
    for (CellId c = 0; c < 2; ++c) {
      for (const Rect& t : f.placement.absolute_tiles(c)) {
        EXPECT_EQ(t.overlap_area(r.rect), 0)
            << "cell tile inside region " << r.rect.str();
      }
    }
  }
}

TEST(CriticalRegions, ThirdCellBlocksLongChannel) {
  // Three cells in a row: no region may span from cell 0 to cell 2.
  Netlist nl;
  const NetId n = nl.add_net("n");
  for (int i = 0; i < 3; ++i)
    nl.add_macro("c" + std::to_string(i), {Rect{0, 0, 10, 10}});
  nl.add_fixed_pin(0, "p", n, Point{10, 5});
  nl.add_fixed_pin(2, "q", n, Point{0, 5});
  Placement p(nl);
  p.set_center(0, Point{-20, 0});
  p.set_center(1, Point{0, 0});
  p.set_center(2, Point{20, 0});
  const auto edges = collect_edges(p, Rect{-40, -20, 40, 20});
  for (const auto& r : find_critical_regions(edges)) {
    const bool spans_across = r.rect.xlo <= -15 + 1 && r.rect.xhi >= 15 - 1 &&
                              r.rect.yspan().overlap({-5, 5}) > 0;
    EXPECT_FALSE(spans_across) << r.rect.str();
  }
}

TEST(CriticalRegions, OverlappingRegionsKept) {
  // Four cells forming a plus-shaped crossing: the vertical and horizontal
  // channels overlap in the middle; both must be kept (unlike Chen's
  // bottlenecks).
  Netlist nl;
  const NetId n = nl.add_net("n");
  for (int i = 0; i < 4; ++i)
    nl.add_macro("c" + std::to_string(i), {Rect{0, 0, 10, 10}});
  nl.add_fixed_pin(0, "p", n, Point{10, 5});
  nl.add_fixed_pin(1, "q", n, Point{0, 5});
  Placement p(nl);
  // Quadrant layout with a 6-wide cross gap.
  p.set_center(0, Point{-8, -8});
  p.set_center(1, Point{8, -8});
  p.set_center(2, Point{-8, 8});
  p.set_center(3, Point{8, 8});
  const auto edges = collect_edges(p, Rect{-30, -30, 30, 30});
  const auto regions = find_critical_regions(edges);
  // The four channel arms exist.
  int arms = 0;
  for (const auto& r : regions) {
    if (r.rect == (Rect{-3, -13, 3, -3}) || r.rect == (Rect{-3, 3, 3, 13}) ||
        r.rect == (Rect{-13, -3, -3, 3}) || r.rect == (Rect{3, -3, 13, 3}))
      ++arms;
  }
  EXPECT_EQ(arms, 4);
  // The crossing itself is covered by a junction region, so the channel
  // graph stays connected across it.
  bool junction = false;
  for (const auto& r : regions)
    if (r.is_junction() && r.rect.contains(Rect{-3, -3, 3, 3})) junction = true;
  EXPECT_TRUE(junction);
}

TEST(CriticalRegions, RouteCrossesJunction) {
  // Routing across the 4-cell cross must succeed (via the junction node).
  Netlist nl;
  const NetId n = nl.add_net("n");
  for (int i = 0; i < 4; ++i)
    nl.add_macro("c" + std::to_string(i), {Rect{0, 0, 10, 10}});
  nl.add_fixed_pin(0, "p", n, Point{10, 5});  // bottom-left, right edge
  nl.add_fixed_pin(3, "q", n, Point{0, 5});   // top-right, left edge
  Placement p(nl);
  p.set_center(0, Point{-8, -8});
  p.set_center(1, Point{8, -8});
  p.set_center(2, Point{-8, 8});
  p.set_center(3, Point{8, 8});
  const ChannelGraph cg = build_channel_graph(p, Rect{-30, -30, 30, 30});
  const auto targets = build_net_targets(nl, cg);
  const auto routes = m_best_routes(cg.graph, targets[0], {4});
  ASSERT_FALSE(routes.empty());
  EXPECT_TRUE(route_connects(cg.graph, targets[0], routes[0]));
}

TEST(CriticalRegions, TouchingCellsGetZeroThicknessRegion) {
  Netlist nl;
  const NetId n = nl.add_net("n");
  nl.add_macro("a", {Rect{0, 0, 10, 10}});
  nl.add_macro("b", {Rect{0, 0, 10, 10}});
  nl.add_fixed_pin(0, "p", n, Point{10, 5});
  nl.add_fixed_pin(1, "q", n, Point{0, 5});
  Placement p(nl);
  p.set_center(0, Point{-5, 0});
  p.set_center(1, Point{5, 0});  // abutting at x = 0
  const auto edges = collect_edges(p, Rect{-30, -30, 30, 30});
  bool zero = false;
  for (const auto& r : find_critical_regions(edges))
    if (r.vertical && r.thickness() == 0 && r.length() == 10) zero = true;
  EXPECT_TRUE(zero);
}

TEST(ChannelGraph, SlabsTileFreeSpaceExactly) {
  TwoCellFixture f;
  const auto slabs = free_space_slabs(f.placement, f.core);
  ASSERT_FALSE(slabs.empty());
  // Non-overlapping.
  for (std::size_t a = 0; a < slabs.size(); ++a)
    for (std::size_t b = a + 1; b < slabs.size(); ++b)
      EXPECT_EQ(slabs[a].overlap_area(slabs[b]), 0);
  // Total area = core minus cells.
  Coord slab_area = 0;
  for (const Rect& s : slabs) slab_area += s.area();
  EXPECT_EQ(slab_area, f.core.area() - 2 * 100);
  // No slab intersects a cell.
  for (const Rect& s : slabs)
    for (CellId c = 0; c < 2; ++c)
      for (const Rect& t : f.placement.absolute_tiles(c))
        EXPECT_EQ(s.overlap_area(t), 0);
}

TEST(ChannelGraph, NodesEdgesAndPins) {
  TwoCellFixture f;
  const ChannelGraph cg = build_channel_graph(f.placement, f.core);
  EXPECT_GT(cg.regions.size(), 0u);
  EXPECT_GT(cg.slabs.size(), 0u);
  // One graph node per slab plus one per mapped pin.
  std::size_t mapped = 0;
  for (NodeId n : cg.pin_node)
    if (n != kInvalidNode) ++mapped;
  EXPECT_EQ(mapped, f.nl.num_pins());
  EXPECT_EQ(cg.graph.num_nodes(), cg.slabs.size() + mapped);
}

TEST(ChannelGraph, PinProjectsIntoAdjacentSlab) {
  TwoCellFixture f;
  const ChannelGraph cg = build_channel_graph(f.placement, f.core);
  // Pin 0 (right edge of cell 0 at (-3, 0)) must land in the slab between
  // the two cells, preserving the along-edge coordinate.
  const auto s0 = cg.pin_slab[0];
  ASSERT_GE(s0, 0);
  const Rect& slab = cg.slabs[static_cast<std::size_t>(s0)];
  EXPECT_TRUE(slab.contains(cg.graph.node_pos(cg.pin_node[0])));
  EXPECT_EQ(cg.graph.node_pos(cg.pin_node[0]).y, 0);
  EXPECT_EQ(cg.graph.node_pos(cg.pin_node[0]).x, -3);
}

TEST(ChannelGraph, PinsConnected) {
  TwoCellFixture f;
  const ChannelGraph cg = build_channel_graph(f.placement, f.core);
  for (PinId p = 0; p < 2; ++p) {
    ASSERT_NE(cg.pin_node[static_cast<std::size_t>(p)], kInvalidNode);
    EXPECT_GE(cg.graph.incident(cg.pin_node[static_cast<std::size_t>(p)]).size(), 1u);
  }
}

TEST(ChannelGraph, GraphIsConnectedOnLegalPlacement) {
  TwoCellFixture f;
  const ChannelGraph cg = build_channel_graph(f.placement, f.core);
  // BFS from node 0 reaches everything: the free space is connected.
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
  EXPECT_EQ(seen, cg.graph.num_nodes());
}

TEST(ChannelGraph, EdgeCapacityFromContact) {
  TwoCellFixture f;
  const ChannelGraph cg = build_channel_graph(f.placement, f.core);
  const Coord ts = f.nl.tech().track_separation;
  for (std::size_t e = 0; e < cg.edge_slabs.size(); ++e) {
    const auto& [sa, sb] = cg.edge_slabs[e];
    const int cap = cg.graph.edge(static_cast<EdgeId>(e)).capacity;
    if (sa == sb) continue;  // pin stub
    const Rect& ra = cg.slabs[static_cast<std::size_t>(sa)];
    const Rect& rb = cg.slabs[static_cast<std::size_t>(sb)];
    const Coord contact = std::max(ra.xspan().overlap(rb.xspan()),
                                   ra.yspan().overlap(rb.yspan()));
    EXPECT_EQ(cap, static_cast<int>(contact / ts));
  }
}

TEST(ChannelGraph, NetTargetsGroupEquivalentPins) {
  Netlist nl;
  const NetId n = nl.add_net("n");
  const CellId a = nl.add_macro("a", {Rect{0, 0, 10, 10}});
  const CellId b = nl.add_macro("b", {Rect{0, 0, 10, 10}});
  const PinId p0 = nl.add_fixed_pin(a, "p0", n, Point{10, 3});
  const PinId p1 = nl.add_fixed_pin(a, "p1", n, Point{0, 3});  // feed-through
  nl.add_fixed_pin(b, "q", n, Point{0, 5});
  nl.set_equivalent(p0, p1);
  Placement p(nl);
  p.set_center(a, Point{-8, 0});
  p.set_center(b, Point{8, 0});
  const ChannelGraph cg = build_channel_graph(p, Rect{-30, -20, 30, 20});
  const auto targets = build_net_targets(nl, cg);
  ASSERT_EQ(targets.size(), 1u);
  // Two logical pins: {p0, p1} and {q}.
  ASSERT_EQ(targets[0].pins.size(), 2u);
  std::size_t sizes[2] = {targets[0].pins[0].size(), targets[0].pins[1].size()};
  std::sort(sizes, sizes + 2);
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 2u);
}

TEST(ChannelGraph, RegionDensitiesCountNetsOnce) {
  TwoCellFixture f;
  const ChannelGraph cg = build_channel_graph(f.placement, f.core);
  // Fake route: a single net using the first two graph edges twice over.
  std::vector<std::vector<EdgeId>> routes{{0, 1}};
  const auto d = region_densities(cg, routes);
  for (int v : d) EXPECT_LE(v, 1);
}

TEST(ChannelGraph, OnStage1Output) {
  // End-to-end sanity: channel definition on a real annealed placement.
  const Netlist nl = generate_circuit(tiny_circuit(21));
  Stage1Params params;
  params.attempts_per_cell = 10;
  params.p2_samples = 6;
  Stage1Placer placer(nl, params, 4);
  Placement placement(nl);
  const Stage1Result r = placer.run(placement);
  const ChannelGraph cg = build_channel_graph(placement, r.core);
  EXPECT_GT(cg.regions.size(), nl.num_cells());
  std::size_t mapped = 0;
  for (NodeId n : cg.pin_node)
    if (n != kInvalidNode) ++mapped;
  EXPECT_EQ(mapped, nl.num_pins());
}

}  // namespace
}  // namespace tw
