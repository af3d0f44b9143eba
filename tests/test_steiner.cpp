// Tests for phase one of the global router: M-best Steiner route
// enumeration with Prim ordering, beam recursion and equivalent pins
// (Section 4.2.1, Figures 10-12).
#include <gtest/gtest.h>

#include <set>

#include "route/steiner.hpp"

namespace tw {
namespace {

struct Grid4 {
  RoutingGraph g;
  Grid4() {
    for (int r = 0; r < 4; ++r)
      for (int c = 0; c < 4; ++c) g.add_node(Point{c * 10, r * 10});
    for (int r = 0; r < 4; ++r)
      for (int c = 0; c < 4; ++c) {
        const NodeId n = static_cast<NodeId>(4 * r + c);
        if (c + 1 < 4) g.add_edge(n, n + 1, 10.0, 2);
        if (r + 1 < 4) g.add_edge(n, n + 4, 10.0, 2);
      }
  }
  NodeId at(int r, int c) const { return static_cast<NodeId>(4 * r + c); }
};

TEST(Steiner, TwoPinReducesToShortestPaths) {
  Grid4 f;
  NetTargets net;
  net.pins = {{f.at(0, 0)}, {f.at(0, 3)}};
  const auto routes = m_best_routes(f.g, net, {8});
  ASSERT_GE(routes.size(), 2u);
  EXPECT_DOUBLE_EQ(routes[0].length, 30.0);
  for (std::size_t i = 1; i < routes.size(); ++i)
    EXPECT_GE(routes[i].length, routes[i - 1].length);
  for (const auto& r : routes) EXPECT_TRUE(route_connects(f.g, net, r));
}

TEST(Steiner, ThreePinLShapedNetUsesSteinerPoint) {
  Grid4 f;
  // Pins at (0,0), (0,3), (3,0): the optimal Steiner tree has length 60
  // (a corner tree through (0,0)).
  NetTargets net;
  net.pins = {{f.at(0, 0)}, {f.at(0, 3)}, {f.at(3, 0)}};
  const auto routes = m_best_routes(f.g, net, {8});
  ASSERT_FALSE(routes.empty());
  EXPECT_DOUBLE_EQ(routes[0].length, 60.0);
  EXPECT_TRUE(route_connects(f.g, net, routes[0]));
}

TEST(Steiner, FourPinCrossNet) {
  Grid4 f;
  // Pins on the four corners: minimal tree length 90 on a 4x4 grid.
  NetTargets net;
  net.pins = {{f.at(0, 0)}, {f.at(0, 3)}, {f.at(3, 0)}, {f.at(3, 3)}};
  const auto routes = m_best_routes(f.g, net, {8});
  ASSERT_FALSE(routes.empty());
  EXPECT_DOUBLE_EQ(routes[0].length, 90.0);
  for (const auto& r : routes) {
    EXPECT_TRUE(route_connects(f.g, net, r));
    // No duplicate edges in a route.
    std::set<EdgeId> uniq(r.edges.begin(), r.edges.end());
    EXPECT_EQ(uniq.size(), r.edges.size());
  }
}

TEST(Steiner, RoutesAreDistinct) {
  Grid4 f;
  NetTargets net;
  net.pins = {{f.at(0, 0)}, {f.at(3, 3)}};
  const auto routes = m_best_routes(f.g, net, {10});
  std::set<std::vector<EdgeId>> seen;
  for (const auto& r : routes) EXPECT_TRUE(seen.insert(r.edges).second);
  EXPECT_GT(routes.size(), 3u);
}

TEST(Steiner, EquivalentPinPicksCloserAlternative) {
  Grid4 f;
  // Logical pin 2 may connect at (0,3) or (3,3); source at (0,0). The best
  // route should use (0,3) (distance 30 vs 60).
  NetTargets net;
  net.pins = {{f.at(0, 0)}, {f.at(0, 3), f.at(3, 3)}};
  const auto routes = m_best_routes(f.g, net, {6});
  ASSERT_FALSE(routes.empty());
  EXPECT_DOUBLE_EQ(routes[0].length, 30.0);
}

TEST(Steiner, EquivalentPinsMayBridgeComponents) {
  // A net {A, B} where B is equivalent-paired: the route may pass through
  // either alternative; route_connects must accept a route reaching only
  // the nearer alternative.
  Grid4 f;
  NetTargets net;
  net.pins = {{f.at(1, 1)}, {f.at(0, 0), f.at(3, 3)}};
  Route r;
  // Route connecting (1,1) to (0,0) only.
  const auto sp = shortest_path(f.g, f.at(1, 1), f.at(0, 0));
  ASSERT_TRUE(sp.has_value());
  r.edges = sp->edges;
  std::sort(r.edges.begin(), r.edges.end());
  r.length = sp->length;
  EXPECT_TRUE(route_connects(f.g, net, r));
}

TEST(Steiner, SinglePinNetIsEmptyRoute) {
  Grid4 f;
  NetTargets net;
  net.pins = {{f.at(0, 0)}};
  const auto routes = m_best_routes(f.g, net, {4});
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_TRUE(routes[0].edges.empty());
}

TEST(Steiner, UnroutableNetReturnsEmpty) {
  RoutingGraph g;
  g.add_node({0, 0});
  g.add_node({10, 10});
  NetTargets net;
  net.pins = {{0}, {1}};
  EXPECT_TRUE(m_best_routes(g, net, {4}).empty());
}

TEST(Steiner, PinWithNoAlternativesIsUnroutable) {
  Grid4 f;
  NetTargets net;
  net.pins = {{f.at(0, 0)}, {}};
  EXPECT_TRUE(m_best_routes(f.g, net, {4}).empty());
}

TEST(Steiner, WideNetFallsBackToGreedy) {
  Grid4 f;
  NetTargets net;
  // kWideNetPins + 1 = 13 pins -> beam width 1, still a valid tree.
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c)
      if (static_cast<int>(net.pins.size()) <= kWideNetPins)
        net.pins.push_back({f.at(r, c)});
  ASSERT_EQ(static_cast<int>(net.pins.size()), kWideNetPins + 1);
  const auto routes = m_best_routes(f.g, net, {4});
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_TRUE(route_connects(f.g, net, routes[0]));
  // One pin fewer keeps the full beam.
  net.pins.pop_back();
  EXPECT_GT(m_best_routes(f.g, net, {4}).size(), 1u);
}

TEST(Steiner, SharedNodePinsConnectTrivially) {
  Grid4 f;
  NetTargets net;
  net.pins = {{f.at(1, 1)}, {f.at(1, 1)}};
  const auto routes = m_best_routes(f.g, net, {4});
  ASSERT_FALSE(routes.empty());
  EXPECT_DOUBLE_EQ(routes[0].length, 0.0);
  EXPECT_TRUE(route_connects(f.g, net, routes[0]));
}

TEST(Steiner, MLimitsRouteCount) {
  Grid4 f;
  NetTargets net;
  net.pins = {{f.at(0, 0)}, {f.at(3, 3)}};
  const auto routes = m_best_routes(f.g, net, {3});
  EXPECT_LE(routes.size(), 3u);
}

TEST(Steiner, RouteLengthMatchesEdgeSum) {
  Grid4 f;
  NetTargets net;
  net.pins = {{f.at(0, 1)}, {f.at(2, 3)}, {f.at(3, 0)}};
  for (const auto& r : m_best_routes(f.g, net, {6})) {
    double sum = 0.0;
    for (EdgeId e : r.edges) sum += f.g.edge(e).length;
    EXPECT_DOUBLE_EQ(r.length, sum);
  }
}

TEST(Steiner, RouteConnectsRejectsBrokenRoute) {
  Grid4 f;
  NetTargets net;
  net.pins = {{f.at(0, 0)}, {f.at(3, 3)}};
  Route r;  // empty route cannot connect distinct pins
  EXPECT_FALSE(route_connects(f.g, net, r));
  // A route touching only one pin fails too.
  const auto sp = shortest_path(f.g, f.at(0, 0), f.at(0, 2));
  r.edges = sp->edges;
  EXPECT_FALSE(route_connects(f.g, net, r));
}

}  // namespace
}  // namespace tw
