// Shared random routing graphs for the router test suites. Edge lengths
// are small integers, so every path length is an exactly representable
// double and cross-checks can compare with ==.
#pragma once

#include <cstdlib>
#include <vector>

#include "route/graph.hpp"
#include "util/rng.hpp"

namespace tw::testing {

/// w x h grid with unit spacing 10. `exact_manhattan` gives every edge its
/// manhattan length (the channel-graph case, A* scale alpha = 1); otherwise
/// lengths are random in [5, 15] per step, which exercises the degraded
/// alpha < 1 (and alpha = 0) regimes. A few random chord edges break the
/// regular structure.
inline RoutingGraph random_grid(Rng& rng, int w, int h, bool exact_manhattan) {
  RoutingGraph g;
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) g.add_node(Point{x * 10, y * 10});
  auto id = [w](int x, int y) { return static_cast<NodeId>(y * w + x); };
  auto len = [&](double manhattan) {
    return exact_manhattan ? manhattan
                           : static_cast<double>(rng.uniform_int(5, 15));
  };
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      if (x + 1 < w) g.add_edge(id(x, y), id(x + 1, y), len(10.0), 2);
      if (y + 1 < h) g.add_edge(id(x, y), id(x, y + 1), len(10.0), 2);
    }
  const int chords = static_cast<int>(rng.uniform_int(0, w));
  for (int c = 0; c < chords; ++c) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, w * h - 1));
    const auto b = static_cast<NodeId>(rng.uniform_int(0, w * h - 1));
    if (a == b) continue;
    const Point pa = g.node_pos(a), pb = g.node_pos(b);
    const double manhattan =
        static_cast<double>(std::abs(pa.x - pb.x) + std::abs(pa.y - pb.y));
    g.add_edge(a, b, len(manhattan), 2);
  }
  return g;
}

/// Hangs `n` degree-1 stubs off random nodes of `g`, the way
/// build_channel_graph hangs every pin off the node of its slab: a stub
/// sits within 4 units of its anchor, and its edge has the manhattan
/// length between the two (0 when they coincide) if `exact_manhattan`,
/// else half that length rounded up plus a random 0-4 (so the A* scale
/// of random_grid's random lengths, at most 1/2, survives). Anchors are
/// drawn among the nodes `g` had before the call, and one node may carry
/// several stubs. Returns the stubs' node ids.
inline std::vector<NodeId> add_stubs(RoutingGraph& g, Rng& rng, int n,
                                     bool exact_manhattan) {
  const auto anchors = static_cast<std::int64_t>(g.num_nodes());
  std::vector<NodeId> stubs;
  for (int i = 0; i < n; ++i) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, anchors - 1));
    const Point pa = g.node_pos(a);
    const Point ps{pa.x + rng.uniform_int(-4, 4), pa.y + rng.uniform_int(-4, 4)};
    const NodeId s = g.add_node(ps);
    const Coord manhattan = std::abs(ps.x - pa.x) + std::abs(ps.y - pa.y);
    const Coord len = exact_manhattan
                          ? manhattan
                          : (manhattan + 1) / 2 + rng.uniform_int(0, 4);
    g.add_edge(s, a, static_cast<double>(len), 2);
    stubs.push_back(s);
  }
  return stubs;
}

}  // namespace tw::testing
