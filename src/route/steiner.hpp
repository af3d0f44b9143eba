// Phase one of the global router (Section 4.2.1): generating the
// (approximately) M shortest Steiner routes for an n-pin net.
//
// The algorithm generalizes Lawler's M-shortest-paths idea to trees: pins
// are connected in Prim order (nearest unconnected pin first), but instead
// of keeping only the single shortest tree, every step generates the M
// shortest paths from the *whole* partially-built tree (all of its nodes
// are targets, exactly as in Figure 11) to the next pin — where a pin with
// electrically-equivalent alternatives may be reached at any alternative.
// The recursion over stored partial paths is realized as a beam search of
// width M: it keeps the M best partial trees per level, which bounds the
// work at M^2 path enumerations per pin while retaining the paper's
// "approximately M-shortest" guarantee. For two-pin nets this reduces
// exactly to Lawler's M shortest paths.
#pragma once

#include "route/kshortest.hpp"

namespace tw {

/// A net presented to the router: each logical pin is a set of alternative
/// graph nodes (electrically-equivalent pins map to one logical pin with
/// several alternatives).
struct NetTargets {
  std::vector<std::vector<NodeId>> pins;
};

/// One complete candidate route: a set of graph edges forming a connected
/// subgraph that touches at least one alternative of every logical pin.
struct Route {
  std::vector<EdgeId> edges;  ///< sorted, deduplicated
  double length = 0.0;

  friend bool operator==(const Route&, const Route&) = default;
};

struct SteinerParams {
  int m = 8;  ///< M: alternatives kept per net (paper uses ~20)
};

/// Nets with more logical pins than this are routed with beam width 1
/// (plain Prim/Dijkstra Steiner) to bound the cost on huge nets.
inline constexpr int kWideNetPins = 12;

/// Generates up to M candidate routes for the net, ascending by length
/// (one route for a net wider than kWideNetPins). Returns an empty vector
/// when the net cannot be connected (disconnected graph). Single-pin (or empty) nets yield one empty route. The
/// workspace-taking overload reuses `ws` across every internal search
/// (allocation-free once warm); the other builds a fresh one per call.
std::vector<Route> m_best_routes(const RoutingGraph& g, const NetTargets& net,
                                 const SteinerParams& params = {});
std::vector<Route> m_best_routes(const RoutingGraph& g, const NetTargets& net,
                                 const SteinerParams& params,
                                 SearchWorkspace& ws);

/// Single greedy Prim/Dijkstra Steiner route, optionally under additive
/// per-edge costs (congestion penalties; null for none), with every
/// search run on `ws`. Used by the sequential baseline and by the global
/// router's rip-up augmentation. nullopt when the net cannot be connected.
std::optional<Route> greedy_route(const RoutingGraph& g, const NetTargets& net,
                                  const std::vector<double>* extra_cost,
                                  SearchWorkspace& ws);

/// Validates that `route` connects the net on `g` (one alternative of every
/// logical pin in a single connected component of the route's edges).
bool route_connects(const RoutingGraph& g, const NetTargets& net,
                    const Route& route);

}  // namespace tw
