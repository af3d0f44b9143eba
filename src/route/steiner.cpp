#include "route/steiner.hpp"

#include <algorithm>
#include <set>

namespace tw {
namespace {

/// A partially-built tree in the beam.
struct PartialTree {
  std::vector<EdgeId> edges;   ///< sorted unique
  std::vector<NodeId> nodes;   ///< sorted unique (the target set)
  std::vector<char> connected; ///< per logical pin
  double length = 0.0;
};

void insert_sorted_unique(std::vector<NodeId>& v, NodeId x) {
  auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) v.insert(it, x);
}

/// Merges a path into the tree, skipping edges already present; returns the
/// added length.
double merge_path(const RoutingGraph& g, PartialTree& t,
                  const PathResult& path) {
  double added = 0.0;
  for (EdgeId e : path.edges) {
    auto it = std::lower_bound(t.edges.begin(), t.edges.end(), e);
    if (it != t.edges.end() && *it == e) continue;
    t.edges.insert(it, e);
    added += g.edge(e).length;
    insert_sorted_unique(t.nodes, g.edge(e).a);
    insert_sorted_unique(t.nodes, g.edge(e).b);
  }
  // Zero-length paths (target already in tree) still mark the endpoint.
  insert_sorted_unique(t.nodes, path.dst);
  return added;
}

/// Marks every logical pin that the tree now reaches (a later path may
/// incidentally pass through another pin's node).
void mark_connected(const NetTargets& net, PartialTree& t) {
  for (std::size_t p = 0; p < net.pins.size(); ++p) {
    if (t.connected[p]) continue;
    for (NodeId alt : net.pins[p]) {
      if (std::binary_search(t.nodes.begin(), t.nodes.end(), alt)) {
        t.connected[p] = 1;
        break;
      }
    }
  }
}

/// The logical pin owning node `alt` among the unconnected pins (-1 when
/// none does).
int pin_of_alternative(const NetTargets& net, const std::vector<char>& connected,
                       NodeId alt) {
  for (std::size_t p = 0; p < net.pins.size(); ++p) {
    if (connected[p]) continue;
    for (NodeId a : net.pins[p])
      if (a == alt) return static_cast<int>(p);
  }
  return -1;
}

/// Every alternative node of the logical pins not yet connected, into
/// `out` (cleared first).
void unconnected_alternatives(const NetTargets& net,
                              const std::vector<char>& connected,
                              std::vector<NodeId>& out) {
  out.clear();
  for (std::size_t p = 0; p < net.pins.size(); ++p) {
    if (connected[p]) continue;
    for (NodeId alt : net.pins[p]) out.push_back(alt);
  }
}

/// The unconnected logical pin nearest to the tree (Prim order), found by
/// a first-target search that stops at the closest alternative. -1 when
/// all pins are connected; -2 when no unconnected pin is reachable.
int nearest_unconnected(const RoutingGraph& g, const NetTargets& net,
                        const PartialTree& t, SearchWorkspace& ws,
                        std::vector<NodeId>& alt_scratch) {
  if (std::all_of(t.connected.begin(), t.connected.end(),
                  [](char c) { return c != 0; }))
    return -1;
  unconnected_alternatives(net, t.connected, alt_scratch);
  ws.clear_blocks();
  const NodeId hit = search(g, t.nodes, alt_scratch, {}, ws);
  if (hit == kInvalidNode) return -2;
  return pin_of_alternative(net, t.connected, hit);
}

}  // namespace

std::vector<Route> m_best_routes(const RoutingGraph& g, const NetTargets& net,
                                 const SteinerParams& params) {
  SearchWorkspace ws;
  return m_best_routes(g, net, params, ws);
}

std::vector<Route> m_best_routes(const RoutingGraph& g, const NetTargets& net,
                                 const SteinerParams& params,
                                 SearchWorkspace& ws) {
  std::vector<Route> out;
  if (net.pins.size() <= 1) {
    out.push_back({});
    return out;
  }
  for (const auto& alts : net.pins)
    if (alts.empty()) return {};  // a pin with no node cannot be connected

  const int m = std::max(1, params.m);
  const int beam_width =
      static_cast<int>(net.pins.size()) > kWideNetPins ? 1 : m;

  // Start from the first logical pin (the paper picks an arbitrary start).
  std::vector<PartialTree> beam;
  {
    PartialTree t;
    t.connected.assign(net.pins.size(), 0);
    t.nodes.assign(net.pins[0].begin(), net.pins[0].end());
    std::sort(t.nodes.begin(), t.nodes.end());
    t.nodes.erase(std::unique(t.nodes.begin(), t.nodes.end()), t.nodes.end());
    t.connected[0] = 1;
    mark_connected(net, t);
    beam.push_back(std::move(t));
  }

  std::vector<NodeId> alt_scratch;
  for (std::size_t level = 1; level < net.pins.size(); ++level) {
    std::vector<PartialTree> next;
    for (const PartialTree& t : beam) {
      const int pin = nearest_unconnected(g, net, t, ws, alt_scratch);
      if (pin == -1) {
        next.push_back(t);  // already complete
        continue;
      }
      if (pin == -2) continue;  // unreachable from this tree
      const auto paths = k_shortest_between_sets(
          g, t.nodes, net.pins[static_cast<std::size_t>(pin)], beam_width, ws);
      for (const auto& path : paths) {
        PartialTree nt = t;
        nt.length += merge_path(g, nt, path);
        nt.connected[static_cast<std::size_t>(pin)] = 1;
        mark_connected(net, nt);
        next.push_back(std::move(nt));
      }
    }
    if (next.empty()) return {};

    // Keep the best `beam_width` distinct trees.
    std::sort(next.begin(), next.end(),
              [](const PartialTree& a, const PartialTree& b) {
                if (a.length != b.length) return a.length < b.length;
                return a.edges < b.edges;
              });
    next.erase(std::unique(next.begin(), next.end(),
                           [](const PartialTree& a, const PartialTree& b) {
                             return a.edges == b.edges;
                           }),
               next.end());
    if (static_cast<int>(next.size()) > beam_width)
      next.resize(static_cast<std::size_t>(beam_width));
    beam = std::move(next);
  }

  std::set<std::vector<EdgeId>> seen;
  for (const PartialTree& t : beam) {
    const bool complete =
        std::all_of(t.connected.begin(), t.connected.end(),
                    [](char c) { return c != 0; });
    if (!complete) continue;
    if (!seen.insert(t.edges).second) continue;
    out.push_back({t.edges, t.length});
    if (static_cast<int>(out.size()) >= m) break;
  }
  return out;
}

std::optional<Route> greedy_route(const RoutingGraph& g, const NetTargets& net,
                                  const std::vector<double>* extra_cost,
                                  SearchWorkspace& ws) {
  Route route;
  if (net.pins.size() <= 1) return route;

  PathQuery q;
  q.extra_cost = extra_cost;

  std::vector<NodeId> tree(net.pins[0].begin(), net.pins[0].end());
  std::sort(tree.begin(), tree.end());
  tree.erase(std::unique(tree.begin(), tree.end()), tree.end());
  std::vector<char> connected(net.pins.size(), 0);
  connected[0] = 1;

  std::vector<NodeId> alt_scratch;
  PathResult pr;
  for (std::size_t step = 1; step < net.pins.size(); ++step) {
    // Nearest unconnected pin under congested costs: one first-target
    // search finds the closest alternative of any unconnected pin; its
    // path comes straight off the same search's parent edges.
    unconnected_alternatives(net, connected, alt_scratch);
    ws.clear_blocks();
    const NodeId hit = search(g, tree, alt_scratch, q, ws);
    int best = -1;
    const PathResult* best_path = nullptr;
    if (hit != kInvalidNode) {
      best = pin_of_alternative(net, connected, hit);
      extract_path(g, ws, hit, pr);
      best_path = &pr;
    }
    if (best < 0) {
      // Some pin may already be covered by the grown tree.
      bool all = true;
      for (std::size_t p = 0; p < net.pins.size(); ++p)
        if (!connected[p]) all = false;
      if (all) break;
      return std::nullopt;
    }

    for (EdgeId e : best_path->edges) {
      auto it = std::lower_bound(route.edges.begin(), route.edges.end(), e);
      if (it != route.edges.end() && *it == e) continue;
      route.edges.insert(it, e);
      route.length += g.edge(e).length;
      for (NodeId n : {g.edge(e).a, g.edge(e).b}) {
        auto nit = std::lower_bound(tree.begin(), tree.end(), n);
        if (nit == tree.end() || *nit != n) tree.insert(nit, n);
      }
    }
    {
      auto nit = std::lower_bound(tree.begin(), tree.end(), best_path->dst);
      if (nit == tree.end() || *nit != best_path->dst)
        tree.insert(nit, best_path->dst);
    }
    connected[static_cast<std::size_t>(best)] = 1;
    // Equivalent alternatives of the connected pin become targets too.
    for (NodeId alt : net.pins[static_cast<std::size_t>(best)]) {
      auto nit = std::lower_bound(tree.begin(), tree.end(), alt);
      if (nit == tree.end() || *nit != alt) tree.insert(nit, alt);
    }
    // A path may have run through other pins' nodes.
    for (std::size_t p = 0; p < net.pins.size(); ++p) {
      if (connected[p]) continue;
      for (NodeId alt : net.pins[p])
        if (std::binary_search(tree.begin(), tree.end(), alt)) {
          connected[p] = 1;
          break;
        }
    }
  }
  return route;
}


bool route_connects(const RoutingGraph& g, const NetTargets& net,
                    const Route& route) {
  if (net.pins.size() <= 1) return true;

  // Union-find over graph nodes. Route edges connect their endpoints, and
  // the alternatives of one logical pin are connected *through the cell*
  // (electrical equivalence, e.g. the two ends of a feed-through), so a
  // valid route may be a forest whose components are bridged by
  // equivalent-pin pairs.
  // Union-find scratch, not shortest-path state.
  std::vector<NodeId> parent(g.num_nodes());  // lint: allow(route-workspace)
  for (std::size_t i = 0; i < parent.size(); ++i)
    parent[i] = static_cast<NodeId>(i);
  auto find = [&](NodeId x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  auto unite = [&](NodeId a, NodeId b) {
    const NodeId ra = find(a);
    const NodeId rb = find(b);
    if (ra != rb) parent[static_cast<std::size_t>(ra)] = rb;
  };
  for (EdgeId e : route.edges) unite(g.edge(e).a, g.edge(e).b);
  for (const auto& alts : net.pins)
    for (std::size_t i = 1; i < alts.size(); ++i) unite(alts[0], alts[i]);

  // A pin participates in the route through an alternative that either lies
  // on a route edge or coincides with another pin's alternative; after the
  // unions above, it suffices that all pins share one component and that
  // each pin's class touches the route (or the route is empty and all pins
  // already coincide).
  std::vector<char> on_route(g.num_nodes(), 0);
  for (EdgeId e : route.edges) {
    on_route[static_cast<std::size_t>(g.edge(e).a)] = 1;
    on_route[static_cast<std::size_t>(g.edge(e).b)] = 1;
  }

  const NodeId root = find(net.pins[0][0]);
  for (const auto& alts : net.pins) {
    if (find(alts[0]) != root) return false;
    if (route.edges.empty()) continue;  // coincidence check handled above
    bool touches = false;
    for (NodeId alt : alts)
      if (on_route[static_cast<std::size_t>(alt)]) {
        touches = true;
        break;
      }
    // A pin may also legitimately coincide with another pin's node without
    // touching a route edge; detect via shared components of zero size.
    if (!touches) {
      for (const auto& other : net.pins) {
        if (&other == &alts) continue;
        for (NodeId a : alts)
          for (NodeId b : other)
            if (a == b) {
              touches = true;
              break;
            }
      }
    }
    if (!touches) return false;
  }
  return true;
}

}  // namespace tw
