#include "route/shortest_path.hpp"

#include <algorithm>

#include "check/contracts.hpp"

namespace tw {
namespace {

constexpr double kInf = SearchWorkspace::kInf;

/// Bounding box of the target positions — the goal region of the A*
/// heuristic. Manhattan distance to a box is 1-Lipschitz in the manhattan
/// metric and zero at every target, which makes `alpha * box_manhattan`
/// consistent whenever every edge satisfies length >= alpha * manhattan
/// (see SearchWorkspace::bind).
struct TargetBox {
  Coord xlo = 0, ylo = 0, xhi = -1, yhi = -1;

  bool valid() const { return xhi >= xlo; }
  void add(Point p) {
    if (!valid()) {
      xlo = xhi = p.x;
      ylo = yhi = p.y;
      return;
    }
    xlo = std::min(xlo, p.x);
    xhi = std::max(xhi, p.x);
    ylo = std::min(ylo, p.y);
    yhi = std::max(yhi, p.y);
  }
};

double box_manhattan(Point p, const TargetBox& b) {
  Coord dx = 0;
  if (p.x < b.xlo)
    dx = b.xlo - p.x;
  else if (p.x > b.xhi)
    dx = p.x - b.xhi;
  Coord dy = 0;
  if (p.y < b.ylo)
    dy = b.ylo - p.y;
  else if (p.y > b.yhi)
    dy = p.y - b.yhi;
  return static_cast<double>(dx + dy);
}

}  // namespace

NodeId search(const RoutingGraph& g, std::span<const NodeId> sources,
              std::span<const NodeId> targets, const PathQuery& q,
              SearchWorkspace& ws, SearchStop stop) {
  ws.bind(g);
  ws.begin_query();
  ++ws.counters.dijkstra_runs;
  if constexpr (check::kLevel >= check::kLevelFull) {
    if (q.extra_cost != nullptr)
      for (std::size_t e = 0; e < q.extra_cost->size(); ++e)
        TW_ENSURE_FULL((*q.extra_cost)[e] >= 0.0, "negative extra_cost ",
                       (*q.extra_cost)[e], " on edge ", e,
                       " breaks A* admissibility");
  }

  auto node_blocked = [&](NodeId v) {
    return (q.blocked_nodes != nullptr &&
            (*q.blocked_nodes)[static_cast<std::size_t>(v)] != 0) ||
           ws.node_blocked(v);
  };
  auto edge_blocked = [&](EdgeId e) {
    return (q.blocked_edges != nullptr &&
            (*q.blocked_edges)[static_cast<std::size_t>(e)] != 0) ||
           ws.edge_blocked(e);
  };

  const bool seek = stop == SearchStop::kFirstTarget;
  TargetBox box;
  for (NodeId t : targets) {
    box.add(g.node_pos(t));
    ws.mark_target(t);
  }
  // The target-seeking mode is trivially complete with no targets; only
  // kAllReachable wants the exhaustive sweep then.
  if (seek && targets.empty()) return kInvalidNode;

  // An exact (promoted-query) heuristic dominates the geometric bound and
  // returns kInf for nodes that cannot reach any target at all — those are
  // never entered.
  const bool exact = !targets.empty() && ws.exact_heuristic();
  const double alpha = targets.empty() ? 0.0 : ws.heuristic_scale();
  auto h = [&](NodeId v) {
    if (exact) return ws.exact_h(v);
    return alpha > 0.0 ? alpha * box_manhattan(g.node_pos(v), box) : 0.0;
  };

  for (NodeId s : sources) {
    if (node_blocked(s)) continue;
    if (ws.dist(s) < kInf) continue;  // duplicate source entries
    const double hs = h(s);
    if (hs > q.cost_cap) continue;  // no wanted path through here (or kInf)
    ws.set_dist(s, 0.0, SearchWorkspace::kNoEdge);
    ws.heap_push(hs, 0.0, s);
  }

  // Dead ends, skipped by the target-seeking mode only (see the header).
  // A target that is not an admitted source is settled across an open
  // edge from an open neighbour or not at all; when no target has one,
  // the search would settle everything it reaches and then fail.
  auto can_settle = [&](NodeId t) {
    if (ws.dist(t) < kInf) return true;
    for (EdgeId eid : g.incident(t))
      if (!edge_blocked(eid) && !node_blocked(g.edge(eid).other(t)))
        return true;
    return false;
  };
  if (seek && std::none_of(targets.begin(), targets.end(), can_settle))
    return kInvalidNode;

  SearchWorkspace::HeapEntry e;
  while (ws.heap_pop(e)) {
    const NodeId u = e.node;
    if (e.d > ws.dist(u)) continue;  // stale heap entry
    ++ws.counters.nodes_popped;
    if (seek && ws.is_target(u)) return u;
    for (EdgeId eid : g.incident(u)) {
      if (edge_blocked(eid)) continue;
      const GraphEdge& ge = g.edge(eid);
      const NodeId v = ge.other(u);
      if (node_blocked(v)) continue;
      double w = ge.length;
      if (q.extra_cost != nullptr)
        w += (*q.extra_cost)[static_cast<std::size_t>(eid)];
      const double nd = e.d + w;
      if (nd < ws.dist(v)) {
        // A stub that is not a target leads nowhere: its pop would relax
        // only the edge back to `u`, and change no label.
        if (seek && g.incident(v).size() == 1 && !ws.is_target(v)) continue;
        const double hv = h(v);
        if (nd + hv > q.cost_cap) continue;  // no wanted path (or hv kInf)
        ws.set_dist(v, nd, eid);
        ws.heap_push(nd + hv, nd, v);
      }
    }
  }
  return kInvalidNode;
}

bool extract_path(const RoutingGraph& g, const SearchWorkspace& ws,
                  NodeId target, PathResult& out) {
  out.edges.clear();
  const double d = ws.dist(target);
  if (d == kInf) return false;
  out.dst = target;
  out.length = d;
  NodeId cur = target;
  while (ws.via_edge(cur) != SearchWorkspace::kNoEdge) {
    const EdgeId eid = ws.via_edge(cur);
    out.edges.push_back(eid);
    cur = g.edge(eid).other(cur);
  }
  out.src = cur;
  std::reverse(out.edges.begin(), out.edges.end());
  return true;
}

std::optional<PathResult> shortest_path(const RoutingGraph& g, NodeId s,
                                        NodeId t, const PathQuery& q) {
  SearchWorkspace ws;
  return shortest_path(g, s, t, q, ws);
}

std::optional<PathResult> shortest_path(const RoutingGraph& g, NodeId s,
                                        NodeId t, const PathQuery& q,
                                        SearchWorkspace& ws) {
  const NodeId sources[] = {s};
  const NodeId targets[] = {t};
  return shortest_path_between_sets(g, sources, targets, q, ws);
}

std::optional<PathResult> shortest_path_between_sets(
    const RoutingGraph& g, std::span<const NodeId> sources,
    std::span<const NodeId> targets, const PathQuery& q) {
  SearchWorkspace ws;
  return shortest_path_between_sets(g, sources, targets, q, ws);
}

std::optional<PathResult> shortest_path_between_sets(
    const RoutingGraph& g, std::span<const NodeId> sources,
    std::span<const NodeId> targets, const PathQuery& q, SearchWorkspace& ws) {
  ws.clear_blocks();
  const NodeId hit = search(g, sources, targets, q, ws);
  if (hit == kInvalidNode) return std::nullopt;
  PathResult r;
  extract_path(g, ws, hit, r);
  return r;
}

}  // namespace tw
