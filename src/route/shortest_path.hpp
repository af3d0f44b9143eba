// Goal-directed shortest paths on the routing graph, with optional
// blocked edges/nodes (needed by the Lawler deviation scheme) and
// optional per-edge extra costs (used by the congestion-aware routers).
//
// Every query runs on a SearchWorkspace (epoch-stamped state, reusable
// heap — see search_workspace.hpp) and, when the workspace's geometric
// scale allows it, as A* toward the bounding box of the target positions.
// A* changes which nodes are explored but never the returned path
// lengths; the heap pops by (f, -d, node), so every tie is broken
// deterministically. The legacy overloads without a workspace remain for
// convenience and build a fresh workspace per call — hot paths should
// thread one through.
#pragma once

#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "route/graph.hpp"
#include "route/search_workspace.hpp"

namespace tw {

struct PathResult {
  std::vector<EdgeId> edges;  ///< in walk order from `src`
  double length = 0.0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;

  friend bool operator==(const PathResult&, const PathResult&) = default;
};

struct PathQuery {
  /// Edges that may not be used (size num_edges, or empty for none).
  const std::vector<char>* blocked_edges = nullptr;
  /// Nodes that may not be visited (size num_nodes, or empty for none).
  /// Source/target nodes themselves must not be blocked.
  const std::vector<char>* blocked_nodes = nullptr;
  /// Additive per-edge cost on top of the edge length (congestion
  /// models). Must be non-negative — A* admissibility relies on edge
  /// weights never dropping below the geometric edge length.
  const std::vector<double>* extra_cost = nullptr;
  /// Paths costing strictly more than this are not wanted: the search
  /// never pushes a node whose lower bound d + h exceeds the cap
  /// (equal-cost paths are kept). The deviation algorithm caps spur
  /// searches at the candidate length that would be the last one emitted.
  double cost_cap = std::numeric_limits<double>::infinity();
};

/// When the low-level search may stop.
enum class SearchStop {
  kFirstTarget,   ///< at the first (nearest) settled target
  kAllReachable,  ///< never early — settle everything reachable
};

/// Low-level search core. Runs Dijkstra/A* from `sources` over `g`,
/// honoring both the query's blocked vectors and the workspace's
/// persistent block marks (callers that don't manage ws blocks should use
/// the wrappers below, which clear them). Results are read back through
/// `ws.dist()` / `ws.via_edge()` / `extract_path`; with kFirstTarget the
/// settled target is returned (kInvalidNode when no target is
/// reachable). Under kFirstTarget only the returned target's distance is
/// guaranteed final; other settled nodes may carry non-final labels when
/// A* terminated early.
///
/// The target-seeking mode (kFirstTarget) also skips two kinds of dead
/// end; kAllReachable settles every node it can reach.
///  * Stubs: a degree-1 node that is not a target is never entered (it
///    keeps no label). No path to a target runs through one, and its pop
///    would relax only the edge it came in by. Channel graphs hang every
///    pin off its slab node this way.
///  * Sealed targets: once the sources are admitted, the search returns
///    kInvalidNode before its first pop unless some target is an admitted
///    source or has an open (unblocked) edge to an open neighbour. A spur
///    search next to a one-node pin whose stub edge is blocked is this
///    case.
/// Neither rule changes a returned path, a target's label or a tie-break:
/// the heap order is strict and a skipped pop would have changed nothing,
/// so every other pop happens in the same order. Only the work counters
/// (`nodes_popped`, `heap_pushes`) fall.
NodeId search(const RoutingGraph& g, std::span<const NodeId> sources,
              std::span<const NodeId> targets, const PathQuery& q,
              SearchWorkspace& ws,
              SearchStop stop = SearchStop::kFirstTarget);

/// Reads the path to `target` out of the workspace after a search(),
/// reusing `out.edges`' capacity. False when `target` was not reached.
bool extract_path(const RoutingGraph& g, const SearchWorkspace& ws,
                  NodeId target, PathResult& out);

/// Shortest path between two nodes. nullopt when unreachable.
std::optional<PathResult> shortest_path(const RoutingGraph& g, NodeId s,
                                        NodeId t, const PathQuery& q = {});
std::optional<PathResult> shortest_path(const RoutingGraph& g, NodeId s,
                                        NodeId t, const PathQuery& q,
                                        SearchWorkspace& ws);

/// Shortest path from any node in `sources` to any node in `targets`
/// (multi-source, multi-target). The returned PathResult records which
/// source and target were used; ties among equally-near targets resolve
/// deterministically through the heap order (under plain Dijkstra that is
/// the smallest node id; goal direction may prefer a different — equally
/// near — target, but is itself a pure function of the query).
std::optional<PathResult> shortest_path_between_sets(
    const RoutingGraph& g, std::span<const NodeId> sources,
    std::span<const NodeId> targets, const PathQuery& q = {});
std::optional<PathResult> shortest_path_between_sets(
    const RoutingGraph& g, std::span<const NodeId> sources,
    std::span<const NodeId> targets, const PathQuery& q, SearchWorkspace& ws);

}  // namespace tw
