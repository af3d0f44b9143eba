// The routing graph: the only input the global router needs besides the
// net list (Section 4.2 — "the global router is independent of the layout
// style since the only inputs to the algorithm are a net list and a
// channel graph"). Nodes carry positions (for path lengths and for
// nearest-pin ordering); edges carry a length and a capacity (the number
// of tracks the channel edge can accommodate).
#pragma once

#include <cstdint>
#include <vector>

#include "geom/point.hpp"

namespace tw {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;

struct GraphEdge {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  double length = 0.0;
  int capacity = 0;

  NodeId other(NodeId n) const { return n == a ? b : a; }
};

class RoutingGraph {
public:
  RoutingGraph();
  // Not copyable. A move hands the uid to the graph that now holds the
  // edges and gives the emptied source a fresh one, so a uid never refers
  // to two graphs with different edges (see uid()).
  RoutingGraph(const RoutingGraph&) = delete;
  RoutingGraph& operator=(const RoutingGraph&) = delete;
  RoutingGraph(RoutingGraph&& o) noexcept;
  RoutingGraph& operator=(RoutingGraph&& o) noexcept;

  NodeId add_node(Point pos);
  EdgeId add_edge(NodeId a, NodeId b, double length, int capacity);

  std::size_t num_nodes() const { return pos_.size(); }
  std::size_t num_edges() const { return edges_.size(); }

  Point node_pos(NodeId n) const { return pos_[static_cast<std::size_t>(n)]; }
  const GraphEdge& edge(EdgeId e) const {
    return edges_[static_cast<std::size_t>(e)];
  }
  const std::vector<GraphEdge>& edges() const { return edges_; }

  /// Edge ids incident to node `n`.
  const std::vector<EdgeId>& incident(NodeId n) const {
    return adj_[static_cast<std::size_t>(n)];
  }

  /// Total length of a path given as a list of edge ids.
  double path_length(const std::vector<EdgeId>& path) const;

  /// Checks that `path` is a connected walk from `from` to `to`; returns
  /// the node sequence (empty when invalid).
  std::vector<NodeId> walk_nodes(NodeId from,
                                 const std::vector<EdgeId>& path) const;

  /// Process-unique identity of this graph's edge history. Graphs are
  /// append-only, a construction draws a fresh uid and a move carries it
  /// along with the edges (the emptied source draws a fresh one), so a
  /// (uid, num_edges) pair identifies an immutable edge prefix — what
  /// SearchWorkspace keys its incremental A* scale cache on.
  std::uint64_t uid() const { return uid_; }

private:
  std::uint64_t uid_;
  std::vector<Point> pos_;
  std::vector<GraphEdge> edges_;
  std::vector<std::vector<EdgeId>> adj_;
};

}  // namespace tw
