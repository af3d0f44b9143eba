#include "route/graph.hpp"

#include <atomic>
#include <stdexcept>
#include <utility>

namespace tw {
namespace {

std::uint64_t next_graph_uid() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

RoutingGraph::RoutingGraph() : uid_(next_graph_uid()) {}

RoutingGraph::RoutingGraph(RoutingGraph&& o) noexcept
    : uid_(std::exchange(o.uid_, next_graph_uid())),
      pos_(std::move(o.pos_)),
      edges_(std::move(o.edges_)),
      adj_(std::move(o.adj_)) {
  o.pos_.clear();
  o.edges_.clear();
  o.adj_.clear();
}

RoutingGraph& RoutingGraph::operator=(RoutingGraph&& o) noexcept {
  if (this != &o) {
    uid_ = std::exchange(o.uid_, next_graph_uid());
    pos_ = std::move(o.pos_);
    edges_ = std::move(o.edges_);
    adj_ = std::move(o.adj_);
    o.pos_.clear();
    o.edges_.clear();
    o.adj_.clear();
  }
  return *this;
}

NodeId RoutingGraph::add_node(Point pos) {
  pos_.push_back(pos);
  adj_.emplace_back();
  return static_cast<NodeId>(pos_.size() - 1);
}

EdgeId RoutingGraph::add_edge(NodeId a, NodeId b, double length, int capacity) {
  if (a < 0 || b < 0 || static_cast<std::size_t>(a) >= pos_.size() ||
      static_cast<std::size_t>(b) >= pos_.size())
    throw std::invalid_argument("add_edge: unknown node");
  if (a == b) throw std::invalid_argument("add_edge: self loop");
  if (length < 0.0) throw std::invalid_argument("add_edge: negative length");
  GraphEdge e{a, b, length, capacity};
  edges_.push_back(e);
  const EdgeId id = static_cast<EdgeId>(edges_.size() - 1);
  adj_[static_cast<std::size_t>(a)].push_back(id);
  adj_[static_cast<std::size_t>(b)].push_back(id);
  return id;
}

double RoutingGraph::path_length(const std::vector<EdgeId>& path) const {
  double sum = 0.0;
  for (EdgeId e : path) sum += edge(e).length;
  return sum;
}

std::vector<NodeId> RoutingGraph::walk_nodes(
    NodeId from, const std::vector<EdgeId>& path) const {
  std::vector<NodeId> nodes{from};
  NodeId cur = from;
  for (EdgeId eid : path) {
    const GraphEdge& e = edge(eid);
    if (e.a != cur && e.b != cur) return {};
    cur = e.other(cur);
    nodes.push_back(cur);
  }
  return nodes;
}

}  // namespace tw
