#include "route/sequential.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "check/contracts.hpp"
#include "route/interchange.hpp"

namespace tw {
namespace {

/// Additive cost per unit of existing overflow on an edge (soft congestion
/// avoidance; a saturated edge costs length + penalty * excess). It is
/// positive and penalties only ever grow during a run, which keeps the
/// workspace's A* heuristic admissible (see search_workspace.hpp).
constexpr double kCongestionPenalty = 1e4;

}  // namespace

SequentialResult route_sequential(const RoutingGraph& g,
                                  const std::vector<NetTargets>& nets,
                                  std::span<const int> order) {
  SequentialResult r;
  r.routes.resize(nets.size());
  r.edge_usage.assign(g.num_edges(), 0);

  std::vector<int> natural;
  if (order.empty()) {
    natural.resize(nets.size());
    std::iota(natural.begin(), natural.end(), 0);
    order = natural;
  }

  SearchWorkspace ws;
  std::vector<double> extra(g.num_edges(), 0.0);  // per-edge penalty, >= 0
  for (int idx : order) {
    const auto i = static_cast<std::size_t>(idx);
    auto route = greedy_route(g, nets[i], &extra, ws);
    if (!route) {
      ++r.unrouted_nets;
      continue;
    }
    r.routes[i] = std::move(*route);
    TW_ENSURE_FULL(route_connects(g, nets[i], r.routes[i]),
                   "sequential route of net ", i, " does not connect it");
    r.total_length += r.routes[i].length;
    for (EdgeId e : r.routes[i].edges) {
      const auto ei = static_cast<std::size_t>(e);
      ++r.edge_usage[ei];
      // Penalize edges at or beyond capacity for subsequent nets.
      const int cap = g.edge(e).capacity;
      if (r.edge_usage[ei] >= cap)
        extra[ei] = kCongestionPenalty *
                    static_cast<double>(r.edge_usage[ei] - cap + 1);
    }
  }
  r.total_overflow = total_overflow(g, r.edge_usage);
  return r;
}

}  // namespace tw
