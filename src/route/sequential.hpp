// The classical sequential (net-at-a-time) global router used as the
// baseline for the order-dependence comparison (Section 4.2.2): nets are
// routed one after another in a caller-supplied order; each net takes the
// cheapest route on a graph whose congested edges carry an additive
// penalty. Early nets grab the short channels and later nets detour — so
// the result depends on the order, which bench_router_order demonstrates
// by shuffling.
#pragma once

#include <span>

#include "route/steiner.hpp"

namespace tw {

struct SequentialResult {
  std::vector<Route> routes;  ///< per net (empty edges+length 0 if unroutable)
  std::vector<int> edge_usage;
  double total_length = 0.0;
  int total_overflow = 0;
  int unrouted_nets = 0;
};

/// Routes `nets` in the order given by `order` (a permutation of net
/// indices; empty means natural order).
SequentialResult route_sequential(const RoutingGraph& g,
                                  const std::vector<NetTargets>& nets,
                                  std::span<const int> order = {});

}  // namespace tw
