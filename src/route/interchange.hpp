// The full global router (Section 4.2): phase one enumerates up to M
// alternative routes per net (see steiner.hpp); phase two selects one
// alternative per net with a random-interchange algorithm that minimizes
// the total routing length L (Eqn 23) subject to the channel-edge capacity
// constraints, using the total excess X (Eqn 24) as the feasibility
// measure. Because all alternatives exist up front and the interchange
// visits nets in random order driven by the current congestion, the
// classical net-routing-order dependence problem is avoided (bench_router_order
// demonstrates this against the sequential baseline).
#pragma once

#include <memory>

#include "recover/budget.hpp"
#include "recover/fault.hpp"
#include "route/steiner.hpp"
#include "util/rng.hpp"

namespace tw {

class WorkerCrew;

struct GlobalRouterParams {
  SteinerParams steiner;
  std::uint64_t seed = 1;
  /// Optional work budget (non-owning): each routed net and each
  /// interchange attempt charges one move; on expiry or cancellation the
  /// router stops where it stands — the selection so far is always a
  /// consistent (if overflowed) routing.
  recover::RunBudget* budget = nullptr;
  /// Optional kill points (non-owning): kRouteNet is polled before each
  /// net of phase one, so a crash mid-routing (after the stage-2 pass
  /// boundary, before the pass's anneal writes its first checkpoint) is
  /// reproducible in the resume tests. Polls never consume RNG state.
  recover::FaultInjector* faults = nullptr;
  /// Workers that enumerate phase one's alternatives, one
  /// SearchWorkspace each; 0 means host_workers(), one per hardware
  /// thread, and 1 keeps phase one on the calling thread. The result and
  /// its counters are identical for any count (docs/PERF.md "Parallel
  /// phase one").
  int workers = 0;
};

struct GlobalRouteResult {
  /// Alternatives per net, ascending by length (k = 0 is the shortest).
  std::vector<std::vector<Route>> alternatives;
  /// Selected alternative per net (-1 when the net could not be routed).
  std::vector<int> choice;
  /// D_j: number of nets whose selected route uses each graph edge.
  std::vector<int> edge_usage;
  double total_length = 0.0;  ///< L over routed nets
  int total_overflow = 0;     ///< X
  int unrouted_nets = 0;
  long long interchange_attempts = 0;
  /// Search work this route() call performed, summed over the deltas of
  /// every worker's workspace (see search_workspace.hpp); the same for
  /// any worker count.
  RouteCounters counters;

  /// The selected route of a net (nullptr when unrouted).
  const Route* route_of(std::size_t net) const {
    if (choice[net] < 0) return nullptr;
    return &alternatives[net][static_cast<std::size_t>(choice[net])];
  }
};

class GlobalRouter {
public:
  GlobalRouter(const RoutingGraph& g, GlobalRouterParams params = {});
  ~GlobalRouter();

  // Owns its crew's threads, whose jobs hold `this` during route().
  GlobalRouter(const GlobalRouter&) = delete;
  GlobalRouter& operator=(const GlobalRouter&) = delete;

  GlobalRouteResult route(const std::vector<NetTargets>& nets);

private:
  const RoutingGraph& g_;
  GlobalRouterParams params_;
  /// Phase one's crew, built by the first route() so a router that never
  /// routes starts no threads, and parked between calls.
  std::unique_ptr<WorkerCrew> crew_;
  /// One workspace per crew worker: workspace w serves worker w's
  /// phase-one nets, and workspace 0 (the calling thread's) also runs the
  /// rip-up augmentation. Repeated route() calls reuse their warm arrays.
  std::vector<SearchWorkspace> ws_;
};

/// X (Eqn 24) from per-edge usage and capacities.
int total_overflow(const RoutingGraph& g, const std::vector<int>& usage);

}  // namespace tw
