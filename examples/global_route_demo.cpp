// Global routing demo: channel definition and the two-phase global router
// on a placed circuit, with the per-channel densities and the Eqn 22
// channel widths printed — the data the placement-refinement step
// consumes.
//
//   ./global_route_demo [seed]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "channel/channel_graph.hpp"
#include "place/legalize.hpp"
#include "place/stage1.hpp"
#include "route/interchange.hpp"
#include "route/sequential.hpp"
#include "workload/paper_circuits.hpp"

using namespace tw;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;

  const Netlist nl = generate_circuit(tiny_circuit(seed));
  std::printf("circuit: %zu cells, %zu nets, %zu pins\n\n", nl.num_cells(),
              nl.num_nets(), nl.num_pins());

  // Place with stage 1, then clean up residual overlap.
  Stage1Params params;
  params.attempts_per_cell = 40;
  Stage1Placer placer(nl, params, seed + 3);
  Placement placement(nl);
  const Stage1Result s1 = placer.run(placement);
  legalize_spread(placement, s1.core, 2 * nl.tech().track_separation);

  // Channel definition (Section 4.1).
  const ChannelGraph cg = build_channel_graph(placement, s1.core);
  std::size_t junctions = 0;
  for (const auto& r : cg.regions)
    if (r.is_junction()) ++junctions;
  std::printf("channel definition: %zu critical regions (%zu junctions), "
              "%zu free-space slabs, graph: %zu nodes / %zu edges\n",
              cg.regions.size(), junctions, cg.slabs.size(),
              cg.graph.num_nodes(), cg.graph.num_edges());

  // Phase 1 + 2 (Section 4.2).
  const auto targets = build_net_targets(nl, cg);
  GlobalRouter router(cg.graph, {{8}, seed + 9});
  const GlobalRouteResult routed = router.route(targets);
  std::printf("global routing: total length %.0f, overflow X = %d, "
              "%d unrouted, %lld interchange attempts\n",
              routed.total_length, routed.total_overflow, routed.unrouted_nets,
              static_cast<long long>(routed.interchange_attempts));

  // Alternatives statistics (phase 1's M routes per net).
  std::size_t alt_total = 0, routed_nets = 0;
  int nonzero_choice = 0;
  for (std::size_t n = 0; n < targets.size(); ++n) {
    if (routed.choice[n] < 0) continue;
    ++routed_nets;
    alt_total += routed.alternatives[n].size();
    if (routed.choice[n] > 0) ++nonzero_choice;
  }
  std::printf("phase 1 kept %.1f alternatives per net; phase 2 moved %d "
              "nets off their shortest route to satisfy capacities\n\n",
              static_cast<double>(alt_total) /
                  static_cast<double>(std::max<std::size_t>(1, routed_nets)),
              nonzero_choice);

  // Channel densities and Eqn 22 widths (the busiest ten channels).
  std::vector<std::vector<EdgeId>> route_edges(targets.size());
  for (std::size_t n = 0; n < targets.size(); ++n)
    if (const Route* r = routed.route_of(n)) route_edges[n] = r->edges;
  const auto densities = region_densities(cg, route_edges);

  std::vector<std::size_t> order(cg.regions.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return densities[a] > densities[b];
  });
  std::printf("busiest channels (width rule w = (d + 2) * t_s, Eqn 22):\n");
  std::printf("  %-28s %-10s %8s %7s %7s\n", "region", "axis", "density",
              "width", "have");
  const Coord ts = nl.tech().track_separation;
  for (std::size_t k = 0; k < std::min<std::size_t>(10, order.size()); ++k) {
    const CriticalRegion& r = cg.regions[order[k]];
    std::printf("  %-28s %-10s %8d %7lld %7lld\n", r.rect.str().c_str(),
                r.is_junction() ? "junction" : (r.vertical ? "vertical" : "horizontal"),
                densities[order[k]],
                static_cast<long long>((densities[order[k]] + 2) * ts),
                static_cast<long long>(r.thickness()));
  }

  // Contrast with the sequential baseline (first-come-first-served).
  const SequentialResult seq = route_sequential(cg.graph, targets);
  std::printf("\nsequential baseline: length %.0f, overflow %d "
              "(interchange router: %.0f / %d)\n",
              seq.total_length, seq.total_overflow, routed.total_length,
              routed.total_overflow);
  return 0;
}
