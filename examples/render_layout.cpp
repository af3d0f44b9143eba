// Layout rendering: runs the full flow on a generated circuit and writes
// SVG figures of the final placement and the global routing, plus the
// structured text run report — everything one needs to inspect a result.
//
//   ./render_layout [seed] [output-prefix]
//
// Writes <prefix>_placement.svg, <prefix>_routing.svg.
#include <cstdio>
#include <fstream>
#include <cstdlib>
#include <string>

#include "channel/channel_graph.hpp"
#include "flow/report.hpp"
#include "flow/visualize.hpp"
#include "place/legalize.hpp"
#include "route/interchange.hpp"
#include "util/svg_writer.hpp"
#include "workload/paper_circuits.hpp"

using namespace tw;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
  const std::string prefix = argc > 2 ? argv[2] : "layout";

  const Netlist nl = generate_circuit(medium_circuit(seed));

  FlowParams params;
  params.stage1.attempts_per_cell = 40;
  params.seed = seed + 5;
  TimberWolfMC flow(nl, params);
  Placement placement(nl);
  const FlowResult r = flow.run(placement);

  std::printf("%s", flow_report(nl, placement, r).c_str());

  // Final placement figure.
  const Rect frame = r.stage2.final_core;
  {
    std::ofstream out(prefix + "_placement.svg");
    out << placement_svg(placement, frame);
  }

  // Routing figure: channel structure shaded by density plus the routes.
  const ChannelGraph cg = build_channel_graph(placement, frame);
  GlobalRouter router(cg.graph, {{8}, seed + 99});
  const GlobalRouteResult routed = router.route(build_net_targets(nl, cg));
  {
    std::ofstream out(prefix + "_routing.svg");
    out << routing_svg(placement, frame, cg, routed);
  }

  std::printf("\nwrote %s_placement.svg and %s_routing.svg (route length "
              "%.0f, overflow %d)\n",
              prefix.c_str(), prefix.c_str(), routed.total_length,
              routed.total_overflow);
  return 0;
}
