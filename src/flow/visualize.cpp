#include "flow/visualize.hpp"

#include <algorithm>

#include "util/svg_writer.hpp"

namespace tw {
namespace {

/// A readable qualitative palette, cycled per cell.
const char* cell_color(CellId c, bool custom) {
  static const char* macro_colors[] = {"#4e79a7", "#59a1cf", "#2c5f8a",
                                       "#6b8fb3", "#3d6f9e"};
  static const char* custom_colors[] = {"#59a14f", "#7ab871", "#3e7d38"};
  if (custom) return custom_colors[static_cast<std::size_t>(c) % 3];
  return macro_colors[static_cast<std::size_t>(c) % 5];
}

/// Every cell (its tiles and name) and every pin.
void draw_cells(SvgWriter& svg, const Placement& placement) {
  const Netlist& nl = placement.netlist();
  for (const auto& cell : nl.cells()) {
    const char* color = cell_color(cell.id, cell.is_custom());
    for (const Rect& t : placement.absolute_tiles(cell.id))
      svg.rect(t, color, "#222", 1.0, 0.85);
    const Rect bb = placement.bbox(cell.id);
    svg.text(bb.center(), cell.name,
             std::max(8.0, static_cast<double>(bb.height()) / 6.0), "#fff");
  }
  for (const auto& pin : nl.pins())
    svg.circle(placement.pin_position(pin.id), 1.5,
               pin.equiv_class != 0 ? "#e15759" : "#f1ce63");
}

}  // namespace

std::string placement_svg(const Placement& placement, const Rect& core) {
  SvgWriter svg(core, core.width() / 20);
  svg.rect(core, "#f7f7f7", "#999", 2.0);
  draw_cells(svg, placement);
  return svg.str();
}

std::string routing_svg(const Placement& placement, const Rect& core,
                        const ChannelGraph& cg,
                        const GlobalRouteResult& routed) {
  SvgWriter svg(core, core.width() / 20);
  svg.rect(core, "#f7f7f7", "#999", 2.0);

  // Channel regions shaded by routed density.
  std::vector<std::vector<EdgeId>> route_edges(routed.choice.size());
  for (std::size_t n = 0; n < routed.choice.size(); ++n)
    if (const Route* r = routed.route_of(n)) route_edges[n] = r->edges;
  const auto densities = region_densities(cg, route_edges);
  const int dmax =
      std::max(1, *std::max_element(densities.begin(), densities.end()));
  for (std::size_t r = 0; r < cg.regions.size(); ++r) {
    const double load =
        static_cast<double>(densities[r]) / static_cast<double>(dmax);
    if (load <= 0.0) continue;
    svg.rect(cg.regions[r].rect, "#e15759", "none", 0.0, 0.15 + 0.45 * load);
  }

  draw_cells(svg, placement);

  // Selected routes, as polylines through the graph nodes.
  for (std::size_t n = 0; n < routed.choice.size(); ++n) {
    const Route* route = routed.route_of(n);
    if (!route) continue;
    for (EdgeId e : route->edges) {
      const GraphEdge& ge = cg.graph.edge(e);
      svg.line(cg.graph.node_pos(ge.a), cg.graph.node_pos(ge.b), "#555", 1.0,
               0.5);
    }
  }
  return svg.str();
}

}  // namespace tw
