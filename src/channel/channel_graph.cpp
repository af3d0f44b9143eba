#include "channel/channel_graph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tw {

std::vector<Rect> free_space_slabs(const Placement& placement,
                                   const Rect& core) {
  // Gather every tile clipped to the core.
  std::vector<Rect> tiles;
  const auto n = static_cast<CellId>(placement.netlist().num_cells());
  for (CellId c = 0; c < n; ++c)
    for (const Rect& t : placement.absolute_tiles(c)) {
      const Rect clipped = t.intersect(core);
      if (clipped.valid() && clipped.area() > 0) tiles.push_back(clipped);
    }

  // Strip boundaries: every distinct tile y plus the core bounds.
  std::vector<Coord> ys{core.ylo, core.yhi};
  for (const Rect& t : tiles) {
    ys.push_back(t.ylo);
    ys.push_back(t.yhi);
  }
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());

  std::vector<Rect> slabs;
  for (std::size_t s = 0; s + 1 < ys.size(); ++s) {
    const Coord ylo = ys[s];
    const Coord yhi = ys[s + 1];
    if (yhi <= ylo) continue;
    // Occupied x-intervals in this strip.
    std::vector<Span> occupied;
    for (const Rect& t : tiles)
      if (t.ylo <= ylo && t.yhi >= yhi) occupied.push_back(t.xspan());
    for (const Span& f : subtract_spans(core.xspan(), occupied))
      slabs.push_back({f.lo, ylo, f.hi, yhi});
  }

  // Merge vertically stackable slabs with identical x-range.
  std::sort(slabs.begin(), slabs.end(), [](const Rect& a, const Rect& b) {
    if (a.xlo != b.xlo) return a.xlo < b.xlo;
    if (a.xhi != b.xhi) return a.xhi < b.xhi;
    return a.ylo < b.ylo;
  });
  std::vector<Rect> merged;
  for (const Rect& r : slabs) {
    if (!merged.empty() && merged.back().xlo == r.xlo &&
        merged.back().xhi == r.xhi && merged.back().yhi == r.ylo) {
      merged.back().yhi = r.yhi;
    } else {
      merged.push_back(r);
    }
  }
  return merged;
}

ChannelGraph build_channel_graph(const Placement& placement, const Rect& core) {
  ChannelGraph cg;
  cg.edges = collect_edges(placement, core);
  cg.regions = find_critical_regions(cg.edges);
  cg.slabs = free_space_slabs(placement, core);

  const Netlist& nl = placement.netlist();
  const Coord ts = std::max<Coord>(1, nl.tech().track_separation);

  // Slab nodes.
  cg.slab_node.resize(cg.slabs.size());
  for (std::size_t s = 0; s < cg.slabs.size(); ++s)
    cg.slab_node[s] = cg.graph.add_node(cg.slabs[s].center());

  // Slab adjacency: shared boundary of positive length. After the strip
  // decomposition slabs in the same strip never touch, so contact is
  // horizontal (stacked strips) except across merged slabs, where vertical
  // side contact is possible too; handle both.
  for (std::size_t a = 0; a < cg.slabs.size(); ++a) {
    for (std::size_t b = a + 1; b < cg.slabs.size(); ++b) {
      const Rect& ra = cg.slabs[a];
      const Rect& rb = cg.slabs[b];
      Coord contact = 0;
      if (ra.yhi == rb.ylo || rb.yhi == ra.ylo)
        contact = std::max(contact, ra.xspan().overlap(rb.xspan()));
      if (ra.xhi == rb.xlo || rb.xhi == ra.xlo)
        contact = std::max(contact, ra.yspan().overlap(rb.yspan()));
      if (contact <= 0) continue;
      const double len =
          static_cast<double>(manhattan(ra.center(), rb.center()));
      const int cap = static_cast<int>(contact / ts);
      cg.graph.add_edge(cg.slab_node[a], cg.slab_node[b], len, cap);
      cg.edge_slabs.push_back({static_cast<std::int32_t>(a),
                               static_cast<std::int32_t>(b)});
    }
  }

  // Pin projection: each pin becomes a node attached to the nearest slab
  // (pins sit on a cell edge, whose outside borders a slab).
  cg.pin_node.assign(nl.num_pins(), kInvalidNode);
  cg.pin_slab.assign(nl.num_pins(), -1);
  for (const auto& pin : nl.pins()) {
    const Point pos = placement.pin_position(pin.id);
    std::int32_t best = -1;
    Coord best_dist = std::numeric_limits<Coord>::max();
    for (std::size_t s = 0; s < cg.slabs.size(); ++s) {
      const Rect& r = cg.slabs[s];
      const Coord dx = std::max<Coord>({r.xlo - pos.x, pos.x - r.xhi, 0});
      const Coord dy = std::max<Coord>({r.ylo - pos.y, pos.y - r.yhi, 0});
      const Coord d = dx + dy;
      if (d < best_dist) {
        best_dist = d;
        best = static_cast<std::int32_t>(s);
      }
    }
    if (best < 0) continue;  // no free space at all
    const Rect& r = cg.slabs[static_cast<std::size_t>(best)];
    const Point proj{std::clamp(pos.x, r.xlo, r.xhi),
                     std::clamp(pos.y, r.ylo, r.yhi)};
    const NodeId pn = cg.graph.add_node(proj);
    const double stub_len = static_cast<double>(manhattan(proj, r.center()));
    const int cap =
        std::max(1, static_cast<int>(std::min(r.width(), r.height()) / ts));
    cg.graph.add_edge(pn, cg.slab_node[static_cast<std::size_t>(best)],
                      stub_len, cap);
    cg.edge_slabs.push_back({best, best});
    cg.pin_node[static_cast<std::size_t>(pin.id)] = pn;
    cg.pin_slab[static_cast<std::size_t>(pin.id)] = best;
  }

  return cg;
}

std::vector<NetTargets> build_net_targets(const Netlist& nl,
                                          const ChannelGraph& cg) {
  std::vector<NetTargets> out(nl.num_nets());
  for (const auto& net : nl.nets()) {
    NetTargets& t = out[static_cast<std::size_t>(net.id)];
    // Group this net's pins by equivalence class; class 0 pins stand alone.
    std::vector<std::pair<std::int32_t, NodeId>> classed;
    for (PinId pid : net.pins) {
      const NodeId node = cg.pin_node[static_cast<std::size_t>(pid)];
      if (node == kInvalidNode) continue;
      const std::int32_t cls = nl.pin(pid).equiv_class;
      if (cls == 0) {
        t.pins.push_back({node});
      } else {
        classed.push_back({cls, node});
      }
    }
    std::sort(classed.begin(), classed.end());
    for (std::size_t i = 0; i < classed.size();) {
      std::vector<NodeId> alts;
      const std::int32_t cls = classed[i].first;
      while (i < classed.size() && classed[i].first == cls)
        alts.push_back(classed[i++].second);
      t.pins.push_back(std::move(alts));
    }
  }
  return out;
}

SlabCrossing slab_crossing(const ChannelGraph& cg, EdgeId e) {
  SlabCrossing out;
  const auto& [sa, sb] = cg.edge_slabs[static_cast<std::size_t>(e)];
  if (sa < 0 || sa == sb) return out;  // pin stub: no crossing
  const Rect& ra = cg.slabs[static_cast<std::size_t>(sa)];
  const Rect& rb = cg.slabs[static_cast<std::size_t>(sb)];
  if (ra.yhi == rb.ylo || rb.yhi == ra.ylo) {
    const Span ov = ra.xspan().intersect(rb.xspan());
    out.at = {(ov.lo + ov.hi) / 2, ra.yhi == rb.ylo ? ra.yhi : rb.yhi};
  } else {
    const Span ov = ra.yspan().intersect(rb.yspan());
    out.at = {ra.xhi == rb.xlo ? ra.xhi : rb.xhi, (ov.lo + ov.hi) / 2};
  }
  for (std::size_t r = 0; r < cg.regions.size(); ++r)
    if (cg.regions[r].rect.contains(out.at))
      out.regions.push_back(static_cast<std::int32_t>(r));
  return out;
}

std::vector<int> region_densities(
    const ChannelGraph& cg,
    const std::vector<std::vector<EdgeId>>& net_route_edges) {
  // A net contributes one track to a channel when its route *crosses* the
  // channel, i.e. when it passes from one slab to an adjacent one through a
  // boundary point inside the region. Counting every region a route merely
  // touches would overstate the density several-fold (routes sweep through
  // large slabs) and balloon the derived channel widths.
  std::vector<std::vector<std::int32_t>> edge_regions(cg.edge_slabs.size());
  for (std::size_t e = 0; e < cg.edge_slabs.size(); ++e)
    edge_regions[e] = slab_crossing(cg, static_cast<EdgeId>(e)).regions;

  std::vector<int> density(cg.regions.size(), 0);
  std::vector<int> last_net(cg.regions.size(), -1);
  for (std::size_t n = 0; n < net_route_edges.size(); ++n) {
    for (EdgeId e : net_route_edges[n]) {
      for (std::int32_t r : edge_regions[static_cast<std::size_t>(e)]) {
        if (last_net[static_cast<std::size_t>(r)] == static_cast<int>(n))
          continue;  // count each net once per region
        last_net[static_cast<std::size_t>(r)] = static_cast<int>(n);
        ++density[static_cast<std::size_t>(r)];
      }
    }
  }
  return density;
}

}  // namespace tw
