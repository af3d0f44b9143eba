#include "route/channel_router.hpp"

#include <algorithm>
#include <map>

namespace tw {

int channel_density(const std::vector<ChannelSegment>& segments) {
  // Sweep: +1 at each segment start, -1 past each end. Touching intervals
  // of different nets do not stack (the via sits between them), matching
  // the left-edge sharing rule; same-net overlap counts once.
  //
  // Count per coordinate the number of distinct nets whose interval
  // strictly contains the unit [x, x+1).
  std::vector<std::pair<Coord, int>> events;
  // Merge same-net intervals first.
  std::map<std::int32_t, std::vector<Span>> by_net;
  for (const auto& s : segments) by_net[s.net].push_back(s.extent);
  for (auto& [net, spans] : by_net) {
    (void)net;
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.lo < b.lo; });
    Span cur = spans.front();
    for (std::size_t i = 1; i <= spans.size(); ++i) {
      if (i < spans.size() && spans[i].lo <= cur.hi) {
        cur.hi = std::max(cur.hi, spans[i].hi);
        continue;
      }
      if (cur.hi > cur.lo) {
        events.push_back({cur.lo, +1});
        events.push_back({cur.hi, -1});
      }
      if (i < spans.size()) cur = spans[i];
    }
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;  // process -1 before +1 at a point
            });
  int density = 0, current = 0;
  for (const auto& [x, delta] : events) {
    (void)x;
    current += delta;
    density = std::max(density, current);
  }
  return density;
}

ChannelRouteResult route_channel(const std::vector<ChannelSegment>& segments) {
  ChannelRouteResult r;
  r.track.assign(segments.size(), -1);
  r.density = channel_density(segments);

  // Merge each net's touching/overlapping segments into "wires" first —
  // they are the same piece of metal and must share one track, which is
  // also what makes plain left-edge optimal afterwards.
  struct Wire {
    Span extent;
    std::vector<std::size_t> members;  ///< indices into `segments`
  };
  std::map<std::int32_t, std::vector<std::size_t>> by_net;
  for (std::size_t i = 0; i < segments.size(); ++i)
    by_net[segments[i].net].push_back(i);
  std::vector<Wire> wires;
  for (auto& [net, idxs] : by_net) {
    (void)net;
    std::sort(idxs.begin(), idxs.end(), [&](std::size_t a, std::size_t b) {
      return segments[a].extent.lo < segments[b].extent.lo;
    });
    Wire cur{segments[idxs[0]].extent, {idxs[0]}};
    for (std::size_t k = 1; k <= idxs.size(); ++k) {
      if (k < idxs.size() && segments[idxs[k]].extent.lo <= cur.extent.hi) {
        cur.extent.hi = std::max(cur.extent.hi, segments[idxs[k]].extent.hi);
        cur.members.push_back(idxs[k]);
        continue;
      }
      wires.push_back(cur);
      if (k < idxs.size()) cur = Wire{segments[idxs[k]].extent, {idxs[k]}};
    }
  }

  // Left-edge over the wires: sort by left endpoint, pack each into the
  // lowest track whose rightmost occupied coordinate is at or before its
  // start (distinct nets may abut — the via sits between them).
  std::sort(wires.begin(), wires.end(), [](const Wire& a, const Wire& b) {
    if (a.extent.lo != b.extent.lo) return a.extent.lo < b.extent.lo;
    return a.extent.hi < b.extent.hi;
  });
  std::vector<Coord> track_right;
  for (const Wire& w : wires) {
    int assigned = -1;
    for (std::size_t t = 0; t < track_right.size(); ++t) {
      if (w.extent.lo >= track_right[t]) {
        assigned = static_cast<int>(t);
        break;
      }
    }
    if (assigned < 0) {
      track_right.push_back(w.extent.hi);
      assigned = static_cast<int>(track_right.size()) - 1;
    } else {
      track_right[static_cast<std::size_t>(assigned)] = w.extent.hi;
    }
    for (std::size_t idx : w.members) r.track[idx] = assigned;
  }
  r.tracks_used = static_cast<int>(track_right.size());
  return r;
}

int validate_channel_widths(
    const ChannelGraph& cg,
    const std::vector<std::vector<EdgeId>>& net_routes) {
  // Crossing intervals per region: a net that crosses a region occupies it
  // over the interval between its entry and exit points (projected on the
  // channel's length axis); approximate each crossing with the span
  // between the crossing points of consecutive route edges inside the
  // region, falling back to the single crossing point.
  std::vector<std::vector<ChannelSegment>> per_region(cg.regions.size());

  for (std::size_t n = 0; n < net_routes.size(); ++n) {
    // Collect this net's crossing coordinates per region.
    std::map<std::size_t, std::vector<Point>> touches;
    for (EdgeId e : net_routes[n]) {
      const SlabCrossing c = slab_crossing(cg, e);
      for (const std::int32_t r : c.regions)
        touches[static_cast<std::size_t>(r)].push_back(c.at);
    }
    for (const auto& [r, pts] : touches) {
      const CriticalRegion& region = cg.regions[r];
      Coord lo = region.vertical ? pts[0].y : pts[0].x;
      Coord hi = lo;
      for (const Point& p : pts) {
        const Coord c = region.vertical ? p.y : p.x;
        lo = std::min(lo, c);
        hi = std::max(hi, c);
      }
      // A pass-through crossing occupies at least one track pitch.
      if (hi == lo) ++hi;
      per_region[r].push_back(
          {static_cast<std::int32_t>(n), Span{lo, hi}});
    }
  }

  int violations = 0;
  for (const auto& segments : per_region) {
    if (segments.empty()) continue;
    const ChannelRouteResult r = route_channel(segments);
    if (r.tracks_used > r.density + 1) ++violations;
  }
  return violations;
}

}  // namespace tw
