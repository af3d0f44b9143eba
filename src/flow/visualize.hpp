// SVG visualization of placements, channel structures and global
// routings — the fastest way to inspect what the annealer and router
// actually produced.
#pragma once

#include <string>

#include "channel/channel_graph.hpp"
#include "place/placement.hpp"
#include "route/interchange.hpp"

namespace tw {

/// The placed cells (macros blue, custom cells green, with pins and
/// names) inside the core.
std::string placement_svg(const Placement& placement, const Rect& core);

/// Placement plus channel structure (critical regions shaded by routed
/// density) and the selected global routes (drawn through the slab
/// centers).
std::string routing_svg(const Placement& placement, const Rect& core,
                        const ChannelGraph& cg,
                        const GlobalRouteResult& routed);

}  // namespace tw
