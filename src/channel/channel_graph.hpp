// Channel graph construction (Section 4.1, Figures 8-9).
//
// Two cooperating decompositions of the empty space are built:
//
//  * The *critical regions* — every empty rectangle bounded by exactly two
//    facing cell (or core) edges, plus crossing junctions. These carry the
//    paper's channel semantics: a single density parameter per channel and
//    the Eqn 22 width rule used by the placement-refinement step.
//
//  * The *free-space slabs* — a horizontal-strip decomposition of
//    (core minus cells) into non-overlapping rectangles. The slabs tile
//    the free space exactly, so their adjacency graph is connected
//    wherever the free space is connected; this is the graph the global
//    router runs on. Slab-to-slab edges carry a capacity equal to the
//    contact length over the track separation (the number of wires that
//    can cross between the two slabs); narrow channels therefore
//    constrain routes exactly where the critical regions say they should.
//
// Every pin is projected onto its cell edge into the adjacent slab and
// becomes its own graph node. Routed slab usage is mapped back onto the
// critical regions to obtain per-channel densities.
#pragma once

#include "channel/critical_region.hpp"
#include "route/graph.hpp"
#include "route/steiner.hpp"

namespace tw {

struct ChannelGraph {
  RoutingGraph graph;
  std::vector<PlacedEdge> edges;         ///< placed-edge universe
  std::vector<CriticalRegion> regions;   ///< channels (for refinement)
  std::vector<Rect> slabs;               ///< free-space decomposition

  /// slab index -> graph node (slabs are added to the graph first, so
  /// slab_node[i] == i; kept explicit for clarity).
  std::vector<NodeId> slab_node;
  std::vector<NodeId> pin_node;          ///< PinId -> node (kInvalidNode if unplaced)
  std::vector<std::int32_t> pin_slab;    ///< PinId -> slab index (-1 if none)

  /// Graph-edge -> the two slab indices it joins (pin stubs map both
  /// entries to the pin's slab).
  std::vector<std::pair<std::int32_t, std::int32_t>> edge_slabs;
};

/// Decomposes core minus the placed cells into non-overlapping rectangles
/// (horizontal strips, vertically merged). Cells are clipped to the core.
std::vector<Rect> free_space_slabs(const Placement& placement,
                                   const Rect& core);

/// Builds the channel graph for the current placement. The placement
/// should be overlap-free (see legalize_spread); overlapping cells shrink
/// the free space and may strand pins.
ChannelGraph build_channel_graph(const Placement& placement, const Rect& core);

/// Net targets for the global router, one NetTargets per net in id order:
/// pins sharing an electrical-equivalence class collapse into one logical
/// pin with several alternative nodes. Pins the channel graph could not
/// place (kInvalidNode) are dropped from their logical pin.
std::vector<NetTargets> build_net_targets(const Netlist& nl,
                                          const ChannelGraph& cg);

/// Where a route along graph edge `e` crosses from one slab into the
/// other: the midpoint of the two slabs' shared boundary, and the
/// critical regions containing that point, ascending. A pin stub crosses
/// nothing (no regions).
struct SlabCrossing {
  Point at;
  std::vector<std::int32_t> regions;
};
SlabCrossing slab_crossing(const ChannelGraph& cg, EdgeId e);

/// Per-region routed density: the number of distinct nets whose selected
/// route crosses a slab boundary inside each critical region (input to
/// Eqn 22).
std::vector<int> region_densities(
    const ChannelGraph& cg,
    const std::vector<std::vector<EdgeId>>& net_route_edges);

}  // namespace tw
