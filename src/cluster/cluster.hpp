// Bottom-up connectivity clustering: the coarsening half of the
// multilevel placement flow (DESIGN.md "Multilevel placement").
//
// cluster_netlist() groups strongly-connected cells into size-capped
// clusters, packs each cluster's members into a rectangle, and emits a
// coarse Netlist with one macro cell per cluster plus an invertible
// ClusterMap. Nets that leave a cluster survive as coarse nets with one
// aggregated pin per (cluster, net) incidence, projected onto the cluster
// boundary; nets entirely inside one cluster are dropped (they cost the
// same wherever the cluster goes) and counted in the map.
//
// Everything is a deterministic function of (netlist, params): the seed
// only drives the cluster-seed visit order, scoring ties break on cell
// ids, and no container iteration order depends on pointers or hashing —
// so same-seed multilevel runs stay byte-identical (see test_cluster's
// thread-determinism case).
#pragma once

#include <cstdint>
#include <vector>

#include "check/validation_report.hpp"
#include "geom/orientation.hpp"
#include "netlist/netlist.hpp"

namespace tw {

struct ClusterParams {
  /// Hard cap on cells per cluster (>= 1; 1 degenerates to the identity
  /// clustering). ~8 keeps the coarse netlist an order of magnitude
  /// smaller while clusters stay small enough to pack compactly.
  int max_cluster_size = 8;

  /// Seeds the cluster-seed visit order. Different seeds produce
  /// different (equally valid) clusterings; the same seed always
  /// reproduces the same one.
  std::uint64_t seed = 1;

  /// Uniform spacing inserted around every member when packing a
  /// cluster's interior (a routing allowance, in grid units). The flow
  /// passes the technology-consistent nominal_spacing(nl).
  Coord member_spacing = 0;

  /// Cap on the degree of an aggregated coarse net (>= 2 to take effect;
  /// anything below, including the 0 default, means no cap). A
  /// hub net incident on k clusters normally becomes one coarse net with
  /// k pins, so every coarse move of any incident cluster rescans all k
  /// bound pins — at SoC scale a clock touching thousands of clusters
  /// turns each move into a full sweep. With a cap, such a net is split
  /// into a chain of segments of at most this degree, consecutive
  /// segments sharing one cluster (so the pieces still pull each other
  /// together); coarse_net_of names the first segment, and every segment's
  /// flat_net_of points back at the source net.
  int max_aggregated_degree = 0;
};

/// One member of a cluster: a flat cell and the offset of its center from
/// the cluster cell's center, in the cluster's unoriented (N) local frame.
struct ClusterMember {
  CellId cell = kInvalidCell;
  Point offset;
};

/// The invertible record of one clustering. `cluster_of` and `members`
/// are mutually redundant views of the same partition (validate_clustering
/// cross-checks them); `coarse_net_of` / `flat_net_of` link the two net
/// spaces, with kInvalidNet marking flat nets dropped as intra-cluster.
/// Under a max_aggregated_degree cap a flat net may own several coarse
/// nets (a segment chain): coarse_net_of names the first segment, and
/// flat_net_of maps every segment back to the source net.
struct ClusterMap {
  std::vector<CellId> cluster_of;                  ///< flat cell -> coarse cell
  std::vector<std::vector<ClusterMember>> members; ///< coarse cell -> members
  std::vector<NetId> coarse_net_of;  ///< flat net -> first coarse segment
  std::vector<NetId> flat_net_of;    ///< coarse net -> source flat net
  int dropped_nets = 0;              ///< flat nets entirely inside one cluster
};

struct Clustering {
  Netlist coarse;
  ClusterMap map;
};

/// Clusters `nl` bottom-up by connectivity: seed cells are visited in a
/// seeded random order; each unassigned seed greedily absorbs the
/// unassigned neighbor with the highest accumulated net affinity
/// (1/(degree-1) per shared net, ties to the lower cell id) until the
/// size cap or the neighborhood is exhausted. The returned coarse netlist
/// passes Netlist::validate() and the map passes validate_clustering().
Clustering cluster_netlist(const Netlist& nl, const ClusterParams& params = {});

/// Where a member's center lands when its cluster cell sits at `center`
/// with orientation `orient` (the uncluster projection, one member at a
/// time — the flow applies it to every member of every cluster).
inline Point member_center(Point center, Orient orient,
                           const ClusterMember& m) {
  const Point d = apply_orient_vec(orient, m.offset);
  return {center.x + d.x, center.y + d.y};
}

/// Whole-structure validator in the check/validation_report.hpp style:
/// partition consistency (each flat cell in exactly one cluster, both
/// views agreeing), member offsets inside their cluster rectangle, area
/// conservation, net-mapping completeness (every flat net either dropped
/// as intra-cluster or mapped to one or more coarse segments that
/// together span exactly its incident clusters — a connected chain when
/// the degree cap split it — weights preserved on every segment), and
/// structural validity of the coarse netlist itself.
ValidationReport validate_clustering(const Netlist& flat,
                                     const Netlist& coarse,
                                     const ClusterMap& map);

}  // namespace tw
