#include "cluster/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "check/contracts.hpp"
#include "util/rng.hpp"

namespace tw {
namespace {

/// One undirected affinity edge (kept a < b).
struct AffinityEdge {
  CellId a = kInvalidCell;
  CellId b = kInvalidCell;
  double w = 0.0;
};

/// Nets touching more cells than this contribute no connectivity affinity:
/// hub nets (clock, reset) touch everything and would glue unrelated cells
/// into one blob. They still survive as coarse nets.
constexpr int kMaxScoringDegree = 16;

/// Per-cell adjacency with accumulated net affinities, neighbor lists
/// sorted by id. Affinity of a shared net of degree d is 1/(d-1) — the
/// standard edge-coarsening weight: a 2-pin net binds its cells with
/// weight 1, a wide net spreads the same total pull over its members.
std::vector<std::vector<std::pair<CellId, double>>> build_affinity(
    const Netlist& nl) {
  std::vector<AffinityEdge> edges;
  std::vector<CellId> on_net;
  for (const Net& net : nl.nets()) {
    on_net.clear();
    for (const PinId p : net.pins) on_net.push_back(nl.pin(p).cell);
    std::sort(on_net.begin(), on_net.end());
    on_net.erase(std::unique(on_net.begin(), on_net.end()), on_net.end());
    const auto d = static_cast<int>(on_net.size());
    if (d < 2 || d > kMaxScoringDegree) continue;
    const double w = 1.0 / static_cast<double>(d - 1);
    for (std::size_t i = 0; i < on_net.size(); ++i)
      for (std::size_t j = i + 1; j < on_net.size(); ++j)
        edges.push_back({on_net[i], on_net[j], w});
  }
  // Merge parallel edges; accumulation order is the sorted order, so the
  // summed doubles are identical on every run.
  std::sort(edges.begin(), edges.end(),
            [](const AffinityEdge& x, const AffinityEdge& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  std::vector<std::vector<std::pair<CellId, double>>> adj(nl.num_cells());
  for (std::size_t i = 0; i < edges.size();) {
    std::size_t j = i;
    double w = 0.0;
    while (j < edges.size() && edges[j].a == edges[i].a &&
           edges[j].b == edges[i].b) {
      w += edges[j].w;
      ++j;
    }
    adj[static_cast<std::size_t>(edges[i].a)].emplace_back(edges[i].b, w);
    adj[static_cast<std::size_t>(edges[i].b)].emplace_back(edges[i].a, w);
    i = j;
  }
  for (auto& nbrs : adj)
    std::sort(nbrs.begin(), nbrs.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
  return adj;
}

/// The partition: greedy seeded growth, ties to the lower cell id.
std::vector<std::vector<CellId>> grow_clusters(const Netlist& nl,
                                               const ClusterParams& params) {
  const auto n = static_cast<CellId>(nl.num_cells());
  const auto adj = build_affinity(nl);

  // Seed visit order: a seeded Fisher-Yates shuffle of the cell ids.
  std::vector<CellId> order(static_cast<std::size_t>(n));
  for (CellId c = 0; c < n; ++c) order[static_cast<std::size_t>(c)] = c;
  Rng rng(params.seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }

  std::vector<CellId> assigned(static_cast<std::size_t>(n), kInvalidCell);
  std::vector<double> score(static_cast<std::size_t>(n), 0.0);
  std::vector<CellId> touched;
  std::vector<std::vector<CellId>> clusters;

  for (const CellId seed_cell : order) {
    if (assigned[static_cast<std::size_t>(seed_cell)] != kInvalidCell)
      continue;
    const auto cluster_id = static_cast<CellId>(clusters.size());
    std::vector<CellId> members{seed_cell};
    assigned[static_cast<std::size_t>(seed_cell)] = cluster_id;

    // Candidate scores: accumulated affinity of unassigned neighbors to
    // the growing cluster, maintained sparsely via the touched list.
    touched.clear();
    auto absorb_edges = [&](CellId c) {
      for (const auto& [nbr, w] : adj[static_cast<std::size_t>(c)]) {
        if (assigned[static_cast<std::size_t>(nbr)] != kInvalidCell) continue;
        if (score[static_cast<std::size_t>(nbr)] == 0.0) touched.push_back(nbr);
        score[static_cast<std::size_t>(nbr)] += w;
      }
    };
    absorb_edges(seed_cell);

    while (static_cast<int>(members.size()) < params.max_cluster_size) {
      CellId best = kInvalidCell;
      double best_score = 0.0;
      for (const CellId cand : touched) {
        if (assigned[static_cast<std::size_t>(cand)] != kInvalidCell) continue;
        const double s = score[static_cast<std::size_t>(cand)];
        if (s > best_score || (s == best_score && best != kInvalidCell &&
                               cand < best)) {
          best = cand;
          best_score = s;
        }
      }
      if (best == kInvalidCell) break;
      assigned[static_cast<std::size_t>(best)] = cluster_id;
      members.push_back(best);
      absorb_edges(best);
    }

    for (const CellId c : touched) score[static_cast<std::size_t>(c)] = 0.0;
    std::sort(members.begin(), members.end());
    clusters.push_back(std::move(members));
  }
  return clusters;
}

/// Result of shelf-packing one cluster's members: the cluster rectangle
/// and each member's center in the cluster's local frame (origin at the
/// rectangle's lower-left corner), in `cells` order.
struct PackedCluster {
  Coord w = 0;
  Coord h = 0;
  std::vector<Point> centers;
};

/// Deterministic shelf pack of the members' initial-instance bounding
/// boxes, each padded by `spacing` on every side: tallest-first rows up
/// to a width near the square root of the padded area.
PackedCluster pack_members(const Netlist& nl, const std::vector<CellId>& cells,
                           Coord spacing) {
  struct Item {
    CellId cell;
    Coord w, h;
    std::size_t slot;  ///< index into `cells`
  };
  std::vector<Item> items;
  Coord total_area = 0;
  Coord widest = 0;
  for (std::size_t k = 0; k < cells.size(); ++k) {
    const CellInstance& inst =
        nl.cell(cells[k]).instances.front();
    const Coord w = inst.width + 2 * spacing;
    const Coord h = inst.height + 2 * spacing;
    items.push_back({cells[k], w, h, k});
    total_area += w * h;
    widest = std::max(widest, w);
  }
  std::sort(items.begin(), items.end(), [](const Item& x, const Item& y) {
    return x.h != y.h ? x.h > y.h : x.cell < y.cell;
  });
  const Coord target_width = std::max(
      widest, static_cast<Coord>(
                  std::ceil(std::sqrt(static_cast<double>(total_area)))));

  PackedCluster out;
  out.centers.resize(cells.size());
  Coord x = 0;
  Coord y = 0;
  Coord row_h = 0;
  for (const Item& it : items) {
    if (x > 0 && x + it.w > target_width) {
      x = 0;
      y += row_h;
      row_h = 0;
    }
    out.centers[it.slot] = {x + it.w / 2, y + it.h / 2};
    x += it.w;
    row_h = std::max(row_h, it.h);
    out.w = std::max(out.w, x);
  }
  out.h = y + row_h;
  return out;
}

/// Projects an interior point of the [0,w] x [0,h] rectangle onto its
/// nearest boundary point (pin aggregation lands on cluster boundaries,
/// like any macro pin).
Point to_boundary(Point p, Coord w, Coord h) {
  p.x = std::clamp<Coord>(p.x, 0, w);
  p.y = std::clamp<Coord>(p.y, 0, h);
  const Coord d_left = p.x;
  const Coord d_right = w - p.x;
  const Coord d_bottom = p.y;
  const Coord d_top = h - p.y;
  const Coord d = std::min({d_left, d_right, d_bottom, d_top});
  if (d == d_left) return {0, p.y};
  if (d == d_right) return {w, p.y};
  if (d == d_bottom) return {p.x, 0};
  return {p.x, h};
}

}  // namespace

Clustering cluster_netlist(const Netlist& nl, const ClusterParams& params) {
  TW_REQUIRE(params.max_cluster_size >= 1,
             "max_cluster_size=", params.max_cluster_size);
  TW_REQUIRE(params.member_spacing >= 0,
             "member_spacing=", params.member_spacing);
  TW_REQUIRE(nl.num_cells() > 0, "clustering needs at least one cell");

  const auto clusters = grow_clusters(nl, params);

  Clustering out;
  out.map.cluster_of.assign(nl.num_cells(), kInvalidCell);
  out.map.members.resize(clusters.size());

  // Pin index within the owning cell (CellInstance::pin_offsets order).
  std::vector<int> local_index(nl.num_pins(), -1);
  for (const Cell& cell : nl.cells())
    for (std::size_t k = 0; k < cell.pins.size(); ++k)
      local_index[static_cast<std::size_t>(cell.pins[k])] =
          static_cast<int>(k);

  // --- coarse cells: one macro per cluster, members packed inside -----------
  // `local` keeps each member's packed center in the cluster local frame
  // for the pin aggregation below; the map stores center-relative offsets.
  std::vector<std::vector<Point>> local(clusters.size());
  std::vector<Coord> rect_w(clusters.size());
  std::vector<Coord> rect_h(clusters.size());
  for (std::size_t k = 0; k < clusters.size(); ++k) {
    const PackedCluster packed =
        pack_members(nl, clusters[k], params.member_spacing);
    rect_w[k] = packed.w;
    rect_h[k] = packed.h;
    [[maybe_unused]] const CellId coarse_id = out.coarse.add_macro(
        "cl" + std::to_string(k), {Rect{0, 0, packed.w, packed.h}});
    TW_ASSERT(coarse_id == static_cast<CellId>(k), "coarse id=", coarse_id,
              " cluster=", k);
    local[k] = packed.centers;
    const Point rect_center{packed.w / 2, packed.h / 2};
    for (std::size_t m = 0; m < clusters[k].size(); ++m) {
      const CellId cell = clusters[k][m];
      out.map.cluster_of[static_cast<std::size_t>(cell)] =
          static_cast<CellId>(k);
      out.map.members[k].push_back(
          {cell, {packed.centers[m].x - rect_center.x,
                  packed.centers[m].y - rect_center.y}});
    }
  }

  // --- coarse nets: one aggregated boundary pin per (cluster, net) ----------
  out.map.coarse_net_of.assign(nl.num_nets(), kInvalidNet);
  std::vector<CellId> incident;
  std::vector<Coord> sum_x(clusters.size(), 0);
  std::vector<Coord> sum_y(clusters.size(), 0);
  std::vector<int> cnt(clusters.size(), 0);
  for (const Net& net : nl.nets()) {
    incident.clear();
    for (const PinId pid : net.pins) {
      const Pin& pin = nl.pin(pid);
      const CellId cl = out.map.cluster_of[static_cast<std::size_t>(pin.cell)];
      incident.push_back(cl);

      // Accumulate the pin's position in the cluster local frame: the
      // member's packed lower-left corner plus the pin offset (fixed
      // pins) or the member center (uncommitted pins, whose location the
      // annealer still chooses).
      const Cell& cell = nl.cell(pin.cell);
      const CellInstance& inst = cell.instances.front();
      std::size_t slot = 0;
      const auto& members = clusters[static_cast<std::size_t>(cl)];
      slot = static_cast<std::size_t>(
          std::lower_bound(members.begin(), members.end(), pin.cell) -
          members.begin());
      const Point center = local[static_cast<std::size_t>(cl)][slot];
      Point pos = center;
      if (pin.committed()) {
        const Point ll{center.x - inst.width / 2, center.y - inst.height / 2};
        const Point off =
            inst.pin_offsets[static_cast<std::size_t>(
                local_index[static_cast<std::size_t>(pid)])];
        pos = {ll.x + off.x, ll.y + off.y};
      }
      sum_x[static_cast<std::size_t>(cl)] += pos.x;
      sum_y[static_cast<std::size_t>(cl)] += pos.y;
      cnt[static_cast<std::size_t>(cl)] += 1;
    }
    std::sort(incident.begin(), incident.end());
    incident.erase(std::unique(incident.begin(), incident.end()),
                   incident.end());

    if (incident.size() < 2) {
      // Intra-cluster net: its length is invariant under cluster moves.
      ++out.map.dropped_nets;
    } else {
      // Hub-net segmentation: with a degree cap, the sorted incidence list
      // is emitted as a chain of coarse nets of at most `cap` pins,
      // consecutive segments overlapping in one cluster so the chain still
      // pulls its ends together. The stride is cap-1, so every segment
      // (including the last) has between 2 and cap pins. Without a cap
      // (or when the net fits under it) the loop runs exactly once and
      // reproduces the one-net-per-flat-net emission.
      const auto cap = static_cast<std::size_t>(
          params.max_aggregated_degree >= 2 ? params.max_aggregated_degree
                                            : 0);
      const std::size_t seg_size =
          (cap >= 2 && incident.size() > cap) ? cap : incident.size();
      std::size_t begin = 0;
      int seg = 0;
      while (true) {
        const std::size_t end = std::min(begin + seg_size, incident.size());
        const std::string suffix =
            seg == 0 ? std::string() : "#s" + std::to_string(seg);
        const NetId coarse_net =
            out.coarse.add_net(net.name + suffix, net.weight_h, net.weight_v);
        if (seg == 0)
          out.map.coarse_net_of[static_cast<std::size_t>(net.id)] = coarse_net;
        out.map.flat_net_of.push_back(net.id);
        for (std::size_t i = begin; i < end; ++i) {
          const auto k = static_cast<std::size_t>(incident[i]);
          const Point avg{sum_x[k] / cnt[k], sum_y[k] / cnt[k]};
          std::string pin_name = "n";
          pin_name += std::to_string(net.id);
          pin_name += suffix;
          pin_name += "@cl";
          pin_name += std::to_string(k);
          out.coarse.add_fixed_pin(incident[i], pin_name, coarse_net,
                                   to_boundary(avg, rect_w[k], rect_h[k]));
        }
        if (end == incident.size()) break;
        begin = end - 1;  // overlap one cluster with the next segment
        ++seg;
      }
    }
    for (const CellId cl : incident) {
      const auto k = static_cast<std::size_t>(cl);
      sum_x[k] = 0;
      sum_y[k] = 0;
      cnt[k] = 0;
    }
  }

  out.coarse.tech() = nl.tech();
  if constexpr (check::kLevel >= check::kLevelFull) {
    const ValidationReport r = validate_clustering(nl, out.coarse, out.map);
    TW_ENSURE_FULL(r.ok(), r.str());
  }
  return out;
}

}  // namespace tw
