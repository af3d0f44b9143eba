#include "flow/warm_start.hpp"

#include <cmath>

#include "baseline/shelf.hpp"
#include "check/contracts.hpp"
#include "util/rng.hpp"

namespace tw {

namespace {

/// Translates every cell so the placement's chip bbox is centered on
/// `core` (the baselines pack from the origin upward; the refinement
/// anneal's core is origin-centered).
void recenter(Placement& placement, const Rect& core) {
  const BaselineResult m = measure_placement(placement);
  const Point cc = core.center();
  const Point bc = m.chip_bbox.center();
  const Point d{cc.x - bc.x, cc.y - bc.y};
  if (d.x == 0 && d.y == 0) return;
  const auto n = static_cast<CellId>(placement.netlist().num_cells());
  for (CellId c = 0; c < n; ++c) {
    const Point p = placement.state(c).center;
    placement.set_center(c, {p.x + d.x, p.y + d.y});
  }
}

}  // namespace

WarmStartInfo QuadraticWarmStart::prepare(Placement& placement,
                                          const Rect& core,
                                          std::uint64_t seed,
                                          recover::RunBudget* /*budget*/) {
  QuadraticParams qp = params_;
  qp.seed = seed;
  place_quadratic(placement, qp);
  recenter(placement, core);
  WarmStartInfo info;
  info.teil = placement.teil();
  return info;
}

WarmStartInfo ClusterWarmStart::prepare(Placement& placement, const Rect& core,
                                        std::uint64_t seed,
                                        recover::RunBudget* budget) {
  const Netlist& flat = placement.netlist();
  const ClusterParams cp = [&] {
    ClusterParams p = cluster_;
    p.seed = derive_seed(seed, "cluster");
    // The flow promotes the library's "no cap" default to a real cap:
    // at SoC scale a hub net (clock/reset) aggregates into one coarse
    // net touching thousands of clusters, and every coarse move of any
    // incident cluster rescans all of them — the 10k tier spent most of
    // its coarse anneal inside those rescans. A negative value opts out.
    if (p.max_aggregated_degree == 0)
      p.max_aggregated_degree = kDefaultAggregatedDegreeCap;
    return p;
  }();
  Clustering clustering = cluster_netlist(flat, cp);

  // Stage 1 on the coarse netlist. Faults are deliberately not wired in
  // here — kill points target the refinement anneal, whose cursor the
  // multilevel checkpoint carries — but the budget is: the coarse anneal
  // charges the same move/step meters as the refinement that follows.
  Stage1Params sp = coarse_stage1_;
  sp.warm_start_t_factor = 1.0;
  Stage1Placer coarse_placer(clustering.coarse, sp,
                             derive_seed(seed, "coarse"));
  if (budget != nullptr) {
    Stage1Hooks hooks;
    hooks.budget = budget;
    coarse_placer.set_hooks(hooks);
  }
  Placement coarse_placement(clustering.coarse);
  WarmStartInfo info;
  info.coarse = coarse_placer.run(coarse_placement);
  info.clusters = static_cast<int>(clustering.coarse.num_cells());
  info.dropped_nets = clustering.map.dropped_nets;

  // Uncluster: project every cluster's placement onto its members. The
  // coarse core and the flat core are both sized by the area estimator
  // but from different netlists, so cluster centers are mapped affinely
  // from one core to the other; member offsets stay unscaled (they encode
  // real member geometry). Residual inter-cluster overlap is exactly what
  // the warm-started refinement anneal is for.
  const Rect ccore = info.coarse.core;
  TW_REQUIRE(ccore.width() > 0 && ccore.height() > 0,
             "coarse anneal produced a degenerate core");
  const double sx =
      static_cast<double>(core.width()) / static_cast<double>(ccore.width());
  const double sy =
      static_cast<double>(core.height()) / static_cast<double>(ccore.height());
  const auto num_clusters = static_cast<CellId>(clustering.coarse.num_cells());
  for (CellId k = 0; k < num_clusters; ++k) {
    const CellState& st = coarse_placement.state(k);
    const Point mapped{
        core.xlo + static_cast<Coord>(std::llround(
                       static_cast<double>(st.center.x - ccore.xlo) * sx)),
        core.ylo + static_cast<Coord>(std::llround(
                       static_cast<double>(st.center.y - ccore.ylo) * sy))};
    for (const ClusterMember& m :
         clustering.map.members[static_cast<std::size_t>(k)]) {
      placement.set_center(m.cell, member_center(mapped, st.orient, m));
      placement.set_orient(m.cell, st.orient);
    }
  }
  info.teil = placement.teil();
  return info;
}

}  // namespace tw
