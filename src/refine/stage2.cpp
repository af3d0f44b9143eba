#include "refine/stage2.hpp"

#include <algorithm>
#include <cmath>

#include "anneal/displacement.hpp"
#include "anneal/range_limiter.hpp"
#include "check/contracts.hpp"
#include "check/validate.hpp"
#include "place/legalize.hpp"
#include "place/move_txn.hpp"
#include "route/channel_router.hpp"
#include "util/log.hpp"

namespace tw {
namespace {

/// Refinement executions: three suffice for the TEIL and chip area to
/// converge, and the last stops on the cost-unchanged criterion
/// (Section 4.3).
constexpr int kRefinementPasses = 3;

/// Window contraction rho of the refinement anneal's range limiter and of
/// its Eqn 28 start temperature: stage 1's default (Section 3.2.2).
constexpr double kRho = 4.0;

/// Safety cap on each refinement anneal's temperature steps.
constexpr int kMaxSteps = 80;

/// The last pass stops once the cost is unchanged for this many inner
/// loops (Section 4.3).
constexpr int kFinalStallLoops = 3;

}  // namespace

Stage2Refiner::Stage2Refiner(const Netlist& nl, Stage2Params params,
                             std::uint64_t seed)
    : nl_(nl), params_(params), rng_(seed) {}

double Stage2Refiner::initial_temperature(double mu, double t_inf,
                                          double rho) {
  // Eqn 28: T' = mu^(log_rho 10) * T_inf  (the paper derives it for rho=4;
  // the general form follows the same inversion of Eqn 12).
  const double exponent = std::log(10.0) / std::log(rho);
  return std::pow(mu, exponent) * t_inf;
}

std::vector<std::array<Coord, 4>> Stage2Refiner::derive_expansions(
    const Netlist& nl, const ChannelGraph& cg,
    const std::vector<int>& densities) {
  const Coord ts = nl.tech().track_separation;
  std::vector<std::array<Coord, 4>> exp(nl.num_cells(), {0, 0, 0, 0});

  for (std::size_t r = 0; r < cg.regions.size(); ++r) {
    if (cg.regions[r].is_junction()) continue;  // no bounding cell edges
    // Eqn 22: w = (d + 2) t_s; each bounding cell edge takes w/2.
    const Coord w = (static_cast<Coord>(densities[r]) + 2) * ts;
    const Coord half = (w + 1) / 2;
    for (std::size_t ei : {cg.regions[r].edge_a, cg.regions[r].edge_b}) {
      const PlacedEdge& pe = cg.edges[ei];
      if (pe.is_core()) continue;  // the chip boundary does not move
      auto& e = exp[static_cast<std::size_t>(pe.cell)];
      const int s = side_index(pe.edge.side);
      e[static_cast<std::size_t>(s)] =
          std::max(e[static_cast<std::size_t>(s)], half);
    }
  }
  return exp;
}

int Stage2Refiner::anneal(Placement& placement, OverlapEngine& overlap,
                          CostModel& model, const Stage2Cursor& at,
                          double t_inf, double scale, bool final_pass,
                          bool& stopped) {
  const Rect& core = at.working_core;
  const CoolingSchedule schedule = CoolingSchedule::stage2();
  RangeLimiter limiter(core.width(), core.height(), t_inf, kRho);
  const auto num_cells = static_cast<CellId>(nl_.num_cells());
  const long long inner =
      static_cast<long long>(params_.attempts_per_cell) * num_cells;

  CostTerms current = model.full();
  CostAudit audit(model);
  MoveTxn txn(placement, overlap, model);
  const MetropolisJudge judge{txn,           rng_, current, audit,
                              hooks_.faults, recover::FaultSite::kStage2Accept};
  recover::RunBudget* budget = hooks_.budget;
  double t = at.anneal.t;
  int steps = at.anneal.steps;
  int stall = at.anneal.stall;
  double last_cost = at.anneal.last_cost;
  stopped = false;

  // One inner loop of moves at temperature `sweep_t`. Budget checks apply
  // only in budgeted mode: the t = 0 wind-down sweep after an expiry must
  // run to completion. Returns false when the budget cut the sweep short.
  auto sweep = [&](double sweep_t, bool budgeted) {
    for (long long it = 0; it < inner; ++it) {
      if (budgeted && budget != nullptr) {
        if (budget->stop_requested()) return false;
        budget->charge_move();
      }
      const CellId i = static_cast<CellId>(rng_.uniform_int(0, num_cells - 1));
      if (nl_.cell(i).is_custom() && rng_.bernoulli(0.25) &&
          !placement.state(i).sites.empty()) {
        (void)pin_move(nl_, judge, i, sweep_t, "stage2 pin move");
        continue;
      }

      txn.begin(i);
      const Point c0 = placement.state(i).center;
      const Point d = select_displacement(rng_, limiter.window_x(sweep_t),
                                          limiter.window_y(sweep_t),
                                          PointSelect::kStructured);
      txn.set_center(i, {std::clamp(c0.x + d.x, core.xlo, core.xhi),
                         std::clamp(c0.y + d.y, core.ylo, core.yhi)});
      (void)judge(sweep_t, "stage2 move");
    }
    return true;
  };

  // A checkpoint is `at` with the anneal's current position.
  const auto cursor = [&] {
    Stage2Cursor cur = at;
    cur.anneal = {t, steps, stall, last_cost};
    cur.rng = rng_.state();
    return cur;
  };
  for (; steps < kMaxSteps; ++steps) {
    if (hooks_.step_boundary(steps, recover::FaultSite::kStage2Step, cursor) ||
        !sweep(t, /*budgeted=*/true)) {
      stopped = true;
      break;
    }

    // Checkpoint before the resync masks the inner loop's drift.
    audit.on_temperature_step(current, "stage2 temperature step");
    current = model.full();
    const double cost = model.total(current);
    if (budget != nullptr) budget->charge_step();

    if (final_pass) {
      // Stop when the cost is unchanged for kFinalStallLoops inner loops.
      if (cost == last_cost) {
        if (++stall >= kFinalStallLoops) {
          ++steps;
          break;
        }
      } else {
        stall = 0;
      }
      last_cost = cost;
      if (limiter.at_minimum(t) && t < scale) {
        // Hold T near the floor while waiting for the stall criterion.
        continue;
      }
    } else if (limiter.at_minimum(t)) {
      ++steps;
      break;
    }
    t = schedule.next(t, scale);
  }

  if (stopped) {
    // Graceful degradation: one improvements-only sweep (T = 0 accepts
    // only downhill moves and consumes no RNG in the acceptance test).
    (void)sweep(0.0, /*budgeted=*/false);
    current = model.full();
  }
  return steps;
}

Stage2Result Stage2Refiner::run(Placement& placement, const Rect& core,
                                double t_inf, double scale) {
  return run_impl(placement, core, t_inf, scale, nullptr);
}

Stage2Result Stage2Refiner::resume(Placement& placement, const Rect& core,
                                   double t_inf, double scale,
                                   const Stage2Cursor& cursor) {
  return run_impl(placement, core, t_inf, scale, &cursor);
}

Stage2Result Stage2Refiner::run_impl(Placement& placement, const Rect& core,
                                     double t_inf, double scale,
                                     const Stage2Cursor* cursor) {
  TW_REQUIRE(nl_.num_cells() > 0, "stage 2 needs at least one cell");
  TW_REQUIRE(t_inf > 0.0 && scale > 0.0, "t_inf=", t_inf, " scale=", scale);
  Stage2Result result;
  const double t_start = initial_temperature(params_.mu, t_inf, kRho);
  const auto num_cells = static_cast<CellId>(nl_.num_cells());

  // The working core starts at stage 1's target and grows whenever the
  // routed channel widths demand more space than the estimator reserved.
  Rect working_core = core;
  int first_pass = 0;
  if (cursor != nullptr) {
    TW_REQUIRE(cursor->pass >= 0 && cursor->pass < kRefinementPasses,
               "cursor pass=", cursor->pass);
    TW_REQUIRE(cursor->expansions.size() == nl_.num_cells(),
               "cursor expansions=", cursor->expansions.size());
    result.passes = cursor->done;
    working_core = cursor->working_core;
    first_pass = cursor->pass;
    rng_ = Rng::from_state(cursor->rng);
  }

  // Expansion state persists across passes; start with zero (the stage-1
  // estimator's space is already baked into the cell positions).
  OverlapEngine overlap(placement, working_core, {});
  CostModel model(placement, overlap);

  recover::RunBudget* budget = hooks_.budget;
  bool stopped = false;

  for (int pass = first_pass; pass < kRefinementPasses; ++pass) {
    // `at` is this pass at its anneal's entry, what its checkpoints carry.
    // A cursor restarts its pass mid-anneal: steps 0-2 (and the pass-entry
    // fault poll) already happened before the checkpoint, so their outputs
    // come from the cursor instead of being recomputed.
    Stage2Cursor at;
    RefinementPass& rp = at.rp;
    if (cursor != nullptr && pass == first_pass) {
      at = *cursor;
      for (CellId c = 0; c < num_cells; ++c)
        overlap.set_expansions(c, at.expansions[static_cast<std::size_t>(c)]);
      model.set_p2(at.p2);
    } else {
      if (hooks_.faults != nullptr)
        hooks_.faults->poll(recover::FaultSite::kStage2Pass);
      if (budget != nullptr && budget->stop_requested()) {
        stopped = true;
        break;
      }

      // Step 0: remove stage 1's residual cell overlap — channel definition
      // presumes non-overlapping cells (an edge cutting through a cell
      // invalidates the critical regions around it, disconnecting the
      // channel graph).
      const LegalizeResult lr = legalize_spread(
          placement, working_core, 2 * nl_.tech().track_separation);
      if (!lr.success())
        log_warn("stage2 pass ", pass + 1, ": ", lr.final_overlap,
                 " overlap area could not be legalized");
      overlap.refresh_all();

      // Step 1: channel definition.
      ChannelGraph cg = build_channel_graph(placement, working_core);
      rp.regions = cg.regions.size();

      // Step 2: global routing.
      GlobalRouterParams router_params = params_.router;
      router_params.seed = rng_();
      router_params.budget = budget;
      router_params.faults = hooks_.faults;
      GlobalRouter router(cg.graph, router_params);
      const auto targets = build_net_targets(nl_, cg);
      const GlobalRouteResult routed = router.route(targets);
      if constexpr (check::kLevel >= check::kLevelFull) {
        const ValidationReport rr = validate_routing(cg.graph, targets, routed);
        TW_ENSURE_FULL(rr.ok(), rr.str());
      }
      rp.route_length = routed.total_length;
      rp.route_overflow = routed.total_overflow;
      rp.unrouted_nets = routed.unrouted_nets;
      rp.router_counters = routed.counters;

      std::vector<std::vector<EdgeId>> route_edges(targets.size());
      for (std::size_t n = 0; n < targets.size(); ++n)
        if (const Route* r = routed.route_of(n)) route_edges[n] = r->edges;
      const auto densities = region_densities(cg, route_edges);
      rp.width_rule_violations = validate_channel_widths(cg, route_edges);

      // Step 3: placement refinement with static expansions.
      at.expansions = derive_expansions(nl_, cg, densities);
      for (CellId c = 0; c < num_cells; ++c)
        overlap.set_expansions(c, at.expansions[static_cast<std::size_t>(c)]);

      // Grow the working core when the expanded cells no longer fit: the
      // refinement provides additional space as required.
      {
        double need = 0.0;
        for (CellId c = 0; c < num_cells; ++c) {
          const CellInstance& g = placement.geometry(c);
          const CellState& st = placement.state(c);
          const Coord w = oriented_width(st.orient, g.width, g.height);
          const Coord h = oriented_height(st.orient, g.width, g.height);
          const auto& e = at.expansions[static_cast<std::size_t>(c)];
          need += static_cast<double>(w + e[0] + e[1]) *
                  static_cast<double>(h + e[2] + e[3]);
        }
        need /= 0.8;  // rectangle packing never reaches 100 percent
        const double have = static_cast<double>(working_core.area());
        if (need > have) {
          const double grow = std::sqrt(need / have);
          const Coord dw = static_cast<Coord>(
              std::ceil(0.5 * (grow - 1.0) * working_core.width()));
          const Coord dh = static_cast<Coord>(
              std::ceil(0.5 * (grow - 1.0) * working_core.height()));
          working_core = working_core.inflated(dw, dw, dh, dh);
          overlap.set_core(working_core);
          log_info("stage2 pass ", pass + 1, ": core grown to ",
                   working_core.str());
        }
      }

      // p2 stays meaningful across stages: recalibrate against the *current*
      // configuration's cost balance rather than random states (the placement
      // is already good; we only rebalance the scale of the two terms). The
      // placement was just legalized, so the raw overlap can be tiny or zero;
      // floor the denominator at one percent of the cell area so p2 never
      // collapses and overlap stays firmly discouraged.
      const CostTerms t0 = model.full();
      const double c2_floor =
          0.01 * static_cast<double>(nl_.total_cell_area());
      at.p2 = model.params().eta * t0.c1 / std::max(t0.c2_raw, c2_floor);
      model.set_p2(at.p2);
      at.anneal = {t_start, 0, 0, model.total(model.full())};
    }
    at.pass = pass;
    at.working_core = working_core;
    at.done = result.passes;

    const bool final_pass = pass == kRefinementPasses - 1;
    bool anneal_stopped = false;
    rp.temperature_steps = anneal(placement, overlap, model, at, t_inf, scale,
                                  final_pass, anneal_stopped);

    rp.teic = placement.teic();
    rp.teil = placement.teil();
    rp.chip_area = overlap.expanded_chip_bbox().area();
    result.passes.push_back(rp);
    log_info("stage2 pass ", pass + 1, ": teil=", rp.teil,
             " area=", rp.chip_area, " routeL=", rp.route_length,
             " X=", rp.route_overflow);
    if (anneal_stopped) {
      stopped = true;
      break;
    }
  }

  // The low-temperature anneal can leave a sliver of overlap; hand back a
  // clean placement (the paper's goal is a placement needing essentially
  // no modification during detailed routing).
  legalize_spread(placement, working_core, 2 * nl_.tech().track_separation);

  if constexpr (check::kLevel >= check::kLevelFull) {
    // No core option: legalization may legitimately spread cells beyond
    // the working core's boundary.
    const ValidationReport pr = validate_placement(placement);
    TW_ENSURE_FULL(pr.ok(), pr.str());
  }

  if (stopped) {
    result.outcome = budget->stop_outcome();
    log_info("stage2 stopped early (", recover::to_string(result.outcome),
             ") after ", result.passes.size(), " pass(es)");
  }

  result.final_core = working_core;
  result.final_teic = placement.teic();
  result.final_teil = placement.teil();
  result.final_chip_bbox =
      OverlapEngine(placement, working_core, {}).expanded_chip_bbox();
  result.final_chip_area = result.passes.empty()
                               ? result.final_chip_bbox.area()
                               : result.passes.back().chip_area;
  return result;
}

}  // namespace tw
