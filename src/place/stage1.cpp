#include "place/stage1.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "check/contracts.hpp"
#include "check/validate.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace tw {
namespace {

/// Final-temperature factor (DESIGN.md section 4 item 3): stage 1 cools
/// until T <= S_T * kStopFactor *and* the range-limiter window has reached
/// its minimum span. 0.1 reproduces the paper's ~6 decades of temperature
/// (S_T * 1e5 down to ~S_T * 0.1, about 120 steps under Table 1). On the
/// paper's fine-grid industrial circuits the window minimum alone lands
/// there; on coarse grids the window bottoms out early and the temperature
/// floor carries the stopping criterion.
constexpr double kStopFactor = 0.1;

}  // namespace

Stage1Placer::Stage1Placer(const Netlist& nl, Stage1Params params,
                           std::uint64_t seed)
    : nl_(nl), params_(params), rng_(seed), estimator_(nl) {}

MoveOutcome pin_move(const Netlist& nl, const MetropolisJudge& judge,
                     CellId i, double t, const char* what) {
  MoveTxn& txn = judge.txn;
  Rng& rng = judge.rng;
  const Cell& cell = nl.cell(i);

  // Candidate movable units: groups, plus loose (kEdge) pins.
  std::vector<int>& loose = txn.scratch_ints();
  loose.clear();
  for (std::size_t k = 0; k < cell.pins.size(); ++k)
    if (nl.pin(cell.pins[k]).commit == PinCommit::kEdge)
      loose.push_back(static_cast<int>(k));
  const std::size_t units = cell.groups.size() + loose.size();
  if (units == 0) return {};

  // Pick the unit first so only the moved pins' nets are (re)evaluated.
  const auto pick = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(units) - 1));
  std::vector<NetId>& nets = txn.scratch_nets();
  nets.clear();
  if (pick < cell.groups.size()) {
    for (PinId pid : cell.groups[pick].pins) nets.push_back(nl.pin(pid).net);
  } else {
    const int local = loose[pick - cell.groups.size()];
    nets.push_back(nl.pin(cell.pins[static_cast<std::size_t>(local)]).net);
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());

  txn.begin_pins(i, nets);
  if (pick < cell.groups.size()) {
    const auto g = static_cast<GroupId>(pick);
    const auto sides = sides_in_mask(cell.groups[pick].side_mask);
    const Side side = sides[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(sides.size()) - 1))];
    const int start =
        static_cast<int>(rng.uniform_int(0, cell.sites_per_edge - 1));
    txn.assign_group(g, side, start);
  } else {
    const int local = loose[pick - cell.groups.size()];
    const Pin& pin = nl.pin(cell.pins[static_cast<std::size_t>(local)]);
    const int count = num_sites_in_mask(pin.side_mask, cell.sites_per_edge);
    const int site = nth_site_in_mask(
        pin.side_mask, static_cast<int>(rng.uniform_int(0, count - 1)),
        cell.sites_per_edge);
    txn.assign_pin_to_site(local, site);
  }
  return {true, judge(t, what)};
}

double stage1_temperature_scale(const Netlist& nl,
                                const DynamicAreaEstimator& estimator) {
  const double e0 = estimator.nominal_expansion();
  double eff_area = 0.0;
  for (const auto& c : nl.cells()) {
    const CellInstance& inst = c.instances.front();
    eff_area += (static_cast<double>(inst.width) + 2.0 * e0) *
                (static_cast<double>(inst.height) + 2.0 * e0);
  }
  return temperature_scale(eff_area / static_cast<double>(nl.num_cells()));
}

bool Stage1Placer::try_displacement(const MetropolisJudge& judge, CellId i,
                                    Point target, double t) {
  MoveTxn& txn = judge.txn;
  txn.begin(i);
  txn.set_center(i, target);
  return judge(t, "stage1 move");
}

bool Stage1Placer::try_orient_change(const MetropolisJudge& judge, CellId i,
                                     Orient o, double t) {
  MoveTxn& txn = judge.txn;
  txn.begin(i);
  txn.set_orient(i, o);
  return judge(t, "stage1 move");
}

bool Stage1Placer::try_interchange(const Placement& p,
                                   const MetropolisJudge& judge, CellId i,
                                   CellId j, bool invert_aspects, double t) {
  MoveTxn& txn = judge.txn;
  const Point ci = p.state(i).center;
  const Point cj = p.state(j).center;
  txn.begin(i, j);
  txn.set_center(i, cj);
  txn.set_center(j, ci);
  if (invert_aspects) {
    txn.set_orient(i, aspect_inverted(p.state(i).orient));
    txn.set_orient(j, aspect_inverted(p.state(j).orient));
  }
  return judge(t, "stage1 move");
}

MoveOutcome Stage1Placer::try_aspect_change(const MetropolisJudge& judge,
                                            CellId i, double t) {
  const Cell& cell = nl_.cell(i);
  if (!cell.has_aspect_freedom()) return {};

  MoveTxn& txn = judge.txn;
  txn.begin(i);
  double aspect;
  if (!cell.discrete_aspects.empty()) {
    aspect = cell.discrete_aspects[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(cell.discrete_aspects.size()) - 1))];
  } else {
    aspect = rng_.uniform_real(cell.aspect_lo, cell.aspect_hi);
  }
  txn.set_aspect(i, aspect);
  return {true, judge(t, "stage1 move")};
}

MoveOutcome Stage1Placer::try_instance_change(const Placement& p,
                                              const MetropolisJudge& judge,
                                              CellId i, double t) {
  const Cell& cell = nl_.cell(i);
  if (cell.instances.size() < 2) return {};

  MoveTxn& txn = judge.txn;
  const InstanceId cur = p.state(i).instance;
  txn.begin(i);
  // A different instance, uniformly among the alternatives.
  InstanceId k = cur;
  while (k == cur)
    k = static_cast<InstanceId>(rng_.uniform_int(
        0, static_cast<std::int64_t>(cell.instances.size()) - 1));
  txn.set_instance(i, k);
  return {true, judge(t, "stage1 move")};
}

Stage1Result Stage1Placer::run(Placement& placement) {
  return run_impl(placement, nullptr);
}

Stage1Result Stage1Placer::resume(Placement& placement,
                                  const Stage1Cursor& cursor) {
  return run_impl(placement, &cursor);
}

Stage1Result Stage1Placer::run_impl(Placement& placement,
                                    const Stage1Cursor* cursor) {
  TW_REQUIRE(nl_.num_cells() > 0, "stage 1 needs at least one cell");
  if constexpr (check::kLevel >= check::kLevelFull) {
    const ValidationReport nr = validate_netlist(nl_);
    TW_REQUIRE_FULL(nr.ok(), nr.str());
  }
  Stage1Result result;

  // --- core sizing, T-infinity scaling, p2 calibration ----------------------
  // Core and scaling are pure functions of the netlist (no RNG), so both
  // the fresh and the resumed path compute them the same way; computing
  // them here also primes the estimator's internal core-dependent state.
  const Rect core = estimator_.compute_initial_core();

  const double scale = stage1_temperature_scale(nl_, estimator_);
  double t;
  int first_step = 0;
  if (cursor != nullptr) {
    TW_REQUIRE(cursor->next_step >= 0 &&
                   cursor->next_step <= kStage1MaxSteps,
               "cursor step=", cursor->next_step);
    TW_REQUIRE(cursor->t > 0.0 && cursor->p2_base > 0.0,
               "cursor t=", cursor->t, " p2_base=", cursor->p2_base);
    result = cursor->partial;
    t = cursor->t;
    first_step = cursor->next_step;
    rng_ = Rng::from_state(cursor->rng);
  } else {
    TW_REQUIRE(params_.warm_start_t_factor > 0.0 &&
                   params_.warm_start_t_factor <= 1.0,
               "warm_start_t_factor=", params_.warm_start_t_factor);
    result.core = core;
    result.t_infinity = t_infinity(scale);
    result.temperature_scale = scale;
    t = result.t_infinity * params_.warm_start_t_factor;
  }

  // Overlap engine per estimator mode: the paper's dynamic estimator, or
  // the ablation variants (uniform 0.5*C_W border / no border at all).
  auto make_overlap = [&]() {
    switch (params_.estimator_mode) {
      case EstimatorMode::kDynamic:
        return OverlapEngine(placement, estimator_);
      case EstimatorMode::kUniform: {
        const Coord e0 = static_cast<Coord>(
            std::ceil(0.5 * estimator_.channel_width()));
        return OverlapEngine(
            placement, core,
            std::vector<std::array<Coord, 4>>(
                nl_.num_cells(), {e0, e0, e0, e0}));
      }
      case EstimatorMode::kNone:
        return OverlapEngine(placement, core, {});
    }
    throw std::logic_error("bad estimator mode");
  };
  OverlapEngine overlap = make_overlap();
  CostModel model(placement, overlap, params_.cost);
  double p2_base;
  if (cursor != nullptr) {
    // The Eqn 9 calibration sampled random configurations (consuming RNG
    // state); it must never be re-run on resume — carry the value instead.
    p2_base = cursor->p2_base;
    model.set_p2(p2_base);
    overlap.refresh_all();
  } else if (params_.warm_start_t_factor < 1.0) {
    // Warm start: the incoming placement is the initial configuration,
    // not a throwaway. The Eqn 9 calibration still samples the same
    // random configurations (same RNG draws as a cold start), but the
    // warm placement is restored afterwards instead of being replaced by
    // the last sample.
    std::vector<CellState> warm;
    const auto n = static_cast<CellId>(nl_.num_cells());
    warm.reserve(static_cast<std::size_t>(n));
    for (CellId i = 0; i < n; ++i) warm.push_back(placement.snapshot(i));
    p2_base =
        model.calibrate_p2(placement, overlap, core, rng_, params_.p2_samples);
    result.p2 = p2_base;
    // Bulk restore of the warm-start state, not a per-move transaction.
    for (CellId i = 0; i < n; ++i)
      placement.restore(i, warm[static_cast<std::size_t>(i)]);  // lint: allow(txn-mutation) // lint: allow(txn-reach)
    overlap.refresh_all();
  } else {
    p2_base =
        model.calibrate_p2(placement, overlap, core, rng_, params_.p2_samples);
    result.p2 = p2_base;
  }

  CostTerms current = model.full();  // resynced each temperature step
  CostAudit audit(model);
  MoveTxn txn(placement, overlap, model);
  const MetropolisJudge judge{txn,           rng_, current, audit,
                              hooks_.faults, recover::FaultSite::kStage1Accept};

  const CoolingSchedule schedule = CoolingSchedule::stage1();
  RangeLimiter limiter(core.width(), core.height(), result.t_infinity,
                       params_.rho);
  const double p_displace = params_.ratio_r / (1.0 + params_.ratio_r);
  const auto num_cells = static_cast<CellId>(nl_.num_cells());
  const long long inner =
      static_cast<long long>(params_.attempts_per_cell) * num_cells;  // Eqn 17

  // Penalty-weight ramp: reach p2_base * growth as T crosses the stopping
  // temperature (geometric in log T, so it tracks the cooling profile).
  const double t_final = std::max(1e-9, scale * kStopFactor);
  const double log_span = std::log(result.t_infinity / t_final);

  // Best-feasible-so-far tracking for graceful degradation: only budgeted
  // runs pay for the snapshots; the comparisons never touch the RNG.
  recover::RunBudget* budget = hooks_.budget;
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<CellState> best;
  auto track_best = [&]() {
    if (budget == nullptr) return;
    const double c = model.total(current);
    if (c >= best_cost) return;
    best_cost = c;
    best.clear();
    best.reserve(static_cast<std::size_t>(num_cells));
    for (CellId i = 0; i < num_cells; ++i) best.push_back(placement.snapshot(i));
  };

  bool stopped = false;

  // --- the annealing loop ----------------------------------------------------
  for (int step = first_step; step < kStage1MaxSteps; ++step) {
    if (hooks_.step_boundary(step, recover::FaultSite::kStage1Step, [&] {
          return Stage1Cursor{step, t, p2_base, result, rng_.state()};
        })) {
      stopped = true;
      break;
    }
    if (params_.overlap_penalty_growth != 1.0 && log_span > 0.0) {
      const double progress =
          std::clamp(std::log(t / t_final) / log_span, 0.0, 1.0);
      model.set_p2(p2_base * std::pow(params_.overlap_penalty_growth,
                                      1.0 - progress));
      current = model.full();
    }
    RunningStats cost_trace;
    AcceptanceCounter acc;

    for (long long it = 0; it < inner; ++it) {
      if (budget != nullptr) {
        if (budget->stop_requested()) {
          stopped = true;
          break;
        }
        budget->charge_move();
      }
      const int move_type = rng_.one_or_two(p_displace);
      if (move_type == 1) {
        // --- single-cell displacement ---------------------------------------
        const CellId i = static_cast<CellId>(rng_.uniform_int(0, num_cells - 1));
        const Point c0 = placement.state(i).center;
        const Point d = select_displacement(rng_, limiter.window_x(t),
                                            limiter.window_y(t),
                                            params_.selector);
        const Point target{std::clamp(c0.x + d.x, core.xlo, core.xhi),
                           std::clamp(c0.y + d.y, core.ylo, core.yhi)};

        bool accepted = try_displacement(judge, i, target, t);
        acc.record(accepted);
        if (!accepted) {
          // A'(i, x, y): same displacement, aspect ratio inverted.
          const Orient o0 = placement.state(i).orient;
          txn.begin(i);
          txn.set_center(i, target);
          txn.set_orient(i, aspect_inverted(o0));
          accepted = judge(t, "stage1 move");
          acc.record(accepted);
          if (!accepted) {
            // A_o(i): randomly-chosen orientation change in place.
            const Orient o = kAllOrients[static_cast<std::size_t>(
                rng_.uniform_int(0, 7))];
            acc.record(try_orient_change(judge, i, o, t));
          }
        }

        if (nl_.cell(i).is_custom()) {
          // One pin-group displacement attempt per uncommitted pin.
          int uncommitted = 0;
          for (PinId pid : nl_.cell(i).pins)
            if (!nl_.pin(pid).committed()) ++uncommitted;
          for (int k = 0; k < uncommitted; ++k) {
            const MoveOutcome pm =
                pin_move(nl_, judge, i, t, "stage1 pin move");
            if (pm.attempted) acc.record(pm.accepted);
          }
          const MoveOutcome am = try_aspect_change(judge, i, t);
          if (am.attempted) acc.record(am.accepted);
        } else if (nl_.cell(i).instances.size() > 1) {
          // Instance selection (Section 1: "the cells may have several
          // possible instances, whereby TimberWolfMC is to select the one
          // which is most suitable").
          const MoveOutcome im = try_instance_change(placement, judge, i, t);
          if (im.attempted) acc.record(im.accepted);
        }
      } else {
        // --- pairwise interchange --------------------------------------------
        if (num_cells < 2) continue;
        const CellId i = static_cast<CellId>(rng_.uniform_int(0, num_cells - 1));
        CellId j = i;
        while (j == i)
          j = static_cast<CellId>(rng_.uniform_int(0, num_cells - 1));
        const bool accepted =
            try_interchange(placement, judge, i, j, false, t);
        acc.record(accepted);
        if (!accepted)
          acc.record(try_interchange(placement, judge, i, j, true, t));
      }
      cost_trace.add(model.total(current));
    }

    result.attempts += acc.attempted;
    result.accepts += acc.accepted;
    if (stopped) break;  // mid-step expiry: wind down below

    result.trace.push_back(
        {t, cost_trace.mean(), acc.rate(), limiter.window_x(t)});
    ++result.temperature_steps;
    if (budget != nullptr) budget->charge_step();

    // Drift checkpoint *before* the resync below masks the inner loop's
    // accumulated error.
    audit.on_temperature_step(current, "stage1 temperature step");

    // Resynchronize the running totals to kill floating-point drift.
    current = model.full();
    track_best();

    log_debug("stage1 T=", t, " cost=", model.total(current),
              " acc=", acc.rate(), " win=", limiter.window_x(t));

    // Stopping criterion: an inner loop executed with the window at its
    // minimum span, once the temperature has descended through the full
    // profile (see kStopFactor).
    if (limiter.at_minimum(t) && t <= scale * kStopFactor) break;
    t = schedule.next(t, scale);
  }

  if (stopped) {
    // Graceful degradation: one improvements-only sweep, then keep the
    // better of (quenched current, best-so-far) — never an arbitrary
    // mid-anneal state.
    quench(placement, judge, core, inner);
    current = model.full();
    if (model.total(current) > best_cost) {
      // Bulk rollback to the tracked best state: not a per-move
      // transaction, so it legitimately bypasses MoveTxn.
      for (CellId i = 0; i < num_cells; ++i)
        placement.restore(i, best[static_cast<std::size_t>(i)]);  // lint: allow(txn-mutation) // lint: allow(txn-reach)
      overlap.refresh_all();
      current = model.full();
    }
    result.outcome = budget->stop_outcome();
    log_info("stage1 stopped early (", recover::to_string(result.outcome),
             ") after ", result.temperature_steps, " step(s)");
  }

  if constexpr (check::kLevel >= check::kLevelFull) {
    const ValidationReport pr =
        validate_placement(placement, {.core = core});
    TW_ENSURE_FULL(pr.ok(), pr.str());
  }

  result.final_teic = placement.teic();
  result.final_teil = placement.teil();
  result.residual_overlap = overlap.total_overlap();
  result.overloaded_sites = placement.overloaded_sites();
  return result;
}

void Stage1Placer::quench(const Placement& placement,
                          const MetropolisJudge& judge, const Rect& core,
                          long long inner) {
  // T = 0: metropolis_accept takes only delta <= 0 (and consumes no RNG),
  // so one sweep of minimum-window displacements monotonically cleans up
  // whatever the interrupted anneal left mid-flight — the same repertoire
  // as the low-temperature tail of the schedule, never an uphill step.
  const Coord span = RangeLimiter::kMinSpan;
  const auto num_cells = static_cast<CellId>(nl_.num_cells());
  for (long long it = 0; it < inner; ++it) {
    const CellId i = static_cast<CellId>(rng_.uniform_int(0, num_cells - 1));
    const Point c0 = placement.state(i).center;
    const Point d = select_displacement(rng_, span, span, params_.selector);
    const Point target{std::clamp(c0.x + d.x, core.xlo, core.xhi),
                       std::clamp(c0.y + d.y, core.ylo, core.yhi)};
    if (!try_displacement(judge, i, target, 0.0)) {
      const Orient o =
          kAllOrients[static_cast<std::size_t>(rng_.uniform_int(0, 7))];
      (void)try_orient_change(judge, i, o, 0.0);
    }
  }
}

}  // namespace tw
