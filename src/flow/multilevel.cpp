#include "flow/multilevel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "anneal/range_limiter.hpp"
#include "anneal/schedule.hpp"
#include "baseline/shelf.hpp"
#include "estimator/area_estimator.hpp"
#include "flow/recorder.hpp"
#include "util/log.hpp"

namespace tw {
namespace {

/// Acceptance probe for the refinement's starting temperature (fresh runs
/// only — a resume continues at its checkpoint temperature and never
/// calls this). Samples single-cell displacements on the warm placement,
/// sized to the move window the fallback temperature would allow, and
/// solves exp(-mean_uphill / t) = chi for the temperature whose uphill
/// acceptance would be the target chi. Wire cost only: the overlap
/// penalty weight is calibrated later by the refinement itself, and at
/// polish temperatures the wire term dominates the acceptance decision.
/// Every touched cell is restored, and the RNG is a dedicated stream
/// (derive_seed(seed, "ml-probe")), so the probe perturbs neither the
/// placement nor the refinement's own draws. Returns `fallback` when the
/// warm placement yields too few uphill samples to measure (e.g. a
/// near-degenerate placement where most displacements go downhill).
double probe_warm_t_factor(const Netlist& nl, Placement& placement,
                           const DynamicAreaEstimator& estimator,
                           const Rect& core, double rho, double fallback,
                           std::uint64_t seed) {
  constexpr int kSamples = 128;
  constexpr int kMinUphill = 8;
  constexpr double kTargetAcceptance = 0.25;
  constexpr double kMinFactor = 0.005;
  constexpr double kMaxFactor = 0.2;

  // T_infinity exactly as the refinement's Stage1Placer computes it, so
  // the returned factor lands on the same temperature scale.
  const double t_inf = t_infinity(stage1_temperature_scale(nl, estimator));

  RangeLimiter limiter(core.width(), core.height(), t_inf, rho);
  const Coord wx = limiter.window_x(fallback * t_inf);
  const Coord wy = limiter.window_y(fallback * t_inf);

  Rng rng(derive_seed(seed, "ml-probe"));
  double sum_uphill = 0.0;
  int uphill = 0;
  const auto n = static_cast<CellId>(nl.num_cells());
  for (int s = 0; s < kSamples; ++s) {
    const CellId c = static_cast<CellId>(rng.uniform_int(0, n - 1));
    const auto& nets = placement.nets_of_cell(c);
    if (nets.empty()) continue;
    double before = 0.0;
    for (const NetId net : nets) before += placement.net_cost(net);
    const CellState saved = placement.snapshot(c);
    const Point p = saved.center;
    // Direct mutation is safe here: the probe runs strictly before the
    // refinement placer constructs its overlap/net-bound engines, so
    // there is no index to desync — the same reason the warm-start
    // sources sit in the txn layer.
    placement.set_center(  // lint: allow(txn-reach)
        c, {p.x + static_cast<Coord>(rng.uniform_int(-wx / 2, wx / 2)),
            p.y + static_cast<Coord>(rng.uniform_int(-wy / 2, wy / 2))});
    double after = 0.0;
    for (const NetId net : nets) after += placement.net_cost(net);
    placement.restore(c, saved);  // lint: allow(txn-reach)
    const double delta = after - before;
    if (delta > 0.0) {
      sum_uphill += delta;
      ++uphill;
    }
  }
  if (uphill < kMinUphill) return fallback;
  const double t =
      (sum_uphill / uphill) / std::log(1.0 / kTargetAcceptance);
  return std::clamp(t / t_inf, kMinFactor, kMaxFactor);
}

}  // namespace

MultilevelFlow::MultilevelFlow(const Netlist& nl, WarmStart& warm,
                               MultilevelParams params)
    : nl_(nl), warm_(&warm), params_(std::move(params)) {
  // API-boundary validation, unconditional: at 1.0 the cold-start p2
  // calibration would discard the warm placement — a silently wasted warm
  // start, not a degraded one.
  if (!(params_.refine_t_factor > 0.0 && params_.refine_t_factor < 1.0))
    throw std::invalid_argument(
        "MultilevelParams::refine_t_factor must be in (0, 1), got " +
        std::to_string(params_.refine_t_factor));
}

MultilevelResult MultilevelFlow::run(Placement& placement) {
  return run_impl(placement, nullptr);
}

MultilevelResult MultilevelFlow::resume(
    Placement& placement, const recover::FlowCheckpoint& checkpoint) {
  restore_checkpoint(placement, checkpoint, nl_, params_.seed,
                     {recover::FlowPhase::kMultilevelRefine});
  return run_impl(placement, &checkpoint);
}

MultilevelResult MultilevelFlow::run_impl(
    Placement& placement, const recover::FlowCheckpoint* checkpoint) {
  MultilevelResult r;
  r.warm_source = warm_->name();
  const bool resumed = checkpoint != nullptr;
  FlowRecorder recorder(nl_, params_.seed, params_.recover);

  // --- warm start ------------------------------------------------------------
  // The probed factor only matters on the fresh path: a resumed
  // refinement restarts at its checkpoint cursor's temperature and never
  // reads warm_start_t_factor.
  double refine_factor = params_.refine_t_factor;
  if (resumed) {
    // The checkpoint postdates the warm start; its outputs ride along.
    r.warm.coarse = checkpoint->ml_coarse;
    r.warm.teil = checkpoint->ml_warm_teil;
    r.warm.clusters = checkpoint->ml_clusters;
    r.warm.dropped_nets = checkpoint->ml_dropped_nets;
  } else {
    // The refinement anneal will size the same core from the same netlist;
    // computing it here hands the warm-start source the exact region the
    // refinement expects cells in.
    DynamicAreaEstimator estimator(nl_);
    const Rect core = estimator.compute_initial_core();
    r.warm = warm_->prepare(placement, core,
                            derive_seed(params_.seed, "warm"),
                            params_.recover.budget);
    if (params_.probe_refine_t)
      refine_factor = probe_warm_t_factor(
          nl_, placement, estimator, core, params_.refine.rho,
          params_.refine_t_factor, params_.seed);
    log_info("warm start (", r.warm_source, ") done: teil=", r.warm.teil,
             " clusters=", r.warm.clusters,
             " dropped_nets=", r.warm.dropped_nets,
             " refine_t_factor=", refine_factor);
  }

  // --- warm-started refinement ----------------------------------------------
  Stage1Params rp = params_.refine;
  rp.warm_start_t_factor = refine_factor;
  Stage1Placer refine(nl_, rp, derive_seed(params_.seed, "ml-refine"));
  refine.set_hooks(recorder.hooks<Stage1Cursor>(
      recover::FlowPhase::kMultilevelRefine, placement,
      [&r](recover::FlowCheckpoint& cp, const Stage1Cursor& cur) {
        cp.ml_coarse = r.warm.coarse;
        cp.ml_warm_teil = r.warm.teil;
        cp.ml_clusters = r.warm.clusters;
        cp.ml_dropped_nets = r.warm.dropped_nets;
        cp.s1 = cur;
      }));
  r.refine = resumed ? refine.resume(placement, checkpoint->s1)
                     : refine.run(placement);

  const BaselineResult m = measure_placement(placement);
  r.final_teil = m.teil;
  r.final_chip_area = m.chip_area;
  r.final_chip_bbox = m.chip_bbox;
  log_info("multilevel refine done: teil=", r.final_teil,
           " area=", r.final_chip_area,
           " overlap=", r.refine.residual_overlap);

  r.outcome = flow_outcome(r.refine.outcome, resumed);
  return r;
}

}  // namespace tw
