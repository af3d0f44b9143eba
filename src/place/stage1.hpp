// Stage 1 of TimberWolfMC (Section 3): simulated-annealing placement with
// the dynamic interconnect-area estimator.
//
// The generate function follows the paper's pseudocode:
//   * with probability p (r = p/(1-p), the displacement:interchange ratio)
//     a single-cell displacement to a point inside the range-limiter
//     window, selected by D_s (or D_r);
//       - if rejected, the displacement is retried with the cell's aspect
//         ratio inverted (90-degree orientation change);
//       - if that also fails, a random orientation change is attempted;
//       - custom cells then attempt one pin-group move per uncommitted pin
//         and one aspect-ratio change;
//   * otherwise a pairwise interchange of two cells;
//       - if rejected, retried with both aspect ratios inverted.
//
// Cooling follows Table 1 with the S_T temperature scaling; the run stops
// after an inner loop executed with the range-limiter window at its
// minimum span (with a step-count safety net for rho = 1, whose window
// never contracts).
//
// Stage 2 re-runs this annealer at low temperature (Section 4.3), so the
// anneal lifecycle lives here once for both: AnnealHooks and its step
// boundary, the Metropolis judge, the pin move and S_T.
#pragma once

#include <algorithm>
#include <functional>

#include "anneal/displacement.hpp"
#include "anneal/range_limiter.hpp"
#include "anneal/schedule.hpp"
#include "check/contracts.hpp"
#include "check/cost_audit.hpp"
#include "place/cost.hpp"
#include "place/move_txn.hpp"
#include "recover/budget.hpp"
#include "recover/fault.hpp"

namespace tw {

/// Ablation switch for the paper's central contribution (Section 2.2).
enum class EstimatorMode {
  kDynamic,  ///< the paper's estimator: position + pin-density modulated
  kUniform,  ///< static 0.5*C_W border on every edge (factor (1) only)
  kNone,     ///< no interconnect allowance at all
};

struct Stage1Params {
  /// r: ratio of single-cell displacements to pairwise interchanges
  /// (Figure 3; r in [7,15] is within one percent of the best).
  double ratio_r = 10.0;

  /// A_c: attempted moves per cell per temperature (Figures 5-6; ~400
  /// saturates quality for 30-60 cell circuits, 25 is ~13 % worse but 16x
  /// faster). The library default favors speed; benches sweep it.
  int attempts_per_cell = 50;

  /// Range-limiter contraction exponent (Section 3.2.2).
  double rho = 4.0;

  /// Displacement-point selection: D_s (structured) or D_r (random).
  PointSelect selector = PointSelect::kStructured;

  /// eta of the cost function.
  CostParams cost;

  /// Interconnect-area estimation mode (kDynamic = the paper; the others
  /// exist for the ablation bench).
  EstimatorMode estimator_mode = EstimatorMode::kDynamic;

  /// Random configurations sampled for the p2 calibration (Eqn 9).
  int p2_samples = 24;

  /// Growth of the overlap-penalty weight over the run: p2 ramps
  /// geometrically from the Eqn 9 calibration to `overlap_penalty_growth`
  /// times it at the final temperature. Eqn 9 balances the terms at T_inf;
  /// left constant, the penalty is too weak at low T to squeeze out the
  /// residual overlap (the successor TimberWolf releases ramp the penalty
  /// weight for the same reason). 1.0 disables the ramp.
  double overlap_penalty_growth = 20.0;

  /// Warm start (the multilevel flow's refinement anneal). 1.0 is the
  /// paper's cold start: the caller-provided placement is irrelevant (the
  /// p2 calibration leaves the last random sample as the initial
  /// configuration) and the anneal starts at T_infinity. A factor < 1
  /// declares the incoming placement meaningful: it is preserved through
  /// the calibration (snapshot before the random sampling, restore
  /// after), and the anneal starts at warm_start_t_factor * T_infinity.
  /// The range limiter and penalty ramp still span the full profile, so a
  /// warm start runs with proportionally contracted move windows — the
  /// refinement regime.
  double warm_start_t_factor = 1.0;
};

/// Safety net: hard cap on stage 1's temperature steps (rho = 1 never
/// reaches the window minimum).
inline constexpr int kStage1MaxSteps = 200;

/// Per-temperature trace entry (drives tests and the cooling diagnostics).
struct TemperaturePoint {
  double t = 0.0;
  double avg_cost = 0.0;
  double acceptance_rate = 0.0;
  Coord window_x = 0;
};

struct Stage1Result {
  double final_teic = 0.0;
  double final_teil = 0.0;
  Coord residual_overlap = 0;   ///< raw C2 at the end (paper's figure of merit)
  int overloaded_sites = 0;     ///< pin sites above capacity at the end
  Rect core;                    ///< target core region used
  double t_infinity = 0.0;
  double temperature_scale = 0.0;  ///< S_T
  double p2 = 0.0;
  int temperature_steps = 0;
  long long attempts = 0;
  long long accepts = 0;
  std::vector<TemperaturePoint> trace;
  /// How the run ended (kBudgetExhausted/kCancelled: best-so-far state).
  recover::RunOutcome outcome = recover::RunOutcome::kCompleted;
};

/// Everything (besides the placement itself, which the caller owns) needed
/// to restart stage 1 at a temperature-step boundary such that the resumed
/// run is byte-identical to the uninterrupted one: schedule position, the
/// Eqn 9 calibration (sampled once with the RNG, so it must be carried —
/// never recomputed), the accumulated result, and the exact RNG stream
/// position. Serialized by src/recover/checkpoint.{hpp,cpp}.
struct Stage1Cursor {
  int next_step = 0;       ///< temperature step about to execute
  double t = 0.0;          ///< temperature at that step
  double p2_base = 0.0;    ///< Eqn 9 calibration (pre-ramp)
  Stage1Result partial;    ///< result accumulated over completed steps
  std::array<std::uint64_t, 4> rng{};  ///< RNG stream state
};

/// Optional run-lifecycle instrumentation of one anneal (see
/// docs/ROBUSTNESS.md), the same for both stages over their cursors. All
/// pointers are non-owning and may be null; checkpoint emission and fault
/// polling never consume RNG state, so an instrumented run is
/// byte-identical to a bare one.
template <class Cursor>
struct AnnealHooks {
  recover::RunBudget* budget = nullptr;      ///< work budget + cancellation
  recover::FaultInjector* faults = nullptr;  ///< kill points (FaultPlan, watchdog)
  /// Called at the top of every `checkpoint_every`-th temperature step.
  std::function<void(const Cursor&)> on_checkpoint;
  int checkpoint_every = 5;

  /// The top of temperature step `step`: the checkpoint (`cursor()` is
  /// built only when one is due), then the stage's fault poll at `site`,
  /// then the budget. The checkpoint comes before the poll so a kill at
  /// step k resumes from the step-k checkpoint. True when the budget asks
  /// the anneal to stop.
  template <class MakeCursor>
  bool step_boundary(int step, recover::FaultSite site,
                     MakeCursor&& cursor) const {
    if (on_checkpoint && step % std::max(1, checkpoint_every) == 0)
      on_checkpoint(cursor());
    if (faults != nullptr) faults->poll(site);
    return budget != nullptr && budget->stop_requested();
  }
};
using Stage1Hooks = AnnealHooks<Stage1Cursor>;

/// The Metropolis judge of both stages, bound for one anneal to its
/// transaction, RNG stream, running cost totals, drift audit and the
/// stage's accept-site poll. Inline so stage 1's move loop stays tight.
struct MetropolisJudge {
  MoveTxn& txn;
  Rng& rng;
  CostTerms& current;
  CostAudit& audit;
  recover::FaultInjector* faults;
  recover::FaultSite accept_site;

  /// Evaluates the open transaction, then either commits it (folding the
  /// delta into `current`), audits it as `what` and polls the accept
  /// site, or reverts it. t == 0 (the quench) takes improvements only.
  bool operator()(double t, const char* what) const {
    TW_ASSERT(t >= 0.0, "t=", t);
    if (!metropolis_accept(txn.evaluate(), t, rng)) {
      txn.revert();
      return false;
    }
    txn.commit(current);
    audit.on_accept(current, what);
    if (faults != nullptr) faults->poll(accept_site);
    return true;
  }
};

/// A judged move; `attempted` is false when it had nothing to act on.
struct MoveOutcome {
  bool attempted = false;
  bool accepted = false;
};

/// The pin move of both stages on custom cell `i`: one movable unit (a
/// pin group or a loose edge pin), chosen uniformly, goes to a random
/// legal site, and `judge` decides. Only the moved pins' nets are
/// evaluated: C2 cannot change, and C3 is confined to this cell. Draws
/// nothing when the cell has no movable unit.
MoveOutcome pin_move(const Netlist& nl, const MetropolisJudge& judge,
                     CellId i, double t, const char* what);

/// S_T of `nl` (Eqns 19-20): the mean area of the cells' first instances,
/// each grown by the estimator's nominal expansion on every side. Stage 1
/// and the multilevel flow's temperature probe share it.
double stage1_temperature_scale(const Netlist& nl,
                                const DynamicAreaEstimator& estimator);

class Stage1Placer {
public:
  Stage1Placer(const Netlist& nl, Stage1Params params, std::uint64_t seed);

  /// Runs stage 1: sizes the core, calibrates p2, anneals, and leaves the
  /// final configuration in `placement`.
  Stage1Result run(Placement& placement);

  /// Restarts an interrupted run mid-schedule. `placement` must already
  /// hold the checkpointed cell states (see recover::apply_placement);
  /// the cursor supplies the rest. By construction the continuation is
  /// byte-identical to the uninterrupted same-seed run.
  Stage1Result resume(Placement& placement, const Stage1Cursor& cursor);

  /// Run-lifecycle hooks; set before run()/resume().
  void set_hooks(Stage1Hooks hooks) { hooks_ = std::move(hooks); }

  /// The estimator (valid after run()); stage 2 reuses its core region.
  const DynamicAreaEstimator& estimator() const { return estimator_; }

private:
  bool try_displacement(const MetropolisJudge& judge, CellId i, Point target,
                        double t);
  bool try_orient_change(const MetropolisJudge& judge, CellId i, Orient o,
                         double t);
  bool try_interchange(const Placement& p, const MetropolisJudge& judge,
                       CellId i, CellId j, bool invert_aspects, double t);
  MoveOutcome try_aspect_change(const MetropolisJudge& judge, CellId i,
                                double t);
  MoveOutcome try_instance_change(const Placement& p,
                                  const MetropolisJudge& judge, CellId i,
                                  double t);

  Stage1Result run_impl(Placement& placement, const Stage1Cursor* cursor);

  /// One improvements-only sweep (T = 0): the graceful wind-down after a
  /// budget expiry or cancellation.
  void quench(const Placement& placement, const MetropolisJudge& judge,
              const Rect& core, long long inner);

  const Netlist& nl_;
  Stage1Params params_;
  Rng rng_;
  DynamicAreaEstimator estimator_;
  Stage1Hooks hooks_;
};

}  // namespace tw
