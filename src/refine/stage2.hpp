// Stage 2 of TimberWolfMC (Section 4): iterated placement refinement.
//
// Each refinement execution performs three steps:
//   (1) channel definition — critical regions + channel graph (Section 4.1);
//   (2) global routing — M alternatives per net, interchange selection
//       (Section 4.2); routed channel densities d give every channel its
//       required width w = (d + 2) * t_s (Eqn 22);
//   (3) placement refinement — each of a channel's two bounding cell edges
//       is expanded outward by w/2 (a *static* quantity for the whole
//       step), and a low-temperature anneal with single-cell displacements
//       and pin moves only (no orientation or aspect changes) adjusts the
//       spacing. The initial temperature T' is chosen so the range-limiter
//       window opens at the fraction mu of the core span (Eqns 25-28,
//       mu = 0.03).
//
// Three executions suffice for the TEIL and chip area to converge; the
// third uses a cost-unchanged stopping criterion.
#pragma once

#include "channel/channel_graph.hpp"
#include "place/stage1.hpp"
#include "route/interchange.hpp"

namespace tw {

struct Stage2Params {
  double mu = 0.03;             ///< initial window fraction of the core span
  int attempts_per_cell = 50;   ///< A_c for the refinement anneal
  GlobalRouterParams router;
};

/// Measurements after one refinement execution.
struct RefinementPass {
  double teic = 0.0;
  double teil = 0.0;
  Coord chip_area = 0;         ///< bbox area of all expanded placed cells
  double route_length = 0.0;   ///< L of the global routing
  int route_overflow = 0;      ///< X
  int unrouted_nets = 0;
  std::size_t regions = 0;     ///< critical regions found
  int temperature_steps = 0;
  /// Channels whose left-edge track need exceeded d + 1 — a violation of
  /// the Eqn 22 premise (0 in a healthy run; see route/channel_router.hpp).
  int width_rule_violations = 0;
  /// Router work counters for this pass's global routing (see
  /// search_workspace.hpp); reported by flow_report.
  RouteCounters router_counters;
};

struct Stage2Result {
  std::vector<RefinementPass> passes;
  double final_teic = 0.0;
  double final_teil = 0.0;
  Coord final_chip_area = 0;
  Rect final_chip_bbox;
  /// The working core after growth (stage 2 enlarges the core when the
  /// routed channel widths demand more space than stage 1 reserved — "if
  /// insufficient space was allocated ... additional space is provided as
  /// required").
  Rect final_core;
  /// How the run ended (kBudgetExhausted/kCancelled: the result is the
  /// quenched, legalized state reached when the budget ran out).
  recover::RunOutcome outcome = recover::RunOutcome::kCompleted;
};

/// Position inside one refinement pass's anneal (step 3).
struct Stage2AnnealState {
  double t = 0.0;
  int steps = 0;        ///< temperature steps completed in this anneal
  int stall = 0;        ///< pass-3 cost-unchanged counter
  double last_cost = 0.0;
};

/// Everything (besides the placement) needed to restart stage 2 at an
/// anneal temperature-step boundary, byte-identical to the uninterrupted
/// run. Steps 0-2 of the in-flight pass (legalize, channel graph, routing,
/// expansion derivation, core growth, p2 recalibration) already happened
/// before the checkpoint, so their outputs — the expansions, the grown
/// core, p2, and the pass metrics — are carried, and resume re-enters the
/// anneal directly. Serialized by src/recover/checkpoint.{hpp,cpp}.
struct Stage2Cursor {
  int pass = 0;                    ///< refinement pass in flight (0-based)
  Stage2AnnealState anneal;
  double p2 = 0.0;                 ///< recalibrated penalty weight
  Rect working_core;               ///< core after growth for this pass
  std::vector<std::array<Coord, 4>> expansions;  ///< per-cell static w/2
  RefinementPass rp;               ///< metrics of steps 0-2 of this pass
  std::vector<RefinementPass> done;  ///< completed passes
  std::array<std::uint64_t, 4> rng{};  ///< RNG stream state
};

/// Run-lifecycle instrumentation; see AnnealHooks.
using Stage2Hooks = AnnealHooks<Stage2Cursor>;

class Stage2Refiner {
public:
  Stage2Refiner(const Netlist& nl, Stage2Params params, std::uint64_t seed);

  /// Refines `placement` in place. `core`, `t_inf` and `scale` come from
  /// the stage-1 result (the stage-2 temperature profile reuses the same
  /// T_infinity and S_T).
  Stage2Result run(Placement& placement, const Rect& core, double t_inf,
                   double scale);

  /// Restarts an interrupted run mid-anneal. `placement` must already hold
  /// the checkpointed cell states; `core`/`t_inf`/`scale` are the same
  /// stage-1 outputs the original run() received. The continuation is
  /// byte-identical to the uninterrupted same-seed run.
  Stage2Result resume(Placement& placement, const Rect& core, double t_inf,
                      double scale, const Stage2Cursor& cursor);

  /// Run-lifecycle hooks; set before run()/resume().
  void set_hooks(Stage2Hooks hooks) { hooks_ = std::move(hooks); }

  /// Initial stage-2 temperature T' for window fraction mu (Eqn 28).
  static double initial_temperature(double mu, double t_inf, double rho);

  /// Per-cell, per-side static expansions derived from routed channel
  /// densities: max over the channels a cell side bounds of w/2 (Eqn 22).
  static std::vector<std::array<Coord, 4>> derive_expansions(
      const Netlist& nl, const ChannelGraph& cg,
      const std::vector<int>& densities);

private:
  /// One low-temperature anneal (step 3) in `at.working_core`, entered at
  /// `at.anneal` (fresh runs pass t = T', steps = stall = 0); its
  /// checkpoints are `at` with the anneal position and RNG state filled
  /// in. `final_pass` switches to the cost-unchanged stopping criterion.
  /// Returns the temperature-step count; sets `stopped` when the budget
  /// expired (after an improvements-only wind-down sweep).
  int anneal(Placement& placement, OverlapEngine& overlap, CostModel& model,
             const Stage2Cursor& at, double t_inf, double scale,
             bool final_pass, bool& stopped);

  Stage2Result run_impl(Placement& placement, const Rect& core, double t_inf,
                        double scale, const Stage2Cursor* cursor);

  const Netlist& nl_;
  Stage2Params params_;
  Rng rng_;
  Stage2Hooks hooks_;
};

}  // namespace tw
