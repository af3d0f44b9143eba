// The multilevel placement flow (DESIGN.md "Multilevel placement"):
//
//   1. warm start — a WarmStart source fills the flat placement (the
//      cluster source clusters the netlist, anneals the coarse netlist,
//      and projects cluster placements onto the members);
//   2. refinement — a stage-1 anneal started at refine_t_factor *
//      T_infinity (Stage1Params::warm_start_t_factor), so the range
//      limiter opens with proportionally contracted move windows and the
//      anneal polishes instead of re-scrambling.
//
// Flat stage 1 spends most of its moves at high temperature rediscovering
// global structure the netlist's connectivity already implies; at SoC
// scale (1k-10k macros) the coarse anneal finds that structure over
// num_cells / max_cluster_size objects and the refinement inherits it.
//
//   Netlist nl = ...;
//   ClusterWarmStart warm({}, {});
//   MultilevelFlow flow(nl, warm, {});
//   Placement placement(nl);
//   MultilevelResult r = flow.run(placement);
//
// Determinism: every stochastic component threads from MultilevelParams::
// seed via derive_seed ("warm" for the source, "ml-refine" for the
// refinement), so a run is byte-identical for a given (netlist, params,
// seed, source). Checkpoints cover the refinement anneal (phase
// kMultilevelRefine, carrying the warm-start outputs); a resumed run is
// byte-identical to an uninterrupted one.
#pragma once

#include "flow/timberwolf.hpp"
#include "flow/warm_start.hpp"

namespace tw {

struct MultilevelParams {
  /// Parameters of the flat refinement anneal. The coarse anneal (cluster
  /// source) is parameterized separately through ClusterWarmStart.
  Stage1Params refine;

  /// Starting temperature of the refinement as a fraction of T_infinity
  /// (becomes refine.warm_start_t_factor). Must be in (0, 1): at 1.0 the
  /// paper's cold-start calibration discards the warm placement, which
  /// defeats the flow. The default is deliberately deep into the schedule:
  /// T_infinity is sized for near-unit acceptance, so even 0.15 * T_inf
  /// still accepts most uphill moves and re-scrambles the warm placement
  /// (measured on the 1k known-optimum instance: 0.15 ends 2.9x worse
  /// than 0.02). 0.02 keeps the acceptance low enough to polish. With
  /// probe_refine_t on (the default) this constant is the fallback; with
  /// it off, the constant is used directly.
  double refine_t_factor = 0.02;

  /// Derive the refinement's starting temperature from the warm placement
  /// itself instead of the fixed constant: sample single-cell
  /// displacements, measure the mean uphill wire-cost delta, and start at
  /// the temperature whose uphill acceptance would be ~25%, clamped to
  /// [0.005, 0.2] of T_infinity (refine_t_factor is the fallback when the
  /// probe cannot measure). A poor warm start probes hot and gets room
  /// to fix it; a good one (cluster) probes cool and is only
  /// polished. The probe restores every cell it touches and draws from
  /// its own derived stream, so it shifts no other decision; resumed runs
  /// skip it entirely (they continue at the checkpoint temperature).
  bool probe_refine_t = true;

  std::uint64_t seed = 1;

  /// Checkpointing / budget / fault instrumentation, exactly as for
  /// TimberWolfMC. Checkpoints are written at refinement temperature-step
  /// boundaries; the budget also meters the warm start's coarse anneal.
  FlowRecoverOptions recover;
};

struct MultilevelResult {
  WarmStartInfo warm;       ///< what the warm start produced
  std::string warm_source;  ///< WarmStart::name() of the source used

  Stage1Result refine;      ///< the refinement anneal

  double final_teil = 0.0;
  Coord final_chip_area = 0;
  Rect final_chip_bbox;

  /// kCompleted / kBudgetExhausted / kCancelled / kResumed, with the same
  /// semantics as FlowResult::outcome.
  recover::RunOutcome outcome = recover::RunOutcome::kCompleted;

  /// Refinement improvement over the warm start (positive = reduction).
  double teil_change_pct() const {
    return warm.teil > 0.0 ? 100.0 * (warm.teil - final_teil) / warm.teil
                           : 0.0;
  }
};

class MultilevelFlow {
public:
  /// `warm` is borrowed for the flow's lifetime.
  MultilevelFlow(const Netlist& nl, WarmStart& warm,
                 MultilevelParams params = {});

  /// Runs warm start + refinement, leaving the final configuration in
  /// `placement`.
  MultilevelResult run(Placement& placement);

  /// Continues an interrupted refinement from a checkpoint (phase must be
  /// kMultilevelRefine; kNetlistMismatch / kSeedMismatch / kCorrupt are
  /// typed errors). The warm start is not re-run: its outputs ride in the
  /// checkpoint. The continuation is byte-identical to the uninterrupted
  /// run under the same parameters and source.
  MultilevelResult resume(Placement& placement,
                          const recover::FlowCheckpoint& checkpoint);

private:
  MultilevelResult run_impl(Placement& placement,
                            const recover::FlowCheckpoint* checkpoint);

  const Netlist& nl_;
  WarmStart* warm_;
  MultilevelParams params_;
};

}  // namespace tw
