// The TimberWolfMC flow: the package's public entry point.
//
//   Netlist nl = ...;                       // or parse_netlist_file(...)
//   TimberWolfMC tw(nl, {});                // default parameters
//   Placement placement(nl);
//   FlowResult r = tw.run(placement);       // stage 1 + 3 refinements
//
// The result carries the per-stage metrics the paper reports: the TEIL and
// chip area at the end of stage 1 and stage 2 (whose relative change is
// the estimator-accuracy experiment of Table 3) and the final values used
// for the comparisons of Table 4.
#pragma once

#include <functional>

#include "place/stage1.hpp"
#include "recover/checkpoint.hpp"
#include "refine/stage2.hpp"

namespace tw {

/// One progress sample of a running flow, emitted at the same temperature-
/// step boundaries checkpoints are written at (every `checkpoint_every`
/// steps), whether or not a checkpoint sink is configured. This is the
/// placement service's streaming-progress source: the samples are pure
/// observations — emitting them never consumes RNG state or otherwise
/// perturbs the run, so an observed flow stays byte-identical to a bare
/// one.
struct FlowProgress {
  recover::FlowPhase phase = recover::FlowPhase::kStage1;
  int step = 0;       ///< temperature steps completed in the current anneal
  int pass = 0;       ///< stage-2 refinement pass in flight (0 in stage 1)
  double t = 0.0;     ///< current annealing temperature
  /// Best available cost estimate at this boundary: the last completed
  /// temperature step's average cost in stage 1, the in-flight pass's
  /// post-routing TEIL in stage 2 (0.0 while nothing is measured yet).
  double cost = 0.0;
};

/// Run-lifecycle options (see docs/ROBUSTNESS.md). All pointers are
/// non-owning and optional; with everything defaulted the flow behaves —
/// byte for byte — exactly as an uninstrumented run.
struct FlowRecoverOptions {
  /// When non-empty, periodic checkpoints are written here (numbered
  /// ckpt-NNNNNN.twcp files, atomic temp+rename writes).
  std::string checkpoint_dir;
  /// Temperature steps between checkpoints.
  int checkpoint_every = 5;
  /// Retention: keep only the newest `checkpoint_keep` files in the
  /// directory, pruning older ones atomically after each write. 0 keeps
  /// everything (the pre-pool behavior).
  int checkpoint_keep = 0;
  /// Byte quota for the checkpoint directory; a save that would exceed it
  /// is refused with CheckpointError(kQuotaExceeded) after pruning what
  /// retention allows. 0 means unbounded.
  std::uint64_t checkpoint_quota_bytes = 0;
  /// Disk-fault injection seam for the checkpoint sink (tests script
  /// ENOSPC / short writes through it; see recover::DiskFaultPlan).
  recover::DiskFaultInjector* disk_faults = nullptr;
  /// Work budget and cooperative cancellation, honored by both stages and
  /// the global router. On expiry the flow degrades gracefully: the
  /// annealer quenches (improvements only), keeps the best feasible state
  /// seen, and returns with outcome kBudgetExhausted / kCancelled.
  recover::RunBudget* budget = nullptr;
  /// Deterministic kill points: FaultPlan for the recovery tests, the
  /// replica pool's watchdog probe for supervised runs.
  recover::FaultInjector* faults = nullptr;
  /// Streaming progress observer, called at every `checkpoint_every`-th
  /// temperature-step boundary of both stages (see FlowProgress). May be
  /// set without a checkpoint_dir. Must not throw.
  std::function<void(const FlowProgress&)> on_progress;
};

struct FlowParams {
  Stage1Params stage1;
  Stage2Params stage2;
  std::uint64_t seed = 1;
  FlowRecoverOptions recover;
};

struct FlowResult {
  Stage1Result stage1;
  Stage2Result stage2;

  double stage1_teil = 0.0;
  Coord stage1_chip_area = 0;
  double final_teil = 0.0;
  Coord final_chip_area = 0;
  Rect final_chip_bbox;

  /// How the flow ended:
  ///   kCompleted       — ran the full schedule to the stopping criterion;
  ///   kBudgetExhausted — the RunBudget expired; the placement is the
  ///                      quenched best-feasible state reached by then;
  ///   kCancelled       — RunBudget::request_cancel() was honored (same
  ///                      graceful wind-down as exhaustion);
  ///   kResumed         — a run() continued from a checkpoint completed
  ///                      (metrics are identical to the uninterrupted run).
  recover::RunOutcome outcome = recover::RunOutcome::kCompleted;

  /// Table 3 metrics: percentage change from the end of stage 1 to the end
  /// of stage 2 (positive = reduction, matching the paper's sign).
  double teil_change_pct() const {
    return stage1_teil > 0.0
               ? 100.0 * (stage1_teil - final_teil) / stage1_teil
               : 0.0;
  }
  double area_change_pct() const {
    return stage1_chip_area > 0
               ? 100.0 *
                     static_cast<double>(stage1_chip_area - final_chip_area) /
                     static_cast<double>(stage1_chip_area)
               : 0.0;
  }
};

class TimberWolfMC {
public:
  TimberWolfMC(const Netlist& nl, FlowParams params = {});

  /// Runs the full flow, leaving the final configuration in `placement`.
  FlowResult run(Placement& placement);

  /// Continues an interrupted flow from a checkpoint (see
  /// recover::load_checkpoint). `placement` is overwritten with the
  /// checkpointed state; the continuation is byte-identical to the
  /// uninterrupted run under the same FlowParams. Throws CheckpointError
  /// (kNetlistMismatch / kSeedMismatch) when the checkpoint was taken on a
  /// different netlist or master seed, and kCorrupt when its phase is not
  /// stage 1 or stage 2 (a multilevel-refine checkpoint). The returned
  /// outcome is kResumed when the continuation completed normally; budget
  /// outcomes win.
  FlowResult resume(Placement& placement,
                    const recover::FlowCheckpoint& checkpoint);

  /// Runs only stage 1 (useful for experiments that refine separately).
  Stage1Result run_stage1(Placement& placement);

private:
  FlowResult run_impl(Placement& placement,
                      const recover::FlowCheckpoint* checkpoint);

  const Netlist& nl_;
  FlowParams params_;
};

}  // namespace tw
