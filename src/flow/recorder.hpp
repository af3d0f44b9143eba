// The run-lifecycle side both flows share (docs/ROBUSTNESS.md): the
// checkpoint sink, the save -> preempt -> progress order at every
// checkpointed step boundary, FlowProgress samples, the resume checks and
// the outcome rule. TimberWolfMC and MultilevelFlow fill in only their own
// phase's checkpoint fields.
#pragma once

#include <functional>
#include <initializer_list>
#include <optional>

#include "flow/timberwolf.hpp"

namespace tw {

class FlowRecorder {
 public:
  /// `opts` is borrowed for the recorder's lifetime. Opens the checkpoint
  /// sink when `opts.checkpoint_dir` is set.
  FlowRecorder(const Netlist& nl, std::uint64_t seed,
               const FlowRecoverOptions& opts);
  FlowRecorder(const FlowRecorder&) = delete;  ///< its hooks hold `this`
  FlowRecorder& operator=(const FlowRecorder&) = delete;

  /// Hooks for one anneal of `phase` on `placement`. At each checkpointed
  /// boundary: with a sink, `fill` writes the phase's fields into the
  /// checkpoint, which is saved, and a preemption request parks the run
  /// there (cancellation wins over preemption); then the progress observer
  /// sees the sample. With neither a sink nor an observer the anneal
  /// builds no cursors at all.
  template <class Cursor>
  AnnealHooks<Cursor> hooks(
      recover::FlowPhase phase, const Placement& placement,
      std::function<void(recover::FlowCheckpoint&, const Cursor&)> fill) {
    AnnealHooks<Cursor> h;
    h.budget = opts_.budget;
    h.faults = opts_.faults;
    h.checkpoint_every = opts_.checkpoint_every;
    if (sink_ || opts_.on_progress)
      h.on_checkpoint = [this, phase, &placement,
                         fill = std::move(fill)](const Cursor& cur) {
        if (sink_) {
          recover::FlowCheckpoint cp;
          cp.phase = phase;
          fill(cp, cur);
          save(cp, placement);
        }
        if (opts_.on_progress) opts_.on_progress(progress(phase, cur));
      };
    return h;
  }

 private:
  void save(recover::FlowCheckpoint& cp, const Placement& placement);
  static FlowProgress progress(recover::FlowPhase phase,
                               const Stage1Cursor& cur);
  static FlowProgress progress(recover::FlowPhase phase,
                               const Stage2Cursor& cur);

  std::uint64_t seed_;
  const FlowRecoverOptions& opts_;
  std::optional<recover::FileCheckpointSink> sink_;
  std::uint64_t digest_ = 0;  ///< netlist digest, computed only with a sink
};

/// The resume checks of both flows, then the restore: throws
/// CheckpointError unless `cp` was taken on `nl` (kNetlistMismatch) under
/// master seed `seed` (kSeedMismatch) in one of the flow's `phases`
/// (kCorrupt); then overwrites `placement` with the checkpointed state.
void restore_checkpoint(Placement& placement,
                        const recover::FlowCheckpoint& cp, const Netlist& nl,
                        std::uint64_t seed,
                        std::initializer_list<recover::FlowPhase> phases);

/// How a flow ended, from its last anneal's outcome: budget outcomes win;
/// a completed run reports kResumed when it continued a checkpoint.
recover::RunOutcome flow_outcome(recover::RunOutcome last, bool resumed);

}  // namespace tw
