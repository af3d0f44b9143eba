#include "flow/recorder.hpp"

#include <algorithm>
#include <string>

namespace tw {

FlowRecorder::FlowRecorder(const Netlist& nl, std::uint64_t seed,
                           const FlowRecoverOptions& opts)
    : seed_(seed), opts_(opts) {
  if (opts.checkpoint_dir.empty()) return;
  sink_.emplace(opts.checkpoint_dir, opts.checkpoint_keep,
                opts.checkpoint_quota_bytes, opts.disk_faults);
  digest_ = recover::netlist_digest(nl);
}

void FlowRecorder::save(recover::FlowCheckpoint& cp,
                        const Placement& placement) {
  cp.master_seed = seed_;
  cp.digest = digest_;
  cp.placement = recover::pack_placement(placement);
  sink_->save(cp);
  // Checkpoint preemption: park the run at the boundary whose checkpoint
  // was just durably saved — the resume replays from exactly here, so
  // nothing is lost and the preempted-then-resumed run stays
  // byte-identical to an uninterrupted one. A run that takes no
  // checkpoints has nowhere to park and ignores the flag. Cancellation
  // wins over preemption: a cancelled run must wind down to a result
  // now, not park for later.
  const recover::RunBudget* budget = opts_.budget;
  if (budget != nullptr && budget->preempt_requested() && !budget->cancelled())
    throw recover::Preempted(std::string(to_string(cp.phase)) +
                             " step boundary");
}

FlowProgress FlowRecorder::progress(recover::FlowPhase phase,
                                    const Stage1Cursor& cur) {
  FlowProgress pg;
  pg.phase = phase;
  pg.step = cur.next_step;
  pg.t = cur.t;
  if (!cur.partial.trace.empty()) pg.cost = cur.partial.trace.back().avg_cost;
  return pg;
}

FlowProgress FlowRecorder::progress(recover::FlowPhase phase,
                                    const Stage2Cursor& cur) {
  FlowProgress pg;
  pg.phase = phase;
  pg.step = cur.anneal.steps;
  pg.pass = cur.pass;
  pg.t = cur.anneal.t;
  pg.cost = cur.rp.teil;
  return pg;
}

void restore_checkpoint(Placement& placement,
                        const recover::FlowCheckpoint& cp, const Netlist& nl,
                        std::uint64_t seed,
                        std::initializer_list<recover::FlowPhase> phases) {
  using recover::CheckpointErrc;
  using recover::CheckpointError;
  const std::uint64_t want = recover::netlist_digest(nl);
  if (cp.digest != want)
    throw CheckpointError(CheckpointErrc::kNetlistMismatch,
                          "checkpoint digest " + std::to_string(cp.digest) +
                              " != netlist digest " + std::to_string(want));
  if (cp.master_seed != seed)
    throw CheckpointError(CheckpointErrc::kSeedMismatch,
                          "checkpoint seed " + std::to_string(cp.master_seed) +
                              " != flow seed " + std::to_string(seed));
  if (std::find(phases.begin(), phases.end(), cp.phase) == phases.end())
    throw CheckpointError(CheckpointErrc::kCorrupt,
                          std::string("checkpoint phase ") +
                              to_string(cp.phase) +
                              " does not belong to this flow");
  recover::apply_placement(placement, cp.placement);
}

recover::RunOutcome flow_outcome(recover::RunOutcome last, bool resumed) {
  if (last != recover::RunOutcome::kCompleted) return last;
  return resumed ? recover::RunOutcome::kResumed
                 : recover::RunOutcome::kCompleted;
}

}  // namespace tw
