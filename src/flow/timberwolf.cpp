#include "flow/timberwolf.hpp"

#include <optional>
#include <utility>

#include "util/log.hpp"

namespace tw {
namespace {

/// Chip bbox area of the bare placed cells (no expansions): the common
/// measure applied to both stages and to the baseline placers.
Rect chip_bbox(const Placement& placement) {
  Rect bb;
  bool first = true;
  const auto n = static_cast<CellId>(placement.netlist().num_cells());
  for (CellId c = 0; c < n; ++c) {
    for (const Rect& t : placement.absolute_tiles(c)) {
      bb = first ? t : bb.bounding_union(t);
      first = false;
    }
  }
  return bb;
}

/// Stage-1 chip area: the cells plus the space the estimator reserved.
Coord stage1_area(const Placement& placement, const Netlist& nl,
                  const DynamicAreaEstimator& estimator) {
  OverlapEngine ov(placement, estimator);
  Rect bb;
  bool first = true;
  const auto n = static_cast<CellId>(nl.num_cells());
  for (CellId c = 0; c < n; ++c)
    for (const Rect& t : ov.expanded_tiles(c)) {
      bb = first ? t : bb.bounding_union(t);
      first = false;
    }
  return bb.area();
}

}  // namespace

TimberWolfMC::TimberWolfMC(const Netlist& nl, FlowParams params)
    : nl_(nl), params_(std::move(params)) {}

Stage1Result TimberWolfMC::run_stage1(Placement& placement) {
  Stage1Placer stage1(nl_, params_.stage1,
                      derive_seed(params_.seed, "stage1"));
  return stage1.run(placement);
}

FlowResult TimberWolfMC::run(Placement& placement) {
  return run_impl(placement, nullptr);
}

FlowResult TimberWolfMC::resume(Placement& placement,
                                const recover::FlowCheckpoint& checkpoint) {
  const std::uint64_t want = recover::netlist_digest(nl_);
  if (checkpoint.digest != want)
    throw recover::CheckpointError(
        recover::CheckpointErrc::kNetlistMismatch,
        "checkpoint digest " + std::to_string(checkpoint.digest) +
            " != netlist digest " + std::to_string(want));
  if (checkpoint.master_seed != params_.seed)
    throw recover::CheckpointError(
        recover::CheckpointErrc::kSeedMismatch,
        "checkpoint seed " + std::to_string(checkpoint.master_seed) +
            " != flow seed " + std::to_string(params_.seed));
  recover::apply_placement(placement, checkpoint.placement);
  return run_impl(placement, &checkpoint);
}

FlowResult TimberWolfMC::run_impl(Placement& placement,
                                  const recover::FlowCheckpoint* checkpoint) {
  FlowResult r;
  const bool resumed = checkpoint != nullptr;

  std::optional<recover::FileCheckpointSink> sink;
  std::uint64_t digest = 0;
  if (!params_.recover.checkpoint_dir.empty()) {
    sink.emplace(params_.recover.checkpoint_dir,
                 params_.recover.checkpoint_keep,
                 params_.recover.checkpoint_quota_bytes,
                 params_.recover.disk_faults);
    digest = recover::netlist_digest(nl_);
  }

  // Checkpoint preemption: park the run at the boundary whose checkpoint
  // was just durably saved — the resume replays from exactly here, so
  // nothing is lost and the preempted-then-resumed run stays
  // byte-identical to an uninterrupted one. Only meaningful with a sink:
  // a run that takes no checkpoints has nowhere to park and ignores the
  // flag.
  const auto preempt_point = [this](const char* where) {
    // Cancellation wins over preemption: a cancelled run must wind down
    // to a result now, not park for later.
    if (params_.recover.budget != nullptr &&
        params_.recover.budget->preempt_requested() &&
        !params_.recover.budget->cancelled())
      throw recover::Preempted(where);
  };

  // --- stage 1 ---------------------------------------------------------------
  const bool skip_stage1 =
      resumed && checkpoint->phase == recover::FlowPhase::kStage2;
  if (skip_stage1) {
    // The checkpoint postdates stage 1; its outputs ride in the checkpoint.
    r.stage1 = checkpoint->s1_done;
    r.stage1_teil = checkpoint->stage1_teil;
    r.stage1_chip_area = checkpoint->stage1_chip_area;
  } else {
    Stage1Placer stage1(nl_, params_.stage1,
                        derive_seed(params_.seed, "stage1"));
    Stage1Hooks hooks;
    hooks.budget = params_.recover.budget;
    hooks.faults = params_.recover.faults;
    hooks.checkpoint_every = params_.recover.checkpoint_every;
    if (sink || params_.recover.on_progress) {
      hooks.on_checkpoint = [&](const Stage1Cursor& cur) {
        if (sink) {
          recover::FlowCheckpoint fc;
          fc.master_seed = params_.seed;
          fc.digest = digest;
          fc.phase = recover::FlowPhase::kStage1;
          fc.s1 = cur;
          fc.placement = recover::pack_placement(placement);
          sink->save(fc);
          preempt_point("stage1 step boundary");
        }
        if (params_.recover.on_progress) {
          FlowProgress pg;
          pg.phase = recover::FlowPhase::kStage1;
          pg.step = cur.next_step;
          pg.pass = 0;
          pg.t = cur.t;
          if (!cur.partial.trace.empty())
            pg.cost = cur.partial.trace.back().avg_cost;
          params_.recover.on_progress(pg);
        }
      };
    }
    stage1.set_hooks(std::move(hooks));
    r.stage1 = resumed ? stage1.resume(placement, checkpoint->s1)
                       : stage1.run(placement);
    r.stage1_teil = r.stage1.final_teil;
    r.stage1_chip_area = stage1_area(placement, nl_, stage1.estimator());
    log_info("stage1 done: teil=", r.stage1_teil,
             " area=", r.stage1_chip_area,
             " overlap=", r.stage1.residual_overlap);

    if (r.stage1.outcome != recover::RunOutcome::kCompleted) {
      // Budget expired or cancelled mid-stage-1: hand back the quenched
      // best-feasible placement without starting stage 2.
      r.final_teil = placement.teil();
      r.final_chip_bbox = chip_bbox(placement);
      r.final_chip_area = r.final_chip_bbox.area();
      r.outcome = r.stage1.outcome;
      return r;
    }
  }

  // --- stage 2 ---------------------------------------------------------------
  Stage2Refiner stage2(nl_, params_.stage2,
                       derive_seed(params_.seed, "stage2"));
  Stage2Hooks hooks;
  hooks.budget = params_.recover.budget;
  hooks.faults = params_.recover.faults;
  hooks.checkpoint_every = params_.recover.checkpoint_every;
  if (sink || params_.recover.on_progress) {
    hooks.on_checkpoint = [&](const Stage2Cursor& cur) {
      if (sink) {
        recover::FlowCheckpoint fc;
        fc.master_seed = params_.seed;
        fc.digest = digest;
        fc.phase = recover::FlowPhase::kStage2;
        fc.s1_done = r.stage1;
        fc.stage1_teil = r.stage1_teil;
        fc.stage1_chip_area = r.stage1_chip_area;
        fc.s2 = cur;
        fc.placement = recover::pack_placement(placement);
        sink->save(fc);
        preempt_point("stage2 step boundary");
      }
      if (params_.recover.on_progress) {
        FlowProgress pg;
        pg.phase = recover::FlowPhase::kStage2;
        pg.step = cur.anneal.steps;
        pg.pass = cur.pass;
        pg.t = cur.anneal.t;
        pg.cost = cur.rp.teil;
        params_.recover.on_progress(pg);
      }
    };
  }
  stage2.set_hooks(std::move(hooks));
  r.stage2 = skip_stage1
                 ? stage2.resume(placement, r.stage1.core,
                                 r.stage1.t_infinity,
                                 r.stage1.temperature_scale, checkpoint->s2)
                 : stage2.run(placement, r.stage1.core, r.stage1.t_infinity,
                              r.stage1.temperature_scale);
  r.final_teil = r.stage2.final_teil;
  r.final_chip_area = r.stage2.final_chip_area;
  r.final_chip_bbox = chip_bbox(placement);

  if (r.stage2.outcome != recover::RunOutcome::kCompleted)
    r.outcome = r.stage2.outcome;  // budget outcomes win over kResumed
  else
    r.outcome = resumed ? recover::RunOutcome::kResumed
                        : recover::RunOutcome::kCompleted;
  return r;
}

}  // namespace tw
