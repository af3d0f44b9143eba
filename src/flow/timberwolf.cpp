#include "flow/timberwolf.hpp"

#include <utility>

#include "baseline/shelf.hpp"
#include "flow/recorder.hpp"
#include "util/log.hpp"

namespace tw {

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
  restore_checkpoint(placement, checkpoint, nl_, params_.seed,
                     {recover::FlowPhase::kStage1, recover::FlowPhase::kStage2});
  return run_impl(placement, &checkpoint);
}

FlowResult TimberWolfMC::run_impl(Placement& placement,
                                  const recover::FlowCheckpoint* checkpoint) {
  FlowResult r;
  const bool resumed = checkpoint != nullptr;
  FlowRecorder recorder(nl_, params_.seed, params_.recover);

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
    stage1.set_hooks(recorder.hooks<Stage1Cursor>(
        recover::FlowPhase::kStage1, placement,
        [](recover::FlowCheckpoint& cp, const Stage1Cursor& cur) {
          cp.s1 = cur;
        }));
    r.stage1 = resumed ? stage1.resume(placement, checkpoint->s1)
                       : stage1.run(placement);
    r.stage1_teil = r.stage1.final_teil;
    // Stage-1 chip area: the cells plus the space the estimator reserved.
    const OverlapEngine reserved(placement, stage1.estimator());
    r.stage1_chip_area = reserved.expanded_chip_bbox().area();
    log_info("stage1 done: teil=", r.stage1_teil,
             " area=", r.stage1_chip_area,
             " overlap=", r.stage1.residual_overlap);

    if (r.stage1.outcome != recover::RunOutcome::kCompleted) {
      // Budget expired or cancelled mid-stage-1: hand back the quenched
      // best-feasible placement without starting stage 2.
      r.final_teil = placement.teil();
      r.final_chip_bbox = measure_placement(placement).chip_bbox;
      r.final_chip_area = r.final_chip_bbox.area();
      r.outcome = r.stage1.outcome;
      return r;
    }
  }

  // --- stage 2 ---------------------------------------------------------------
  Stage2Refiner stage2(nl_, params_.stage2,
                       derive_seed(params_.seed, "stage2"));
  stage2.set_hooks(recorder.hooks<Stage2Cursor>(
      recover::FlowPhase::kStage2, placement,
      [&r](recover::FlowCheckpoint& cp, const Stage2Cursor& cur) {
        cp.s1_done = r.stage1;
        cp.stage1_teil = r.stage1_teil;
        cp.stage1_chip_area = r.stage1_chip_area;
        cp.s2 = cur;
      }));
  r.stage2 = skip_stage1
                 ? stage2.resume(placement, r.stage1.core,
                                 r.stage1.t_infinity,
                                 r.stage1.temperature_scale, checkpoint->s2)
                 : stage2.run(placement, r.stage1.core, r.stage1.t_infinity,
                              r.stage1.temperature_scale);
  r.final_teil = r.stage2.final_teil;
  r.final_chip_area = r.stage2.final_chip_area;
  r.final_chip_bbox = measure_placement(placement).chip_bbox;
  r.outcome = flow_outcome(r.stage2.outcome, resumed);
  return r;
}

}  // namespace tw
