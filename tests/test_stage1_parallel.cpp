// Tests for the parallel stage-1 annealer (src/place/stage1_parallel.*):
// thread-count determinism (the tentpole guarantee: byte-identical
// same-seed fingerprints at 1/2/4/8 workers), indexed-vs-naive exactness
// under parallel commit, checkpoint/resume equivalence and budget
// wind-down (the WorkerCrew primitive is tested in test_pool.cpp). The
// whole suite carries the "robustness" label, so the ASan and TSan CI
// legs both run it — any cross-replica data race in the speculation
// batches fails the TSan job.
#include <gtest/gtest.h>

#include <iomanip>
#include <optional>
#include <sstream>
#include <unordered_set>
#include <vector>

#include <filesystem>

#include "check/validate.hpp"
#include "fingerprint.hpp"
#include "flow/timberwolf.hpp"
#include "place/stage1_parallel.hpp"
#include "recover/fault.hpp"
#include "workload/generator.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

ParallelStage1Params fast_params(int workers) {
  ParallelStage1Params p;
  p.base.attempts_per_cell = 12;  // keep unit tests quick
  p.base.p2_samples = 8;
  p.num_workers = workers;
  return p;
}

/// Hexfloat fingerprint of the final placement + every result metric: two
/// runs compare equal only when every bit of every value matches.
std::string fingerprint(const Placement& p, const Stage1Result& r) {
  std::ostringstream os;
  os << std::hexfloat;
  const auto n = static_cast<CellId>(p.netlist().num_cells());
  for (CellId c = 0; c < n; ++c) {
    const CellState& s = p.state(c);
    os << "cell " << c << ": (" << s.center.x << "," << s.center.y << ") o"
       << static_cast<int>(s.orient) << " i" << s.instance << " a" << s.aspect
       << " sites[";
    for (int site : s.pin_site) os << site << ",";
    os << "]\n";
  }
  os << "teic " << r.final_teic << " teil " << r.final_teil << " ov "
     << r.residual_overlap << " sites " << r.overloaded_sites << "\n";
  os << "steps " << r.temperature_steps << " attempts " << r.attempts
     << " accepts " << r.accepts << " p2 " << r.p2 << "\n";
  for (const auto& tp : r.trace)
    os << "t " << tp.t << " cost " << tp.avg_cost << " acc "
       << tp.acceptance_rate << " win " << tp.window_x << "\n";
  return os.str();
}

TEST(ParallelStage1, FingerprintStableAcrossWorkerCounts) {
  const Netlist nl = generate_circuit(tiny_circuit(5));
  std::optional<std::string> reference;
  ParallelStage1Placer::BatchStats ref_stats;
  for (const int workers : {1, 2, 4, 8}) {
    ParallelStage1Placer placer(nl, fast_params(workers), 71);
    Placement placement(nl);
    const Stage1Result r = placer.run(placement);
    const std::string fp = fingerprint(placement, r);
    if (!reference) {
      reference = fp;
      ref_stats = placer.batch_stats();
      EXPECT_GT(r.attempts, 0);
    } else {
      EXPECT_EQ(*reference, fp) << "workers=" << workers;
      // The whole trajectory is worker-independent, down to which slots
      // speculated cleanly and which were re-executed after a conflict.
      EXPECT_EQ(ref_stats.clean, placer.batch_stats().clean);
      EXPECT_EQ(ref_stats.conflicted, placer.batch_stats().conflicted);
    }
  }
  EXPECT_EQ(ref_stats.slots, ref_stats.clean + ref_stats.conflicted);
  EXPECT_GT(ref_stats.clean, 0);
}

TEST(ParallelStage1, MatchesOwnRerunAndImprovesLayout) {
  const Netlist nl = generate_circuit(tiny_circuit(6));
  ParallelStage1Placer a(nl, fast_params(4), 13);
  ParallelStage1Placer b(nl, fast_params(4), 13);
  Placement pa(nl), pb(nl);
  const Stage1Result ra = a.run(pa);
  const Stage1Result rb = b.run(pb);
  EXPECT_EQ(fingerprint(pa, ra), fingerprint(pb, rb));

  // Quality sanity: beats the mean random placement by a wide margin.
  Placement rnd(nl);
  Rng rng(7);
  double random_teil = 0.0;
  for (int i = 0; i < 8; ++i) {
    rnd.randomize(rng, ra.core);
    random_teil += rnd.teil();
  }
  random_teil /= 8.0;
  EXPECT_LT(ra.final_teil, 0.8 * random_teil);
}

TEST(ParallelStage1, ExactnessUnderParallelCommit) {
  // The incremental state the commit pass maintains (net-bound cache,
  // overlap index) must equal a from-scratch recompute after the run —
  // the indexed-vs-naive equivalence under parallel commit.
  const Netlist nl = generate_circuit(medium_circuit(2));
  ParallelStage1Params params = fast_params(4);
  ParallelStage1Placer placer(nl, params, 29);
  Placement placement(nl);
  const Stage1Result r = placer.run(placement);

  EXPECT_EQ(placement.net_bounds_drift(), "");
  OverlapEngine bare(placement, r.core, {});
  EXPECT_EQ(bare.total_overlap(), bare.total_overlap_naive());
  const ValidationReport pr = validate_placement(placement, {.core = r.core});
  EXPECT_TRUE(pr.ok()) << pr.str();
}

TEST(ParallelStage1, ResumeReproducesUninterruptedRun) {
  const Netlist nl = generate_circuit(tiny_circuit(9));

  // Uninterrupted run, capturing a mid-run cursor + placement snapshot
  // (checkpoints fire at the top of a step, before it mutates anything,
  // so copying the annealed placement inside the hook is exact).
  std::optional<Stage1Cursor> cursor;
  std::optional<Placement> snapshot;
  Placement uninterrupted(nl);
  ParallelStage1Placer full(nl, fast_params(2), 45);
  Stage1Hooks hooks;
  hooks.checkpoint_every = 3;
  hooks.on_checkpoint = [&](const Stage1Cursor& cur) {
    if (cur.next_step == 6) {
      cursor = cur;
      snapshot.emplace(uninterrupted);
    }
  };
  full.set_hooks(hooks);
  const Stage1Result r_full = full.run(uninterrupted);
  ASSERT_TRUE(cursor.has_value());
  ASSERT_TRUE(snapshot.has_value());

  // Fresh placer resumed at the captured step — and with a different
  // worker count than the original run, which must not matter.
  ParallelStage1Placer resumed(nl, fast_params(8), 45);
  Placement continued = *snapshot;
  const Stage1Result r_res = resumed.resume(continued, *cursor);
  EXPECT_EQ(fingerprint(uninterrupted, r_full), fingerprint(continued, r_res));
}

TEST(ParallelStage1, BudgetStopIsWorkerCountIndependent) {
  const Netlist nl = generate_circuit(tiny_circuit(4));
  std::optional<std::string> reference;
  for (const int workers : {1, 4}) {
    ParallelStage1Placer placer(nl, fast_params(workers), 91);
    recover::RunBudget budget(2500, recover::RunBudget::kUnlimited);
    Stage1Hooks hooks;
    hooks.budget = &budget;
    placer.set_hooks(hooks);
    Placement placement(nl);
    const Stage1Result r = placer.run(placement);
    EXPECT_EQ(r.outcome, recover::RunOutcome::kBudgetExhausted);
    const std::string fp = fingerprint(placement, r);
    if (!reference) {
      reference = fp;
    } else {
      EXPECT_EQ(*reference, fp) << "workers=" << workers;
    }
  }
}

TEST(ParallelFlow, KillResumeReproducesBaselineAcrossEngineSelection) {
  // Full-flow crash recovery with the parallel engine: kill mid-stage-1,
  // resume from the on-disk checkpoint under DIFFERENT stage1_workers
  // settings (including 0 = "serial"), and require byte-identical results.
  // The checkpoint's kParallelStage1 phase tag must re-select the parallel
  // engine no matter what the resume-time params say.
  const Netlist nl = generate_circuit(tiny_circuit(21));
  FlowParams base = testing::fast_flow(57);
  base.stage1_workers = 3;

  std::string reference;
  {
    Placement p(nl);
    const FlowResult r = TimberWolfMC(nl, base).run(p);
    reference = testing::fingerprint(p, r);
  }

  const std::string dir = ::testing::TempDir() + "/tw_par_flow_resume";
  std::filesystem::remove_all(dir);
  recover::FaultPlan plan;
  plan.kill_at(recover::FaultSite::kStage1Step, 4);
  FlowParams doomed_params = base;
  doomed_params.recover.checkpoint_dir = dir;
  doomed_params.recover.checkpoint_every = 1;
  doomed_params.recover.faults = &plan;
  {
    Placement doomed(nl);
    EXPECT_THROW((void)TimberWolfMC(nl, doomed_params).run(doomed),
                 recover::InjectedFault);
  }

  const auto latest = recover::find_latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value());
  const recover::FlowCheckpoint cp = recover::load_checkpoint(*latest);
  EXPECT_EQ(cp.phase, recover::FlowPhase::kParallelStage1);

  for (const int resume_workers : {0, 1, 8}) {
    FlowParams rp = testing::fast_flow(57);
    rp.stage1_workers = resume_workers;
    Placement p(nl);
    const FlowResult r = TimberWolfMC(nl, rp).resume(p, cp);
    EXPECT_EQ(r.outcome, recover::RunOutcome::kResumed);
    EXPECT_EQ(testing::fingerprint(p, r), reference)
        << "resume_workers=" << resume_workers;
  }
}

TEST(ParallelFlow, SerialCheckpointStaysOnSerialEngine) {
  // The inverse selection: a serial-engine checkpoint resumed under
  // stage1_workers > 0 must finish on the serial engine (and reproduce
  // the serial baseline).
  const Netlist nl = generate_circuit(tiny_circuit(21));
  const FlowParams base = testing::fast_flow(58);

  std::string reference;
  {
    Placement p(nl);
    const FlowResult r = TimberWolfMC(nl, base).run(p);
    reference = testing::fingerprint(p, r);
  }

  const std::string dir = ::testing::TempDir() + "/tw_ser_flow_resume";
  std::filesystem::remove_all(dir);
  recover::FaultPlan plan;
  plan.kill_at(recover::FaultSite::kStage1Step, 4);
  FlowParams doomed_params = base;
  doomed_params.recover.checkpoint_dir = dir;
  doomed_params.recover.checkpoint_every = 1;
  doomed_params.recover.faults = &plan;
  {
    Placement doomed(nl);
    EXPECT_THROW((void)TimberWolfMC(nl, doomed_params).run(doomed),
                 recover::InjectedFault);
  }

  const auto latest = recover::find_latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value());
  const recover::FlowCheckpoint cp = recover::load_checkpoint(*latest);
  EXPECT_EQ(cp.phase, recover::FlowPhase::kStage1);

  FlowParams rp = testing::fast_flow(58);
  rp.stage1_workers = 4;
  Placement p(nl);
  const FlowResult r = TimberWolfMC(nl, rp).resume(p, cp);
  EXPECT_EQ(r.outcome, recover::RunOutcome::kResumed);
  EXPECT_EQ(testing::fingerprint(p, r), reference);
}

TEST(ParallelStage1, SlotSeedsAreCollisionFree) {
  // Regression: the slot-seed mixer once folded step/batch/slot into the
  // raw SplitMix64 counter, where the small integers cancelled — >99% of
  // all slot streams collided and the anneal replayed the same proposal
  // sequences at every temperature.
  std::unordered_set<std::uint64_t> seen;
  for (int step = 0; step < 60; ++step)
    for (long long batch = 0; batch < 60; ++batch)
      for (int slot = 0; slot < 16; ++slot)
        EXPECT_TRUE(
            seen.insert(derive_slot_seed(12345, step, batch, slot)).second)
            << "collision at step=" << step << " batch=" << batch
            << " slot=" << slot;
  // Disjoint from the string-derived stream family for the same master.
  EXPECT_FALSE(seen.contains(derive_seed(12345, "p1-slots")));
}

}  // namespace
}  // namespace tw
