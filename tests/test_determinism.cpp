// Determinism regression: the full stochastic pipeline — stage 1 anneal,
// stage 2 refinement (which runs the global router every pass) — must be a
// pure function of (netlist, parameters, master seed). Two runs with the
// same seed must agree byte for byte on every piece of placement state and
// every reported metric; hidden nondeterminism (wall-clock seeding,
// iteration over address-keyed containers, uninitialized reads) breaks
// this immediately. The fingerprint itself lives in tests/fingerprint.hpp,
// shared with the crash-recovery suite (test_resume.cpp).
//
// Two runs of one build cannot see a change that moves an RNG draw, a
// fault poll or a checkpoint in both runs alike, so the Golden* cases pin
// what the anneal lifecycle leaves behind to digests recorded before the
// two stages and the two flows were put on one lifecycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "fingerprint.hpp"
#include "flow/multilevel.hpp"
#include "flow/timberwolf.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

using recover::FaultSite;
using testing::fast_flow;
using testing::fingerprint;

/// FNV-1a over 64-bit words; doubles go in by their bits.
class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void mix(long long v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(int v) { mix(static_cast<long long>(v)); }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(const Rect& r) {
    for (Coord c : {r.xlo, r.ylo, r.xhi, r.yhi}) mix(static_cast<long long>(c));
  }
  void mix_bytes(const std::string& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (const char ch : s) {
      h_ ^= static_cast<unsigned char>(ch);
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

void mix_stage1(Fnv& h, const Stage1Result& s) {
  h.mix(s.final_teic);
  h.mix(s.final_teil);
  h.mix(static_cast<long long>(s.residual_overlap));
  h.mix(s.overloaded_sites);
  h.mix(s.core);
  h.mix(s.t_infinity);
  h.mix(s.temperature_scale);
  h.mix(s.p2);
  h.mix(s.temperature_steps);
  h.mix(s.attempts);
  h.mix(s.accepts);
  h.mix(static_cast<int>(s.trace.size()));
  for (const TemperaturePoint& tp : s.trace) {
    h.mix(tp.t);
    h.mix(tp.avg_cost);
    h.mix(tp.acceptance_rate);
    h.mix(static_cast<long long>(tp.window_x));
  }
  h.mix(static_cast<int>(s.outcome));
}

void mix_stage2(Fnv& h, const Stage2Result& s) {
  h.mix(static_cast<int>(s.passes.size()));
  for (const RefinementPass& p : s.passes) {
    h.mix(p.teic);
    h.mix(p.teil);
    h.mix(static_cast<long long>(p.chip_area));
    h.mix(p.route_length);
    h.mix(p.route_overflow);
    h.mix(p.unrouted_nets);
    h.mix(static_cast<long long>(p.regions));
    h.mix(p.temperature_steps);
    h.mix(p.width_rule_violations);
    h.mix(p.router_counters.dijkstra_runs);
    h.mix(p.router_counters.nodes_popped);
    h.mix(p.router_counters.heap_pushes);
    h.mix(p.router_counters.interchange_trials);
  }
  h.mix(s.final_teic);
  h.mix(s.final_teil);
  h.mix(static_cast<long long>(s.final_chip_area));
  h.mix(s.final_chip_bbox);
  h.mix(s.final_core);
  h.mix(static_cast<int>(s.outcome));
}

/// What one instrumented run leaves behind besides its result: every
/// progress sample, every checkpoint file in write order, and the poll
/// count of every fault site (a FaultPlan with nothing armed counts).
struct Lifecycle {
  std::string dir;
  recover::FaultPlan polls;
  std::vector<FlowProgress> samples;

  explicit Lifecycle(const std::string& leaf)
      : dir(::testing::TempDir() + "/" + leaf) {
    std::filesystem::remove_all(dir);
  }

  void attach(FlowRecoverOptions& opts) {
    opts.checkpoint_dir = dir;
    opts.checkpoint_every = 1;
    opts.faults = &polls;
    opts.on_progress = [this](const FlowProgress& pg) {
      samples.push_back(pg);
    };
  }

  std::uint64_t progress_digest() const {
    Fnv h;
    h.mix(static_cast<int>(samples.size()));
    for (const FlowProgress& pg : samples) {
      h.mix(static_cast<int>(pg.phase));
      h.mix(pg.step);
      h.mix(pg.pass);
      h.mix(pg.t);
      h.mix(pg.cost);
    }
    return h.value();
  }

  /// FNV-1a of each checkpoint file, folded in write (= name) order.
  std::uint64_t checkpoint_digest() const {
    std::vector<std::string> files;
    for (const auto& e : std::filesystem::directory_iterator(dir))
      files.push_back(e.path().string());
    std::sort(files.begin(), files.end());
    Fnv h;
    h.mix(static_cast<int>(files.size()));
    for (const std::string& f : files) {
      std::ifstream in(f, std::ios::binary);
      Fnv file;
      file.mix_bytes(std::string(std::istreambuf_iterator<char>(in), {}));
      h.mix(file.value());
    }
    return h.value();
  }

  std::vector<std::int64_t> poll_counts() const {
    std::vector<std::int64_t> out;
    for (FaultSite s : {FaultSite::kStage1Step, FaultSite::kStage1Accept,
                        FaultSite::kStage2Pass, FaultSite::kStage2Step,
                        FaultSite::kStage2Accept, FaultSite::kRouteNet})
      out.push_back(polls.count(s));
    return out;
  }
};

struct Golden {
  std::uint64_t result;
  std::uint64_t progress;
  std::uint64_t checkpoints;
  std::vector<std::int64_t> polls;  ///< kStage1Step ... kRouteNet
};

void expect_golden(const Lifecycle& lc, std::uint64_t result,
                   const Golden& want) {
  EXPECT_EQ(result, want.result);
  EXPECT_EQ(lc.progress_digest(), want.progress);
  EXPECT_EQ(lc.checkpoint_digest(), want.checkpoints);
  EXPECT_EQ(lc.poll_counts(), want.polls);
}

std::uint64_t flow_digest(const Placement& p, const FlowResult& r) {
  Fnv h;
  h.mix_bytes(fingerprint(p, r));
  mix_stage1(h, r.stage1);
  mix_stage2(h, r.stage2);
  h.mix(r.stage1_teil);
  h.mix(static_cast<long long>(r.stage1_chip_area));
  h.mix(static_cast<int>(r.outcome));
  return h.value();
}

TEST(Determinism, SameSeedSameBytes) {
  const Netlist nl = generate_circuit(tiny_circuit(21));
  Placement p1(nl), p2(nl);
  const FlowResult r1 = TimberWolfMC(nl, fast_flow(77)).run(p1);
  const FlowResult r2 = TimberWolfMC(nl, fast_flow(77)).run(p2);
  EXPECT_EQ(fingerprint(p1, r1), fingerprint(p2, r2));
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Not a strict requirement of correctness, but if two different master
  // seeds yield bit-identical runs the seed is not actually being threaded
  // into the annealer.
  const Netlist nl = generate_circuit(tiny_circuit(21));
  Placement p1(nl), p2(nl);
  const FlowResult r1 = TimberWolfMC(nl, fast_flow(77)).run(p1);
  const FlowResult r2 = TimberWolfMC(nl, fast_flow(78)).run(p2);
  EXPECT_NE(fingerprint(p1, r1), fingerprint(p2, r2));
}

TEST(Determinism, Stage1EntryPointDeterministic) {
  const Netlist nl = generate_circuit(tiny_circuit(22));
  Placement p1(nl), p2(nl);
  TimberWolfMC f1(nl, fast_flow(5)), f2(nl, fast_flow(5));
  const Stage1Result r1 = f1.run_stage1(p1);
  const Stage1Result r2 = f2.run_stage1(p2);
  EXPECT_EQ(r1.final_teil, r2.final_teil);
  EXPECT_EQ(r1.temperature_steps, r2.temperature_steps);
  const auto n = static_cast<CellId>(nl.num_cells());
  for (CellId c = 0; c < n; ++c) {
    EXPECT_EQ(p1.state(c).center, p2.state(c).center) << "cell " << c;
    EXPECT_EQ(p1.state(c).orient, p2.state(c).orient) << "cell " << c;
  }
}

TEST(Determinism, CheckpointingDoesNotPerturbTheRun) {
  // Writing checkpoints must be a pure observer: a run with a checkpoint
  // directory configured produces the same bytes as one without.
  const Netlist nl = generate_circuit(tiny_circuit(21));
  Placement p1(nl), p2(nl);
  const FlowResult r1 = TimberWolfMC(nl, fast_flow(77)).run(p1);
  FlowParams params = fast_flow(77);
  params.recover.checkpoint_dir =
      ::testing::TempDir() + "/tw_ckpt_observer";
  params.recover.checkpoint_every = 2;
  const FlowResult r2 = TimberWolfMC(nl, params).run(p2);
  EXPECT_EQ(fingerprint(p1, r1), fingerprint(p2, r2));
  EXPECT_TRUE(recover::find_latest_checkpoint(params.recover.checkpoint_dir)
                  .has_value());
}

TEST(Determinism, GoldenFlowLifecycle) {
  // The full flow with a checkpoint at every step: stage 1, then three
  // route-and-refine passes. Circuit and seed reach every move kind of
  // both stages (pin group, loose pin, aspect change, instance change,
  // interchange with and without inversion).
  const Netlist nl = generate_circuit(tiny_circuit(21));
  Lifecycle lc("tw_golden_flow");
  FlowParams params = fast_flow(77);
  lc.attach(params.recover);
  Placement p(nl);
  const FlowResult r = TimberWolfMC(nl, params).run(p);
  ASSERT_EQ(r.outcome, recover::RunOutcome::kCompleted);
  expect_golden(lc, flow_digest(p, r),
                {14757872406706849923ull, 3770081944546223973ull,
                 5814058077822495915ull, {99, 34934, 3, 63, 1723, 90}});
}

TEST(Determinism, GoldenBudgetExpiresInStage1) {
  // A move budget that runs out mid-stage-1: the quench, the restore of
  // the best state seen, and no stage 2.
  const Netlist nl = generate_circuit(tiny_circuit(21));
  Lifecycle lc("tw_golden_budget");
  FlowParams params = fast_flow(77);
  lc.attach(params.recover);
  recover::RunBudget budget(2000, recover::RunBudget::kUnlimited);
  params.recover.budget = &budget;
  Placement p(nl);
  const FlowResult r = TimberWolfMC(nl, params).run(p);
  ASSERT_EQ(r.outcome, recover::RunOutcome::kBudgetExhausted);
  ASSERT_TRUE(r.stage2.passes.empty());
  expect_golden(lc, flow_digest(p, r),
                {3984288260747483295ull, 9107231044870521570ull,
                 13935444033481161754ull, {14, 6359, 0, 0, 0, 0}});
}

TEST(Determinism, GoldenMultilevelLifecycle) {
  // The multilevel flow: clustering, the coarse anneal, the probe and the
  // warm-started refinement, with a checkpoint at every refinement step.
  const Netlist nl = generate_circuit(tiny_circuit(21));
  Lifecycle lc("tw_golden_ml");
  Stage1Params coarse;
  coarse.attempts_per_cell = 8;
  coarse.p2_samples = 6;
  ClusterWarmStart warm({}, coarse);
  MultilevelParams params;
  params.refine.attempts_per_cell = 12;
  params.refine.p2_samples = 6;
  params.seed = 77;
  lc.attach(params.recover);
  Placement p(nl);
  const MultilevelResult r = MultilevelFlow(nl, warm, params).run(p);
  ASSERT_EQ(r.outcome, recover::RunOutcome::kCompleted);
  Fnv h;
  h.mix_bytes(fingerprint(p, r));
  mix_stage1(h, r.refine);
  mix_stage1(h, r.warm.coarse);
  h.mix(static_cast<int>(r.outcome));
  expect_golden(lc, h.value(),
                {11470448729187976779ull, 2799312562525134933ull,
                 3476139157482683919ull, {52, 13426, 0, 0, 0, 0}});
}

}  // namespace
}  // namespace tw
