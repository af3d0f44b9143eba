// Supervised replica pool (src/pool): best-feasible selection across
// replicas, fault-injected retry/resume with attempt histories matching
// the injected plan exactly, graceful degradation when replicas exhaust
// their retries, the typed all-failed error, the deterministic work-based
// watchdog, thread-count independence, and the WorkerCrew slot-claiming
// crew (pool replicas, router phase one). The >= 4-replica
// concurrent cases double as the ThreadSanitizer smoke tests (debug-tsan
// preset): every replica's fingerprint must equal its solo same-seed run,
// which only holds when the workers share no mutable state.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fingerprint.hpp"
#include "pool/executor.hpp"
#include "pool/report.hpp"
#include "pool/pool.hpp"
#include "pool/workers.hpp"
#include "recover/fault.hpp"
#include "util/rng.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

using pool::AttemptOutcome;
using pool::PoolError;
using pool::PoolParams;
using pool::PoolResult;
using pool::ReplicaOutcome;
using pool::ReplicaPool;
using pool::ReplicaReport;
using pool::WatchdogPolicy;
using recover::FaultPlan;
using recover::FaultSite;
using testing::fast_flow;

constexpr std::uint64_t kMaster = 2024;

std::string fresh_dir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/" + leaf;
  std::filesystem::remove_all(dir);
  return dir;
}

const Netlist& test_netlist() {
  static const Netlist nl = generate_circuit(tiny_circuit(21));
  return nl;
}

PoolParams base_params(int replicas, int threads) {
  PoolParams p;
  p.replicas = replicas;
  p.threads = threads;
  p.master_seed = kMaster;
  p.base = fast_flow(0);  // seed is ignored; the pool derives per-replica
  return p;
}

/// Fingerprint of the uninterrupted solo flow under `seed` — the ground
/// truth a pool replica on the same derived seed must reproduce.
std::uint64_t solo_fingerprint(std::uint64_t seed) {
  Placement p(test_netlist());
  const FlowResult r =
      TimberWolfMC(test_netlist(), fast_flow(seed)).run(p);
  return pool::result_fingerprint(p, r);
}

TEST(WatchdogPolicyTest, AllowanceBacksOffAndCaps) {
  WatchdogPolicy w;
  w.initial_moves = 100;
  w.backoff = 2.0;
  w.max_moves = 350;
  EXPECT_EQ(w.allowance(0), 100);
  EXPECT_EQ(w.allowance(1), 200);
  EXPECT_EQ(w.allowance(2), 350);  // 400 capped
  EXPECT_EQ(w.allowance(3), 350);

  WatchdogPolicy off;  // defaults: unlimited
  EXPECT_EQ(off.allowance(0), WatchdogPolicy::kUnlimited);
  EXPECT_EQ(off.allowance(7), WatchdogPolicy::kUnlimited);
}

TEST(SeedDerivation, AttemptZeroIsTheReplicaSeedAndRotationsAreFresh) {
  EXPECT_EQ(derive_attempt_seed(kMaster, 3, 0),
            derive_replica_seed(kMaster, 3));
  EXPECT_NE(derive_attempt_seed(kMaster, 3, 1),
            derive_attempt_seed(kMaster, 3, 0));
  EXPECT_NE(derive_attempt_seed(kMaster, 3, 1),
            derive_attempt_seed(kMaster, 3, 2));
  EXPECT_NE(derive_replica_seed(kMaster, 0), derive_replica_seed(kMaster, 1));
  EXPECT_NE(derive_replica_seed(kMaster, 0),
            derive_replica_seed(kMaster + 1, 0));
}

TEST(ReplicaPoolTest, BestFeasibleAcrossReplicas) {
  PoolParams params = base_params(/*replicas=*/4, /*threads=*/2);
  ReplicaPool rpool(test_netlist(), params);
  Placement placement(test_netlist());
  const PoolResult res = rpool.run(placement);

  ASSERT_EQ(res.replicas.size(), 4u);
  EXPECT_EQ(res.stats.succeeded, 4);
  EXPECT_EQ(res.stats.failed, 0);
  EXPECT_EQ(res.stats.attempts, 4);
  EXPECT_EQ(res.stats.retries, 0);

  // The winner is the lowest final TEIL among the (all feasible) replicas.
  ASSERT_GE(res.best, 0);
  for (const ReplicaReport& r : res.replicas) {
    EXPECT_EQ(r.outcome, ReplicaOutcome::kSucceeded);
    ASSERT_EQ(r.attempts.size(), 1u);
    EXPECT_EQ(r.attempts[0].outcome, AttemptOutcome::kCompleted);
    EXPECT_FALSE(r.attempts[0].resumed);
    EXPECT_EQ(r.attempts[0].seed, derive_replica_seed(kMaster, r.replica));
    EXPECT_GE(r.final_teil, res.best_report().final_teil);
  }
  EXPECT_DOUBLE_EQ(res.stats.teil_best, res.best_report().final_teil);
  EXPECT_LE(res.stats.teil_best, res.stats.teil_mean);
  EXPECT_LE(res.stats.teil_mean, res.stats.teil_worst);

  // run() applied the winning placement to the caller's object.
  EXPECT_EQ(pool::result_fingerprint(placement, res.best_report().flow),
            res.best_report().fingerprint);
}

// ThreadSanitizer smoke: >= 4 replicas actually concurrent, each replica's
// fingerprint equal to its solo same-seed run. Any cross-replica data race
// or shared-RNG leak breaks the equality (and trips TSan in debug-tsan).
TEST(ReplicaPoolTest, ConcurrentReplicasMatchSoloSameSeedRuns) {
  PoolParams params = base_params(/*replicas=*/4, /*threads=*/4);
  ReplicaPool rpool(test_netlist(), params);
  Placement placement(test_netlist());
  const PoolResult res = rpool.run(placement);

  ASSERT_EQ(res.stats.succeeded, 4);
  for (const ReplicaReport& r : res.replicas) {
    EXPECT_EQ(r.fingerprint,
              solo_fingerprint(derive_replica_seed(kMaster, r.replica)))
        << "replica " << r.replica
        << " diverged from its solo same-seed run";
  }
}

// The acceptance scenario: faults injected into k of N replicas, one of
// which fails every retry. The pool still returns the best among
// survivors, and each attempt history matches the injected plan exactly.
TEST(ReplicaPoolTest, InjectedFaultsIntoKofNReplicasDegradeGracefully) {
  const std::string root = fresh_dir("tw_pool_kofn");

  // Replica 0 dies at stage-1 step polls 0, 1 and 2 — one kill per
  // attempt (poll counts span the replica's whole supervised lifetime),
  // so it fails every retry and exhausts max_attempts = 3.
  FaultPlan doomed;
  doomed.kill_at(FaultSite::kStage1Step, 0);
  doomed.kill_at(FaultSite::kStage1Step, 1);
  doomed.kill_at(FaultSite::kStage1Step, 2);
  // Replica 1 dies once mid-schedule, then its retry resumes from the
  // surviving checkpoint and completes.
  FaultPlan flaky;
  flaky.kill_at(FaultSite::kStage1Step, 4);

  PoolParams params = base_params(/*replicas=*/4, /*threads=*/2);
  params.max_attempts = 3;
  params.checkpoint_root = root;
  params.checkpoint_every = 1;
  params.fault_for = [&](int replica) -> recover::FaultInjector* {
    if (replica == 0) return &doomed;
    if (replica == 1) return &flaky;
    return nullptr;
  };

  ReplicaPool rpool(test_netlist(), params);
  Placement placement(test_netlist());
  const PoolResult res = rpool.run(placement);

  EXPECT_EQ(res.stats.succeeded, 3);
  EXPECT_EQ(res.stats.failed, 1);
  EXPECT_EQ(res.stats.attempts, 3 + 2 + 1 + 1);
  EXPECT_EQ(res.stats.retries, 2 + 1);

  // Replica 0: three attempts, every one fault-killed; the first is cold,
  // the retries resume from the checkpoint the previous attempt left.
  const ReplicaReport& r0 = res.replicas[0];
  EXPECT_EQ(r0.outcome, ReplicaOutcome::kFailed);
  ASSERT_EQ(r0.attempts.size(), 3u);
  for (int a = 0; a < 3; ++a) {
    EXPECT_EQ(r0.attempts[a].attempt, a);
    EXPECT_EQ(r0.attempts[a].outcome, AttemptOutcome::kFaultKilled);
    EXPECT_EQ(r0.attempts[a].resumed, a > 0);
  }
  EXPECT_EQ(r0.attempts[0].seed, derive_replica_seed(kMaster, 0));

  // Replica 1: cold kill, resumed completion — and the resumed run is
  // byte-identical to the uninterrupted solo run on the same seed.
  const ReplicaReport& r1 = res.replicas[1];
  EXPECT_EQ(r1.outcome, ReplicaOutcome::kSucceeded);
  ASSERT_EQ(r1.attempts.size(), 2u);
  EXPECT_EQ(r1.attempts[0].outcome, AttemptOutcome::kFaultKilled);
  EXPECT_FALSE(r1.attempts[0].resumed);
  EXPECT_EQ(r1.attempts[1].outcome, AttemptOutcome::kCompleted);
  EXPECT_TRUE(r1.attempts[1].resumed);
  EXPECT_EQ(r1.attempts[1].seed, derive_replica_seed(kMaster, 1));
  EXPECT_EQ(r1.fingerprint,
            solo_fingerprint(derive_replica_seed(kMaster, 1)));

  // Untouched replicas ran clean.
  for (int i = 2; i < 4; ++i) {
    EXPECT_EQ(res.replicas[i].outcome, ReplicaOutcome::kSucceeded);
    EXPECT_EQ(res.replicas[i].attempts.size(), 1u);
  }

  // Best-feasible selection considers only the three survivors.
  ASSERT_GE(res.best, 1);
  for (int i = 1; i < 4; ++i)
    EXPECT_GE(res.replicas[i].final_teil, res.best_report().final_teil);
}

// The pool takes the executor's checkpoint quota and disk-fault seam: a
// replica whose checkpoint write fails retries with checkpoints off and
// still finishes.
TEST(ReplicaPoolTest, CheckpointWriteFailuresDegradeToCheckpointOff) {
  recover::DiskFaultPlan disk;
  disk.fail_at(recover::DiskSite::kCheckpointWrite, 0);
  PoolParams params = base_params(/*replicas=*/2, /*threads=*/1);
  params.checkpoint_root = fresh_dir("tw_pool_diskfault");
  params.checkpoint_every = 1;
  params.disk_faults = &disk;
  Placement placement(test_netlist());
  PoolResult res = ReplicaPool(test_netlist(), params).run(placement);

  // One thread runs replica 0 first, so it takes the failed write.
  const ReplicaReport& r0 = res.replicas[0];
  EXPECT_EQ(r0.outcome, ReplicaOutcome::kSucceeded);
  EXPECT_TRUE(r0.checkpoint_off);
  ASSERT_EQ(r0.attempts.size(), 2u);
  EXPECT_EQ(r0.attempts[0].outcome, AttemptOutcome::kCheckpointError);
  EXPECT_TRUE(r0.attempts[1].checkpoints_disabled);
  EXPECT_EQ(res.replicas[1].attempts.size(), 1u);
  EXPECT_FALSE(res.replicas[1].checkpoint_off);

  // A quota no checkpoint fits degrades every replica the same way.
  params.disk_faults = nullptr;
  params.checkpoint_quota_bytes = 1;
  params.checkpoint_root = fresh_dir("tw_pool_quota");
  res = ReplicaPool(test_netlist(), params).run(placement);
  for (const ReplicaReport& r : res.replicas) {
    EXPECT_EQ(r.outcome, ReplicaOutcome::kSucceeded);
    EXPECT_TRUE(r.checkpoint_off);
    ASSERT_EQ(r.attempts.size(), 2u);
    EXPECT_EQ(r.attempts[0].outcome, AttemptOutcome::kCheckpointError);
  }
}

TEST(ReplicaPoolTest, AllReplicasFailingIsATypedError) {
  const std::string root = fresh_dir("tw_pool_allfail");

  std::vector<FaultPlan> plans(2);
  for (FaultPlan& plan : plans) {
    plan.kill_at(FaultSite::kStage1Step, 0);
    plan.kill_at(FaultSite::kStage1Step, 1);
    plan.kill_at(FaultSite::kStage1Step, 2);
  }

  PoolParams params = base_params(/*replicas=*/2, /*threads=*/2);
  params.max_attempts = 3;
  params.checkpoint_root = root;
  params.checkpoint_every = 1;
  params.fault_for = [&](int replica) -> recover::FaultInjector* {
    return &plans[static_cast<std::size_t>(replica)];
  };

  ReplicaPool rpool(test_netlist(), params);
  Placement placement(test_netlist());
  const std::vector<CellState> before = [&] {
    std::vector<CellState> s;
    const auto n = static_cast<CellId>(test_netlist().num_cells());
    for (CellId c = 0; c < n; ++c) s.push_back(placement.state(c));
    return s;
  }();

  try {
    (void)rpool.run(placement);
    FAIL() << "expected PoolError";
  } catch (const PoolError& e) {
    ASSERT_EQ(e.replicas().size(), 2u);
    for (const ReplicaReport& r : e.replicas()) {
      EXPECT_EQ(r.outcome, ReplicaOutcome::kFailed);
      ASSERT_EQ(r.attempts.size(), 3u);
      for (const auto& a : r.attempts)
        EXPECT_EQ(a.outcome, AttemptOutcome::kFaultKilled);
    }
  }

  // The caller's placement must be untouched on total failure.
  const auto n = static_cast<CellId>(test_netlist().num_cells());
  for (CellId c = 0; c < n; ++c) {
    EXPECT_EQ(placement.state(c).center.x, before[c].center.x);
    EXPECT_EQ(placement.state(c).center.y, before[c].center.y);
    EXPECT_EQ(placement.state(c).orient, before[c].orient);
  }
}

TEST(ReplicaPoolTest, WatchdogKillsStuckAttemptAndBackoffRecovers) {
  const std::string root = fresh_dir("tw_pool_watchdog");

  PoolParams params = base_params(/*replicas=*/1, /*threads=*/1);
  params.max_attempts = 3;
  params.checkpoint_root = root;
  params.checkpoint_every = 1;
  // First attempt's allowance is far below a full run; the retry's
  // thousandfold backoff admits the remaining schedule.
  params.watchdog.initial_moves = 200;
  params.watchdog.backoff = 1000.0;

  ReplicaPool rpool(test_netlist(), params);
  Placement placement(test_netlist());
  const PoolResult res = rpool.run(placement);

  const ReplicaReport& r = res.replicas[0];
  EXPECT_EQ(r.outcome, ReplicaOutcome::kSucceeded);
  ASSERT_EQ(r.attempts.size(), 2u);
  EXPECT_EQ(r.attempts[0].outcome, AttemptOutcome::kWatchdogExpired);
  EXPECT_EQ(r.attempts[0].watchdog_allowance, 200);
  EXPECT_GT(r.attempts[0].moves, 200);  // the kill fired past the allowance
  EXPECT_EQ(r.attempts[1].outcome, AttemptOutcome::kCompleted);
  EXPECT_TRUE(r.attempts[1].resumed);
  EXPECT_EQ(r.attempts[1].watchdog_allowance, 200 * 1000);
}

TEST(ReplicaPoolTest, CancelledPoolReturnsBestEffortResults) {
  PoolParams params = base_params(/*replicas=*/2, /*threads=*/2);
  ReplicaPool rpool(test_netlist(), params);
  // Cancel before the run: every attempt observes the flag at its first
  // poll boundary and winds down gracefully — a usable, validated result,
  // not a failure.
  rpool.request_cancel();
  Placement placement(test_netlist());
  const PoolResult res = rpool.run(placement);

  EXPECT_EQ(res.stats.succeeded, 2);
  for (const ReplicaReport& r : res.replicas) {
    EXPECT_EQ(r.outcome, ReplicaOutcome::kSucceeded);
    ASSERT_EQ(r.attempts.size(), 1u);
    EXPECT_EQ(r.attempts[0].outcome, AttemptOutcome::kCancelled);
  }
}

TEST(ReplicaPoolTest, ResultsAreIndependentOfThreadCount) {
  const auto run_with = [&](int threads, const std::string& leaf) {
    FaultPlan flaky;
    flaky.kill_at(FaultSite::kStage1Step, 3);
    PoolParams params = base_params(/*replicas=*/4, threads);
    params.checkpoint_root = fresh_dir(leaf);
    params.checkpoint_every = 1;
    params.fault_for = [&](int replica) -> recover::FaultInjector* {
      return replica == 1 ? &flaky : nullptr;
    };
    ReplicaPool rpool(test_netlist(), params);
    Placement placement(test_netlist());
    return rpool.run(placement);
  };

  const PoolResult serial = run_with(1, "tw_pool_t1");
  const PoolResult threaded = run_with(4, "tw_pool_t4");

  EXPECT_EQ(serial.best, threaded.best);
  ASSERT_EQ(serial.replicas.size(), threaded.replicas.size());
  for (std::size_t i = 0; i < serial.replicas.size(); ++i) {
    const ReplicaReport& a = serial.replicas[i];
    const ReplicaReport& b = threaded.replicas[i];
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    ASSERT_EQ(a.attempts.size(), b.attempts.size());
    for (std::size_t k = 0; k < a.attempts.size(); ++k) {
      EXPECT_EQ(a.attempts[k].outcome, b.attempts[k].outcome);
      EXPECT_EQ(a.attempts[k].seed, b.attempts[k].seed);
      EXPECT_EQ(a.attempts[k].resumed, b.attempts[k].resumed);
    }
  }
}

TEST(ReplicaPoolTest, PoolReportRendersOutcomesAndHistories) {
  FaultPlan flaky;
  flaky.kill_at(FaultSite::kStage1Step, 2);
  PoolParams params = base_params(/*replicas=*/2, /*threads=*/1);
  params.checkpoint_root = fresh_dir("tw_pool_report");
  params.checkpoint_every = 1;
  params.fault_for = [&](int replica) -> recover::FaultInjector* {
    return replica == 0 ? &flaky : nullptr;
  };

  ReplicaPool rpool(test_netlist(), params);
  Placement placement(test_netlist());
  const PoolResult res = rpool.run(placement);

  const std::string report = pool_report(res);
  EXPECT_NE(report.find("Replica pool report"), std::string::npos);
  EXPECT_NE(report.find("succeeded"), std::string::npos);
  EXPECT_NE(report.find("TEIL spread"), std::string::npos);
  // The retried replica's attempt history is spelled out.
  EXPECT_NE(report.find("replica 0 attempt history"), std::string::npos);
  EXPECT_NE(report.find("fault_killed"), std::string::npos);
}

// ---------------------------------------------------------------- executor

/// Collects PoolExecutor completions (worker threads) in arrival order.
struct DoneLog {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<pool::ExecutorResult> done;

  pool::PoolExecutor::Hooks hooks() {
    pool::PoolExecutor::Hooks h;
    h.on_done = [this](pool::ExecutorResult r) {
      {
        std::lock_guard<std::mutex> lock(mu);
        done.push_back(std::move(r));
      }
      cv.notify_all();
    };
    return h;
  }

  /// Blocks until `n` jobs completed; returns their ids in finish order.
  std::vector<std::uint64_t> wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done.size() >= n; });
    std::vector<std::uint64_t> order;
    for (const pool::ExecutorResult& r : done) order.push_back(r.job);
    return order;
  }

  pool::ExecutorResult result_for(std::uint64_t job) {
    std::lock_guard<std::mutex> lock(mu);
    for (const pool::ExecutorResult& r : done)
      if (r.job == job) return r;
    ADD_FAILURE() << "no result for job " << job;
    return {};
  }
};

pool::ExecutorJob executor_job(std::uint64_t id, std::uint64_t seed,
                               int priority) {
  pool::ExecutorJob j;
  j.job = id;
  j.nl = &test_netlist();
  j.base = fast_flow(0);
  j.master_seed = seed;
  j.max_attempts = 2;
  j.priority = priority;
  return j;
}

/// Polls until the executor runs >= 1 task of priority class `prio`.
void wait_until_running(pool::PoolExecutor& ex, int prio) {
  for (int i = 0; i < 5000; ++i) {
    if (ex.stats().running[static_cast<std::size_t>(prio)] >= 1) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "no priority-" << prio << " task ever ran";
}

TEST(PoolExecutorTest, QueueDrainsInPriorityOrderUrgentOvertakesBatch) {
  DoneLog log;
  pool::PoolExecutor ex(/*threads=*/1, log.hooks());

  // Job 1 occupies the single worker. It takes no checkpoints, so it can
  // NOT be preempted — the later jobs genuinely queue behind it. Slowed
  // ~5x past the fast parameterization so it is still annealing when
  // they arrive.
  pool::ExecutorJob pin = executor_job(1, 100, /*priority=*/1);
  pin.base.stage1.attempts_per_cell = 60;
  ex.submit(pin);
  wait_until_running(ex, 1);

  // A batch job arrives first, an urgent one second.
  ex.submit(executor_job(2, 200, /*priority=*/0));
  ex.submit(executor_job(3, 300, /*priority=*/2));
  const pool::PoolExecutor::Stats st = ex.stats();
  EXPECT_EQ(st.queued[0], 1);
  EXPECT_EQ(st.queued[2], 1);
  EXPECT_EQ(st.preempted, 0) << "an unparkable job must never be preempted";

  const std::vector<std::uint64_t> order = log.wait_for(3);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 3, 2}))
      << "the urgent job must overtake the earlier-queued batch job";
  ex.shutdown();
}

TEST(PoolExecutorTest, SubmitAfterShutdownFailsEveryReplica) {
  // A job submitted after shutdown() is never silently dropped: it
  // completes before submit() returns, with every replica failed.
  DoneLog log;
  pool::PoolExecutor ex(/*threads=*/1, log.hooks());
  ex.shutdown();
  pool::ExecutorJob late = executor_job(7, 700, /*priority=*/1);
  late.replicas = 3;
  ex.submit(late);
  {
    const std::lock_guard<std::mutex> lock(log.mu);
    ASSERT_EQ(log.done.size(), 1u) << "on_done must fire inside submit()";
  }
  const pool::ExecutorResult r = log.result_for(7);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.stats.succeeded, 0);
  EXPECT_EQ(r.stats.failed, 3);
  EXPECT_EQ(r.stats.attempts, 3);
  ASSERT_EQ(r.replicas.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const pool::ReplicaReport& rep = r.replicas[static_cast<std::size_t>(i)];
    EXPECT_EQ(rep.replica, i);
    EXPECT_EQ(rep.outcome, pool::ReplicaOutcome::kFailed);
    ASSERT_EQ(rep.attempts.size(), 1u);
    EXPECT_EQ(rep.attempts[0].outcome, pool::AttemptOutcome::kError);
    EXPECT_EQ(rep.attempts[0].error, "executor is shut down");
  }
}

// The preemption acceptance test at the executor layer: an urgent arrival
// on a saturated pool parks the running batch job at its next checkpoint
// save, runs, and the parked job then resumes from that checkpoint — with
// a final fingerprint byte-identical to a never-preempted run of the same
// job. Scheduling pressure must be invisible in the bytes.
TEST(PoolExecutorTest, AutoPreemptionResumesByteIdentically) {
  const auto victim_job = [&](const std::string& leaf) {
    pool::ExecutorJob j = executor_job(1, kMaster, /*priority=*/0);
    j.base.stage1.attempts_per_cell = 60;
    j.base.stage2.attempts_per_cell = 40;
    j.checkpoint_root = fresh_dir(leaf);
    j.checkpoint_every = 1;
    return j;
  };

  // Ground truth: the same job on an idle executor.
  std::uint64_t clean_fp = 0;
  {
    DoneLog log;
    pool::PoolExecutor ex(/*threads=*/1, log.hooks());
    ex.submit(victim_job("tw_exec_clean"));
    (void)log.wait_for(1);
    const pool::ExecutorResult r = log.result_for(1);
    ASSERT_TRUE(r.ok());
    clean_fp = r.best_report().fingerprint;
    ASSERT_NE(clean_fp, 0u);
    ex.shutdown();
  }

  DoneLog log;
  pool::PoolExecutor ex(/*threads=*/1, log.hooks());
  ex.submit(victim_job("tw_exec_preempt"));
  wait_until_running(ex, 0);

  // The urgent submission finds the only worker busy with a lower class:
  // submit() preempts the batch job automatically.
  ex.submit(executor_job(2, 777, /*priority=*/2));
  (void)log.wait_for(2);

  const pool::PoolExecutor::Stats st = ex.stats();
  EXPECT_GE(st.preempted, 1) << "the urgent job never displaced the batch";
  EXPECT_GE(st.resumed, 1) << "the parked task was never claimed again";

  const pool::ExecutorResult urgent = log.result_for(2);
  ASSERT_TRUE(urgent.ok());
  const pool::ExecutorResult batch = log.result_for(1);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch.best_report().fingerprint, clean_fp)
      << "preempted-then-resumed run diverged from the uninterrupted one";
  ex.shutdown();
}

// Both runners hold one ReplicaSpec and run each replica through
// run_replica: the same spec through ReplicaPool and through PoolExecutor
// must give the same replicas, attempt by attempt, and the same rollup.
TEST(PoolExecutorTest, SameSpecMatchesReplicaPool) {
  pool::ReplicaSpec spec;
  spec.base = fast_flow(0);
  spec.master_seed = kMaster;
  spec.budget_moves = 3000;  // well short of a full stage-1 schedule
  spec.checkpoint_every = 1;

  PoolParams pp;
  static_cast<pool::ReplicaSpec&>(pp) = spec;
  pp.replicas = 3;
  pp.threads = 2;
  pp.checkpoint_root = fresh_dir("tw_same_spec_pool");
  Placement placement(test_netlist());
  const PoolResult pooled = ReplicaPool(test_netlist(), pp).run(placement);

  pool::ExecutorJob ej;
  static_cast<pool::ReplicaSpec&>(ej) = spec;
  ej.job = 1;
  ej.nl = &test_netlist();
  ej.replicas = 3;
  ej.checkpoint_root = fresh_dir("tw_same_spec_exec");
  DoneLog log;
  pool::PoolExecutor ex(/*threads=*/2, log.hooks());
  ex.submit(ej);
  (void)log.wait_for(1);
  const pool::ExecutorResult executed = log.result_for(1);
  ex.shutdown();

  ASSERT_EQ(pooled.replicas.size(), 3u);
  ASSERT_EQ(executed.replicas.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const ReplicaReport& a = pooled.replicas[i];
    const ReplicaReport& b = executed.replicas[i];
    EXPECT_EQ(a.fingerprint, b.fingerprint) << "replica " << i;
    ASSERT_EQ(a.attempts.size(), b.attempts.size()) << "replica " << i;
    for (std::size_t k = 0; k < a.attempts.size(); ++k) {
      EXPECT_EQ(a.attempts[k].outcome, AttemptOutcome::kBudgetExhausted);
      EXPECT_EQ(a.attempts[k].seed, b.attempts[k].seed);
      EXPECT_EQ(a.attempts[k].outcome, b.attempts[k].outcome);
      EXPECT_EQ(a.attempts[k].moves, b.attempts[k].moves);
      EXPECT_EQ(a.attempts[k].steps, b.attempts[k].steps);
      EXPECT_EQ(a.attempts[k].resumed, b.attempts[k].resumed);
    }
  }
  ASSERT_TRUE(executed.ok());
  EXPECT_EQ(pooled.best, executed.best);
  EXPECT_EQ(pooled.best_report().final_teil,
            executed.best_report().final_teil);
  EXPECT_EQ(pooled.best_report().final_chip_area,
            executed.best_report().final_chip_area);
  EXPECT_TRUE(pooled.stats == executed.stats);
  EXPECT_EQ(pooled.stats.attempts, 3);
}

// --- WorkerCrew: the in-run parallel map (src/pool/workers.*) -----------

TEST(WorkerCrew, RunsEverySlotExactlyOnce) {
  WorkerCrew crew(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  std::atomic<int> worker_seen{0};
  crew.run(257, [&](int worker, int slot) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 4);
    worker_seen.fetch_or(1 << worker);
    hits[static_cast<std::size_t>(slot)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Batch after batch reuses the parked threads.
  crew.run(3, [&](int, int slot) { hits[static_cast<std::size_t>(slot)].fetch_add(1); });
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(hits[s].load(), 2);
}

TEST(WorkerCrew, SerialDegenerateFormUsesCallerOnly) {
  WorkerCrew crew(1);
  std::vector<int> order;
  crew.run(5, [&](int worker, int slot) {
    EXPECT_EQ(worker, 0);
    order.push_back(slot);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(WorkerCrew, PropagatesFirstException) {
  WorkerCrew crew(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      crew.run(64,
               [&](int, int slot) {
                 executed.fetch_add(1);
                 if (slot == 7) throw std::runtime_error("slot 7 failed");
               }),
      std::runtime_error);
  // The crew must be reusable after an error drained the batch.
  std::atomic<int> after{0};
  crew.run(8, [&](int, int) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

TEST(WorkerCrew, HostWorkersIsAtLeastOne) { EXPECT_GE(host_workers(), 1); }

}  // namespace
}  // namespace tw
