// PoolExecutor: a long-lived, multi-job replica executor.
//
// ReplicaPool (pool.hpp) runs ONE job's replicas to completion and tears
// its workers down. A server cannot afford that shape: jobs arrive and
// finish continuously, and all of them must share one fixed worker pool
// so a burst of submissions degrades into queueing, never into unbounded
// thread creation. PoolExecutor keeps the pool's supervision semantics —
// every replica runs through run_replica (watchdog, capped retries,
// checkpoint resume, typed attempt records) — but decouples the worker
// threads from job lifetime:
//
//   * submit() enqueues one task per replica and returns immediately;
//     tasks from different jobs interleave FIFO on the shared workers, so
//     a large job cannot starve the queue behind it of all progress.
//   * per-job cooperative cancellation (cancel()) flips the job's cancel
//     flag; running replicas wind down gracefully through the existing
//     RunBudget cancel path and still report their best feasible state.
//   * completion and streaming progress surface through callbacks that
//     fire on worker threads — the receiver owns its synchronization
//     (the placement service pushes into a mutex-guarded event queue and
//     wakes its poll loop through a pipe).
//
// Results are deterministic per job: each replica is a pure function of
// (netlist, spec, replica id) — the same function ReplicaPool runs — so
// neither the worker count nor the interleaving with other jobs changes
// any job's outcome.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "pool/replica.hpp"

namespace tw::pool {

/// Priority classes an executor job may carry. Kept as a small integer
/// band here (the wire protocol owns the user-facing enum): higher runs
/// first, and an arriving higher-priority job may checkpoint-preempt a
/// running lower-priority one when every worker is busy.
inline constexpr int kNumPriorities = 3;

/// One job's execution request: the replica spec its replicas share
/// (replica.hpp), plus the job's identity and scheduling. `nl` is
/// non-owning and must stay alive until the job's on_done callback has
/// returned.
struct ExecutorJob : ReplicaSpec {
  std::uint64_t job = 0;      ///< caller's id, threaded through callbacks
  const Netlist* nl = nullptr;
  int replicas = 1;
  /// Scheduling class, clamped into [0, kNumPriorities): 0 = batch,
  /// 1 = normal, 2 = urgent. Affects *when* the job runs, never what it
  /// computes — results stay byte-identical across priorities.
  int priority = 1;
  /// Crash re-adoption (see ReplicaSignals::adopt): first attempts
  /// resume from surviving checkpoints instead of starting cold.
  bool adopt_existing = false;
};

/// Terminal state of one executed job: its rolled-up replicas.
struct ExecutorResult : PoolResult {
  std::uint64_t job = 0;
};

class PoolExecutor {
 public:
  /// Both callbacks fire on executor worker threads, possibly
  /// concurrently for different jobs; they must not throw and must do
  /// their own locking. on_progress is per replica and high-frequency;
  /// on_done fires exactly once per submitted job (even for jobs whose
  /// every replica failed, and for jobs drained by shutdown).
  struct Hooks {
    std::function<void(ExecutorResult)> on_done;
    std::function<void(std::uint64_t job, int replica, const FlowProgress&)>
        on_progress;
  };

  /// Starts `threads` workers (>= 1) immediately.
  PoolExecutor(int threads, Hooks hooks);
  ~PoolExecutor();  ///< shutdown() + join

  PoolExecutor(const PoolExecutor&) = delete;
  PoolExecutor& operator=(const PoolExecutor&) = delete;

  /// Enqueues the job's replicas. Jobs submitted after shutdown() are
  /// completed immediately with every replica failed (outcome recorded as
  /// an error attempt), never silently dropped.
  ///
  /// When every worker is busy, the submission checkpoint-preempts the
  /// lowest-priority running job below its own priority: that job's
  /// running replicas park at their next checkpoint-write boundary (the
  /// checkpoint is saved first, so zero work is lost) and re-enter the
  /// queue, to resume byte-identically when a worker frees up. Jobs that
  /// take no checkpoints, or replicas that finish before reaching a
  /// boundary, simply complete.
  void submit(ExecutorJob job);

  /// Cooperative per-job cancellation: running replicas wind down to
  /// their best feasible state (still reported through on_done); queued
  /// replicas start, observe the flag at their first poll boundary, and
  /// wind down immediately. No-op for unknown/finished jobs.
  void cancel(std::uint64_t job);

  /// Stops accepting work, cancels every in-flight job, drains the task
  /// queue (each job still gets its on_done) and joins the workers.
  /// Idempotent.
  void shutdown();

  /// Scheduling observability for load-shedding decisions: queue depth
  /// and running tasks per priority class, plus cumulative counts of
  /// preempted task parkings and resumes. Counts *tasks* (replicas), not
  /// jobs.
  struct Stats {
    std::array<int, kNumPriorities> queued{};
    std::array<int, kNumPriorities> running{};
    std::int64_t preempted = 0;  ///< tasks parked at a checkpoint so far
    std::int64_t resumed = 0;    ///< parked tasks claimed again so far
  };
  Stats stats() const;

 private:
  struct Shared;  // mutex-guarded queue/jobs state, defined in executor.cpp

  std::shared_ptr<Shared> shared_;
};

}  // namespace tw::pool
