// ReplicaPool: supervised fault-tolerant multi-start annealing.
//
// TimberWolfMC is a randomized algorithm — independent same-netlist runs
// under different seeds land on a spread of final costs, so production use
// means running N replicas and keeping the best (the parallel multi-start
// structure PARSAC applies to SoC floorplanning). The pool runs N
// independent flows as the slots of one WorkerCrew (src/pool/workers.hpp),
// each replica on its own derive_replica_seed(master, id) stream with its
// own per-attempt RunBudget and checkpoint directory, and supervises them:
//
//   * a deterministic work-based watchdog (move allowances checked at the
//     flow's poll boundaries — never wall-clock) kills stuck replicas;
//   * killed or crashed replicas are retried under a capped, seed-rotating
//     backoff policy, resuming from a surviving valid checkpoint when one
//     exists and cold-restarting on a fresh derived seed otherwise;
//   * replicas that exhaust their retries are recorded, not fatal: any
//     surviving subset still yields the best feasible placement, and only
//     the all-replicas-failed case raises a typed PoolError — never a
//     crash.
//
// Selection is best-feasible: a replica's result must pass
// validate_placement to qualify, then the lowest final TEIL wins (chip
// area, then replica id break ties deterministically). Because replicas
// share no mutable state, the report — per-replica attempt histories,
// fingerprints, spread statistics — is a deterministic function of
// (netlist, params, master seed) regardless of thread interleaving.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "pool/replica.hpp"

namespace tw::pool {

/// One pool run: the replica spec every replica shares (replica.hpp),
/// plus how many replicas, on how many threads, under which faults.
struct PoolParams : ReplicaSpec {
  /// N: independent replicas of the flow (>= 1).
  int replicas = 4;
  /// Crew workers, the calling thread included; 0 sizes the crew to
  /// min(replicas, hardware concurrency). The count never changes any
  /// result, only how many replicas make progress at once.
  int threads = 0;
  /// Deterministic fault injection for the supervisor tests: called once
  /// per replica (from the crew thread that runs it) before its first
  /// attempt; may return nullptr. The injector is polled across all of
  /// the replica's attempts.
  std::function<recover::FaultInjector*(int replica)> fault_for;
};

/// Thrown by ReplicaPool::run only when *every* replica failed; carries
/// the full per-replica reports so the caller can see each attempt
/// history.
class PoolError : public std::runtime_error {
 public:
  PoolError(const std::string& what, std::vector<ReplicaReport> replicas);

  const std::vector<ReplicaReport>& replicas() const { return replicas_; }

 private:
  std::vector<ReplicaReport> replicas_;
};

class ReplicaPool {
 public:
  ReplicaPool(const Netlist& nl, PoolParams params);

  /// Runs every replica to a terminal state, blocks until done, applies
  /// the best surviving placement to `placement` (which must be built on
  /// the same netlist) and returns the full report. Throws PoolError when
  /// every replica failed; `placement` is untouched in that case.
  PoolResult run(Placement& placement);

  /// Cooperative cancellation from any thread: running attempts wind down
  /// gracefully to their best feasible state (outcome kCancelled, still
  /// eligible for selection), no retries or new attempts start.
  void request_cancel() { cancel_.store(true, std::memory_order_relaxed); }

 private:
  const Netlist& nl_;
  PoolParams params_;
  std::atomic<bool> cancel_{false};
};

}  // namespace tw::pool
