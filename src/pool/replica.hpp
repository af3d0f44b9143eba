// One supervised replica of the multi-start annealing pool (src/pool).
//
// A replica is a single TimberWolfMC flow on its own derived seed stream,
// run under supervision: a deterministic work-based watchdog kills it if
// it burns through its move allowance without finishing, injected faults
// (recover::FaultPlan) kill it exactly like a crash would, and every
// failure is retried — resuming from the newest valid checkpoint when one
// survives, cold-restarting on a fresh rotated seed otherwise — up to a
// capped attempt count. The full attempt history is recorded, so a test
// can assert the supervisor walked exactly the transitions its fault plan
// scripted.
//
// Everything here is single-threaded and deterministic; ReplicaPool
// (pool.hpp) runs replicas as the slots of a WorkerCrew and PoolExecutor
// (executor.hpp) on its worker threads, which is safe exactly because a
// replica shares no mutable state with its siblings. Both runners hold a
// ReplicaSpec, run each replica through run_replica and roll the reports
// up with roll_up, so the settings, the selection policy and the
// statistics live here once.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "flow/timberwolf.hpp"
#include "recover/checkpoint.hpp"

namespace tw::pool {

/// Deterministic stuck-replica detection: instead of a wall-clock timeout
/// (banned — it would make supervision nondeterministic), an attempt gets
/// a *work* allowance in attempted moves, checked at the flow's existing
/// poll boundaries. Exceeding it kills the attempt with WatchdogExpired;
/// the retry gets a `backoff`-times larger allowance, capped at
/// `max_moves` — the work-budget analog of timeout-with-backoff.
struct WatchdogPolicy {
  static constexpr std::int64_t kUnlimited = -1;

  /// Move allowance of the first attempt (kUnlimited disables the
  /// watchdog entirely).
  std::int64_t initial_moves = kUnlimited;
  /// Allowance growth per retry (>= 1).
  double backoff = 2.0;
  /// Hard cap on any attempt's allowance (kUnlimited: no cap).
  std::int64_t max_moves = kUnlimited;

  /// The allowance attempt `attempt` (zero-based) runs under.
  std::int64_t allowance(int attempt) const;
};

/// Thrown out of the flow (from a poll boundary) when an attempt exceeds
/// its watchdog allowance. Deliberately not caught inside the flow: it
/// unwinds like a crash and the supervisor's retry logic takes over.
class WatchdogExpired : public std::runtime_error {
 public:
  WatchdogExpired(int replica, int attempt, std::int64_t moves,
                  std::int64_t allowance);

  std::int64_t moves() const { return moves_; }
  std::int64_t allowance() const { return allowance_; }

 private:
  std::int64_t moves_;
  std::int64_t allowance_;
};

/// How one attempt of a replica ended.
enum class AttemptOutcome : std::uint8_t {
  kCompleted = 0,     ///< flow finished its schedule; placement validated
  kBudgetExhausted,   ///< per-attempt RunBudget expired; result still usable
  kCancelled,         ///< pool cancellation honored; result still usable
  kFaultKilled,       ///< an injected fault (recover::InjectedFault) fired
  kWatchdogExpired,   ///< work allowance exceeded (stuck replica)
  kCheckpointError,   ///< checkpoint IO/validation failed (recover error)
  kInvalid,           ///< flow returned but validate_placement rejected it
  kError,             ///< any other exception escaped the flow
};

const char* to_string(AttemptOutcome o);

/// One supervised attempt, as recorded in the replica's history.
struct AttemptRecord {
  int attempt = 0;            ///< zero-based attempt index
  std::uint64_t seed = 0;     ///< master seed the flow ran under
  bool resumed = false;       ///< continued from a surviving checkpoint
  /// The attempt ran with checkpoint *writes* disabled: a previous
  /// attempt's checkpoint failure (full disk, quota) degraded the
  /// replica to checkpoint-off mode. Adoption of checkpoints already on
  /// disk still works — only new writes are dropped.
  bool checkpoints_disabled = false;
  AttemptOutcome outcome = AttemptOutcome::kError;
  /// The flow's own outcome, valid when the flow returned (kCompleted /
  /// kBudgetExhausted / kCancelled / kInvalid).
  recover::RunOutcome flow_outcome = recover::RunOutcome::kCompleted;
  std::string error;          ///< exception text for failed attempts
  std::int64_t moves = 0;     ///< moves charged (work heartbeats observed)
  std::int64_t steps = 0;     ///< temperature steps charged
  std::int64_t watchdog_allowance = WatchdogPolicy::kUnlimited;
};

/// Terminal state of one replica.
enum class ReplicaOutcome : std::uint8_t {
  kSucceeded = 0,  ///< some attempt produced a usable, validated placement
  kFailed,         ///< every attempt failed; the pool survives regardless
};

const char* to_string(ReplicaOutcome o);

/// Everything one replica reports back to the pool.
struct ReplicaReport {
  int replica = 0;
  ReplicaOutcome outcome = ReplicaOutcome::kFailed;
  std::vector<AttemptRecord> attempts;
  /// The replica finished in checkpoint-off degraded mode (some attempt
  /// hit a checkpoint write failure / quota and later attempts stopped
  /// writing checkpoints). The result is still fully valid — only crash
  /// resumability was lost — but the caller should surface it.
  bool checkpoint_off = false;

  // Valid when outcome == kSucceeded:
  FlowResult flow;                       ///< the winning attempt's result
  recover::PackedPlacement placement;    ///< its final cell states
  std::uint64_t fingerprint = 0;         ///< result_fingerprint(...)
  double final_teil = 0.0;
  Coord final_chip_area = 0;
};

/// Bit-exact digest of a finished run: FNV-1a over the hexfloat rendering
/// of every cell state plus the headline metrics. Two runs fingerprint
/// equal only when every bit of every value matches — the concurrency
/// tests compare a pool replica against its solo same-seed run with this.
std::uint64_t result_fingerprint(const Placement& placement,
                                 const FlowResult& result);

/// What every replica of one supervised run shares. ReplicaPool's
/// PoolParams and PoolExecutor's ExecutorJob are this spec plus what
/// their runner needs, so each setting is declared here once.
struct ReplicaSpec {
  /// Stage parameters shared by all replicas. `base.seed` and
  /// `base.recover` are ignored: the supervisor derives the per-attempt
  /// seed and owns the run-lifecycle wiring (budgets, checkpoints,
  /// probes). A zero `base.stage2.router.workers` becomes the replica's
  /// share of the host's cores (see ReplicaSignals::concurrent).
  FlowParams base;
  std::uint64_t master_seed = 1;
  /// Attempts per replica (>= 1) before it is recorded as failed.
  int max_attempts = 3;
  WatchdogPolicy watchdog;
  /// Per-attempt graceful work budget (RunBudget semantics: on expiry the
  /// flow quenches and returns its best feasible state, which *counts as
  /// a usable result* — unlike a watchdog kill).
  std::int64_t budget_moves = recover::RunBudget::kUnlimited;
  std::int64_t budget_steps = recover::RunBudget::kUnlimited;
  /// When non-empty, replica `i` checkpoints into
  /// `<checkpoint_root>/replica-<i>` and can resume across retries; ""
  /// disables checkpoints and with them resume-on-retry.
  std::string checkpoint_root;
  int checkpoint_every = 5;
  /// Retention per replica directory (keep newest K; 0 keeps all).
  int checkpoint_keep = 4;
  /// Byte quota for each replica's checkpoint directory (0 = unbounded).
  /// A save that would exceed it fails typed; the supervisor then
  /// degrades the replica to checkpoint-off mode instead of crashing.
  std::uint64_t checkpoint_quota_bytes = 0;
  /// Disk-fault injection seam forwarded to the checkpoint sink
  /// (non-owning; shared across replicas, so implementations are
  /// thread-safe — see recover::DiskFaultInjector).
  recover::DiskFaultInjector* disk_faults = nullptr;
};

/// What one replica gets at run time beyond the shared spec: how many
/// replicas share the host with it, and the signals of the runner that
/// runs it.
struct ReplicaSignals {
  /// Replicas the runner runs at once. Each routes on a
  /// 1/concurrent share of the host's cores unless `base` fixes the
  /// router's worker count; the share never changes a result.
  int concurrent = 1;
  /// Adopt a surviving valid checkpoint on the *first* attempt too (not
  /// just on retries). This is the placement service's crash-recovery
  /// and preemption path: a re-run job or a parked replica continues
  /// from the newest checkpoint its predecessor wrote — byte-identical
  /// to the uninterrupted run — instead of re-annealing from scratch.
  bool adopt = false;
  /// Deterministic fault injection for this replica (non-owning; polled
  /// across all of its attempts, so a plan's Nth-poll arms address the
  /// replica's whole supervised lifetime).
  recover::FaultInjector* faults = nullptr;
  /// Cooperative cancellation (non-owning). When it reads true at a poll
  /// boundary, the attempt's budget is cancelled and the flow winds down
  /// gracefully to its best feasible state; no further attempts start.
  const std::atomic<bool>* cancel = nullptr;
  /// Checkpoint-preemption request (non-owning). When it reads true at a
  /// poll boundary the attempt's budget is flagged and the flow parks at
  /// its next checkpoint-write boundary by throwing recover::Preempted —
  /// which run_replica deliberately does NOT absorb: it unwinds to the
  /// executor, which re-queues the replica to resume later from that
  /// checkpoint (byte-identical, zero work lost). Ignored by replicas
  /// that take no checkpoints, and cancellation wins when both are set.
  const std::atomic<bool>* preempt = nullptr;
  /// Streaming progress observer forwarded into the flow (see
  /// FlowProgress). Called from whatever thread runs the replica; the
  /// receiver owns its own synchronization. Must not throw.
  std::function<void(const FlowProgress&)> on_progress;
};

/// The report of a replica whose run threw past run_replica (bad_alloc, a
/// throwing contract trap): failed, with one kError attempt saying `why`.
/// Callers record it instead of letting the exception take down the
/// threads that run the other replicas.
ReplicaReport failed_report(int replica, const std::string& why);

/// Runs replica `replica` of `spec` to its terminal state: attempt,
/// classify, retry with resume-or-rotate, give up after max_attempts.
/// Never throws for flow failures — those are recorded in the report —
/// with one deliberate exception: recover::Preempted (see
/// ReplicaSignals::preempt) propagates to the caller, because a
/// preempted replica is parked, not failed. Only programming errors
/// (std::bad_alloc, contract aborts) escape otherwise.
ReplicaReport run_replica(const Netlist& nl, const ReplicaSpec& spec,
                          int replica, const ReplicaSignals& signals);

/// Aggregate statistics of a finished run; the TEIL spread quantifies how
/// much the multi-start bought over a single run (best vs mean of the
/// replicas).
struct PoolStats {
  int succeeded = 0;        ///< replicas ending kSucceeded
  int failed = 0;           ///< replicas ending kFailed (retries exhausted)
  int attempts = 0;         ///< attempts across all replicas
  int retries = 0;          ///< attempts beyond each replica's first
  double teil_best = 0.0;   ///< over succeeded replicas (valid when > 0)
  double teil_worst = 0.0;
  double teil_mean = 0.0;
  double teil_stddev = 0.0;

  bool operator==(const PoolStats&) const = default;
};

/// A finished run: every replica's report, the best-feasible winner and
/// the statistics. ReplicaPool returns it; PoolExecutor reports it per
/// job (ExecutorResult adds the job id).
struct PoolResult {
  std::vector<ReplicaReport> replicas;  ///< indexed by replica id
  int best = -1;  ///< best-feasible replica, -1 when every replica failed
  PoolStats stats;

  bool ok() const { return best >= 0; }
  const ReplicaReport& best_report() const {
    return replicas.at(static_cast<std::size_t>(best));
  }
};

/// The one rollup of a finished run. The winner is the deterministic
/// best-feasible choice: the kSucceeded report with the lowest final
/// TEIL, then the smaller chip area, then the lower index.
PoolResult roll_up(std::vector<ReplicaReport> replicas);

}  // namespace tw::pool
