// Job scheduler of the placement service: admission control, quotas,
// dedup, job records and crash recovery — everything the daemon decides,
// with no sockets anywhere, so the whole policy layer is unit-testable
// in-process.
//
// Lifecycle of a submission:
//
//   parse (typed kParseError reject on failure, diagnostics attached) ->
//   quota check (kQuotaExceeded: replicas / cells / work budget) ->
//   admission (kQueueFull past max_jobs in flight) ->
//   dedup: identical (netlist digest, params digest) against the result
//     cache (serve the cached terminal result, no annealing) and against
//     in-flight jobs (attach to the running job) ->
//   write the job's record (write-ahead: durable before the ack) ->
//   enqueue on the shared PoolExecutor under the job's RunBudget quota.
//
// A live job's whole durable state is its directory <state>/jobs/job-<id>/
// (the record and the replicas' checkpoint trees; see journal.hpp), and
// removing it is the finished record. Crash recovery (construction):
// list jobs/, remove the directories of jobs whose results already
// reached the cache (the cache put happens before the removal, so a kill
// between the two serves from cache instead of re-running) and of jobs
// whose record or netlist no longer reads, and resubmit the rest in id
// order with adopt_existing set — each replica continues from the newest
// valid checkpoint its killed predecessor wrote.
//
// Threading: every method here runs on the daemon thread. The executor's
// callbacks fire on worker threads and must be routed back (the daemon
// queues them and calls finish() from its loop).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/parse_report.hpp"
#include "pool/executor.hpp"
#include "serve/journal.hpp"
#include "serve/result_cache.hpp"
#include "serve/wire.hpp"

namespace tw::serve {

/// Per-job quotas and admission limits. -1 work limits mean "unlimited
/// allowed"; when a limit is set, a request *above* it — including a
/// request for unlimited work — is rejected kQuotaExceeded, never
/// silently clamped.
struct SchedulerLimits {
  /// Jobs in flight before load shedding. The cap is priority-graded:
  /// urgent jobs are admitted up to max_jobs, normal up to 3/4 of it,
  /// batch up to 1/2 — so under pressure the cheap-to-delay classes are
  /// shed first, with a typed kOverloaded reject carrying a retry hint.
  int max_jobs = 8;
  int max_replicas = 8;   ///< per-job replica quota
  int max_cells = 0;      ///< netlist-size (memory) quota; 0 = unlimited
  std::int64_t max_budget_moves = -1;
  std::int64_t max_budget_steps = -1;

  /// The in-flight count at which priority class `p` is shed.
  int shed_threshold(JobPriority p) const;
};

struct SchedulerConfig {
  /// Root of all daemon state: cache/ and jobs/job-<id>/.
  std::string state_dir;
  SchedulerLimits limits;
  int threads = 2;  ///< executor worker threads
  // Disk budgets (0 = unbounded where noted):
  std::uint64_t cache_budget_bytes = 8u << 20;  ///< result cache bytes
  /// Per-replica checkpoint-directory byte quota (0 = unbounded); a save
  /// that would burst it fails typed and the replica degrades to
  /// checkpoint-off mode.
  std::uint64_t checkpoint_quota_bytes = 0;
  /// Disk-fault injection seam shared by job records, cache and checkpoint
  /// sinks (non-owning; must be thread-safe — workers poll it too).
  recover::DiskFaultInjector* disk_faults = nullptr;
};

/// Outcome of submit(): exactly one of the three shapes.
struct Submitted {
  enum class Kind : std::uint8_t { kAccepted, kCached, kRejected };
  Kind kind = Kind::kRejected;
  // kAccepted:
  std::uint64_t job = 0;
  Disposition disposition = Disposition::kFresh;
  // kCached: the terminal event to send right after the ack.
  ResultEvent cached;
  // kRejected:
  RejectReply reject;
};

class Scheduler {
 public:
  /// Builds the state directory, reads the job records back and
  /// resubmits the in-flight jobs of a killed predecessor (see
  /// recovered()). `hooks` goes to the PoolExecutor verbatim — both
  /// callbacks fire on worker threads; route results back into finish()
  /// on the daemon thread.
  Scheduler(SchedulerConfig cfg, pool::PoolExecutor::Hooks hooks);
  ~Scheduler();

  Submitted submit(const SubmitRequest& req);

  /// Cooperative cancel; the job's record is rewritten so a restart
  /// doesn't resurrect the job at full length. False for unknown/finished
  /// jobs.
  bool cancel(std::uint64_t job);

  /// kRunning while in flight, kDone for recently finished jobs, nullopt
  /// for ids this daemon never saw (or finished long ago).
  std::optional<JobState> query(std::uint64_t job) const;

  /// Terminal bookkeeping for one executor result (daemon thread): cache
  /// the result, then remove the job's directory (record and checkpoint
  /// tree) and free its netlist. Returns the event to broadcast.
  ResultEvent finish(pool::ExecutorResult r);

  /// Jobs resurrected from their records at construction, in id order
  /// (they have no watchers; their results land in the cache).
  const std::vector<std::uint64_t>& recovered() const { return recovered_; }

  /// The scheduler's half of the health snapshot: queue/running depth by
  /// priority, shed/preempt/recovery counters, disk budget usage and the
  /// degraded-mode flags. The daemon fills in its connection-level
  /// counters (progress_dropped, reaped) before sending.
  StatsReply stats() const;

  int in_flight() const { return static_cast<int>(jobs_.size()); }
  const SchedulerLimits& limits() const { return limits_; }
  ResultCache& cache() { return *cache_; }
  bool cache_off() const { return cache_off_; }
  bool journal_degraded() const { return journal_degraded_; }

  /// Drains the executor (cancelling in-flight jobs); their on_done
  /// callbacks still fire during the drain.
  void shutdown();

 private:
  /// One job in flight: its record (id, params, netlist text, cancel
  /// flag — what recovery reads back and a cancel rewrites), its dedup key
  /// and the parsed netlist the executor runs on.
  struct Job {
    LiveJob live;
    CacheKey key;
    std::unique_ptr<Netlist> nl;
  };

  void enqueue(Job&& job, bool adopt_existing);
  /// Removes job `id`'s directory; a failure flags journal_degraded.
  void retire(std::uint64_t id);

  SchedulerLimits limits_;
  std::uint64_t checkpoint_quota_bytes_ = 0;
  recover::DiskFaultInjector* disk_faults_ = nullptr;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<JobJournal> journal_;
  std::unique_ptr<pool::PoolExecutor> executor_;
  std::map<std::uint64_t, Job> jobs_;       ///< in flight
  std::map<CacheKey, std::uint64_t> running_;  ///< dedup: key -> job id
  std::deque<std::pair<std::uint64_t, JobState>> done_ring_;  ///< recent
  std::vector<std::uint64_t> recovered_;
  std::uint64_t next_job_ = 1;
  // Degradation state and shed accounting (see StatsReply):
  bool cache_off_ = false;        ///< cache writes disabled after IO failure
  bool journal_degraded_ = false; ///< a job record write or removal failed
  std::int64_t shed_ = 0;
  std::int64_t checkpoint_off_jobs_ = 0;
};

/// Maps the wire-visible knobs onto FlowParams (0 = library default).
FlowParams flow_params_from(const JobParams& p);

/// Parses a submission's netlist text: YAL when it contains a MODULE
/// keyword, the native netlist format otherwise. Returns nullopt with
/// diagnostics (suppressed-overflow counts included) in `report`.
std::optional<Netlist> parse_submission(const std::string& text,
                                        ParseReport& report);

}  // namespace tw::serve
