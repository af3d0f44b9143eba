#include "pool/executor.hpp"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "check/contracts.hpp"
#include "util/log.hpp"

namespace tw::pool {
namespace {

int clamp_priority(int p) {
  return std::clamp(p, 0, kNumPriorities - 1);
}

}  // namespace

struct PoolExecutor::Shared {
  /// One submitted job's live state. `cancel` and `preempt` are the only
  /// fields touched outside `mu`: workers read them lock-free through
  /// ReplicaSignals, and each worker writes only its own `reports` slot —
  /// the disjoint-slot pattern of ReplicaPool — before re-acquiring `mu`
  /// to decrement `remaining`, which is what publishes the slot to
  /// whoever assembles the result.
  struct JobState {
    ExecutorJob spec;
    std::atomic<bool> cancel{false};
    std::atomic<bool> preempt{false};
    int remaining = 0;                    // mu: tasks not yet reported
    int running = 0;                      // mu: tasks on a worker right now
    std::vector<ReplicaReport> reports;   // disjoint slots, one per task
    /// Per-replica crash/preempt re-adoption flags (mu): a preempted
    /// replica re-runs with adoption on so it resumes its own parked
    /// checkpoint instead of cold-starting.
    std::vector<bool> adopt;
  };

  /// Priority-ordered ready queue. Key = (kNumPriorities - 1 - priority,
  /// seq): workers always claim the highest priority, FIFO within a
  /// class — deterministic for any arrival order.
  using QueueKey = std::pair<int, std::uint64_t>;
  struct Task {
    std::shared_ptr<JobState> job;
    int replica = 0;
  };

  std::mutex mu;
  std::condition_variable cv;
  bool stopping = false;                                        // mu
  std::uint64_t next_seq = 0;                                   // mu
  std::map<std::uint64_t, std::shared_ptr<JobState>> jobs;      // mu
  std::map<QueueKey, Task> queue;                               // mu
  std::int64_t preempted = 0;                                   // mu
  std::int64_t resumed = 0;                                     // mu
  std::vector<std::thread> workers;  // mu; joined once by shutdown()
  int threads = 1;                   // immutable after construction
  Hooks hooks;                       // immutable after construction

  void enqueue_locked(const std::shared_ptr<JobState>& st, int replica) {
    const QueueKey key{kNumPriorities - 1 - clamp_priority(st->spec.priority),
                       next_seq++};
    queue.emplace(key, Task{st, replica});
  }

  /// Picks the preemption victim for an arriving job of `priority`: the
  /// lowest-priority running job strictly below it that checkpoints (a
  /// job without a checkpoint root cannot park), newest job id as the
  /// deterministic tiebreak. Returns nullptr when nothing qualifies.
  std::shared_ptr<JobState> preempt_victim_locked(int priority) {
    std::shared_ptr<JobState> victim;
    for (const auto& [id, st] : jobs) {
      if (st->running <= 0) continue;
      if (st->spec.checkpoint_root.empty()) continue;
      if (clamp_priority(st->spec.priority) >= priority) continue;
      if (st->preempt.load(std::memory_order_relaxed)) continue;
      if (!victim ||
          clamp_priority(st->spec.priority) <
              clamp_priority(victim->spec.priority) ||
          (clamp_priority(st->spec.priority) ==
               clamp_priority(victim->spec.priority) &&
           st->spec.job > victim->spec.job))
        victim = st;
    }
    return victim;
  }

  void worker_loop();
  /// Runs one task. nullopt means the task was preempted and re-queued —
  /// no report slot was filled and `remaining` must not budge.
  std::optional<ReplicaReport> run_task(const std::shared_ptr<JobState>& job,
                                        int replica, bool adopt);
};

std::optional<ReplicaReport> PoolExecutor::Shared::run_task(
    const std::shared_ptr<JobState>& job, int replica, bool adopt) {
  const ExecutorJob& spec = job->spec;
  ReplicaSignals signals;
  signals.concurrent = threads;
  signals.adopt = adopt;
  signals.cancel = &job->cancel;
  signals.preempt = &job->preempt;
  if (hooks.on_progress) {
    const auto forward = hooks.on_progress;
    const std::uint64_t id = spec.job;
    signals.on_progress = [forward, id, replica](const FlowProgress& pg) {
      forward(id, replica, pg);
    };
  }
  try {
    return run_replica(*spec.nl, spec, replica, signals);
  } catch (const recover::Preempted& e) {
    // Parked, not failed: the replica's newest checkpoint holds exactly
    // this boundary. Re-queue it (at the job's own priority) with
    // adoption on; the resumed run is byte-identical to one that was
    // never preempted, because resume replays from the saved cursor.
    log_info("executor job ", spec.job, " replica ", replica, " ", e.what(),
             "; re-queued for resume");
    std::lock_guard<std::mutex> lock(mu);
    job->adopt[static_cast<std::size_t>(replica)] = true;
    ++preempted;
    enqueue_locked(job, replica);
    cv.notify_one();
    return std::nullopt;
  } catch (const std::exception& e) {
    // run_replica absorbs flow failures; anything reaching here
    // (bad_alloc, a throwing contract trap) must not take the worker —
    // and with it every queued job — down.
    return failed_report(replica, e.what());
  }
}

void PoolExecutor::Shared::worker_loop() {
  for (;;) {
    std::shared_ptr<JobState> job;
    int replica = -1;
    bool adopt = false;
    {
      std::unique_lock<std::mutex> lock(mu);
      while (queue.empty() && !stopping) cv.wait(lock);
      if (queue.empty()) return;  // stopping and fully drained
      const auto it = queue.begin();
      job = std::move(it->second.job);
      replica = it->second.replica;
      queue.erase(it);
      ++job->running;
      adopt = job->adopt[static_cast<std::size_t>(replica)];
      if (adopt) ++resumed;
      // Claiming a task of a preempted job un-parks it: everything of
      // higher priority that triggered the preemption has already
      // drained ahead of it in the queue.
      job->preempt.store(false, std::memory_order_relaxed);
    }

    std::optional<ReplicaReport> rep = run_task(job, replica, adopt);

    std::vector<ReplicaReport> reports;
    bool finished = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      --job->running;
      if (rep.has_value()) {
        job->reports[static_cast<std::size_t>(replica)] = std::move(*rep);
        if (--job->remaining == 0) {
          finished = true;
          reports = std::move(job->reports);
          jobs.erase(job->spec.job);
        }
      }
    }
    if (!finished) continue;

    ExecutorResult done{roll_up(std::move(reports)), job->spec.job};
    log_info("executor job ", done.job, ": ", done.stats.succeeded, "/",
             done.replicas.size(), " replica(s) succeeded",
             done.ok() ? ", best teil=" + std::to_string(done.stats.teil_best)
                       : ", no usable result");
    // Outside the lock: on_done may re-enter submit()/cancel().
    if (hooks.on_done) hooks.on_done(std::move(done));
  }
}

PoolExecutor::PoolExecutor(int threads, Hooks hooks)
    : shared_(std::make_shared<Shared>()) {
  shared_->threads = std::max(1, threads);
  shared_->hooks = std::move(hooks);
  const std::shared_ptr<Shared> sh = shared_;
  shared_->workers.reserve(static_cast<std::size_t>(shared_->threads));
  for (int i = 0; i < shared_->threads; ++i)
    shared_->workers.emplace_back([sh]() { sh->worker_loop(); });
}

PoolExecutor::~PoolExecutor() { shutdown(); }

void PoolExecutor::submit(ExecutorJob job) {
  TW_REQUIRE(job.nl != nullptr, "executor job ", job.job, " has no netlist");
  TW_REQUIRE(job.replicas >= 1, "replicas=", job.replicas);
  const int n = job.replicas;
  const std::uint64_t id = job.job;
  const int priority = clamp_priority(job.priority);

  auto st = std::make_shared<Shared::JobState>();
  st->spec = std::move(job);
  st->remaining = n;
  st->reports.resize(static_cast<std::size_t>(n));
  st->adopt.assign(static_cast<std::size_t>(n), st->spec.adopt_existing);

  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    if (!shared_->stopping) {
      // The emplace must stay outside TW_REQUIRE: contract macros (and
      // their argument expressions) compile away at TW_CHECK_LEVEL=0.
      const bool inserted = shared_->jobs.emplace(id, st).second;
      TW_REQUIRE(inserted, "duplicate executor job id ", id);
      (void)inserted;
      for (int i = 0; i < n; ++i) shared_->enqueue_locked(st, i);
      // Priority admission: when every worker is busy and something of
      // lower priority is running, ask it to park at its next
      // checkpoint so this job starts sooner. One victim per
      // submission — preemption frees that job's workers as its
      // replicas reach their boundaries.
      int running_total = 0;
      for (const auto& [jid, js] : shared_->jobs) running_total += js->running;
      if (priority > 0 && running_total >= shared_->threads) {
        if (const auto victim = shared_->preempt_victim_locked(priority)) {
          victim->preempt.store(true, std::memory_order_relaxed);
          log_info("executor job ", id, " (priority ", priority,
                   ") preempts job ", victim->spec.job, " (priority ",
                   clamp_priority(victim->spec.priority), ")");
        }
      }
      shared_->cv.notify_all();
      return;
    }
  }

  // Shut down: complete the job immediately (on the submitting thread)
  // with every replica failed — never silently dropped.
  std::vector<ReplicaReport> failed;
  for (int i = 0; i < n; ++i)
    failed.push_back(failed_report(i, "executor is shut down"));
  if (shared_->hooks.on_done)
    shared_->hooks.on_done(ExecutorResult{roll_up(std::move(failed)), id});
}

void PoolExecutor::cancel(std::uint64_t job) {
  std::lock_guard<std::mutex> lock(shared_->mu);
  const auto it = shared_->jobs.find(job);
  if (it != shared_->jobs.end())
    it->second->cancel.store(true, std::memory_order_relaxed);
}

void PoolExecutor::shutdown() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->stopping = true;
    for (auto& [id, st] : shared_->jobs)
      st->cancel.store(true, std::memory_order_relaxed);
    workers.swap(shared_->workers);
    shared_->cv.notify_all();
  }
  for (std::thread& t : workers) t.join();
}

PoolExecutor::Stats PoolExecutor::stats() const {
  Stats s;
  std::lock_guard<std::mutex> lock(shared_->mu);
  for (const auto& [key, task] : shared_->queue)
    ++s.queued[static_cast<std::size_t>(
        clamp_priority(task.job->spec.priority))];
  for (const auto& [id, st] : shared_->jobs)
    s.running[static_cast<std::size_t>(clamp_priority(st->spec.priority))] +=
        st->running;
  s.preempted = shared_->preempted;
  s.resumed = shared_->resumed;
  return s;
}

}  // namespace tw::pool
