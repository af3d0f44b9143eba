#include "serve/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "netlist/parser.hpp"
#include "netlist/yal.hpp"
#include "recover/checkpoint.hpp"
#include "util/log.hpp"

namespace tw::serve {
namespace {

// The wire protocol's priority classes and the executor's scheduling
// bands are the same three-step ladder; a drift here would silently
// misroute priorities.
static_assert(kNumPriorityClasses == pool::kNumPriorities);

constexpr int kDoneRing = 64;  // finished ids kept for query()

Submitted rejected(RejectCode code, std::string detail,
                   std::uint32_t retry_after_ms = 0) {
  Submitted out;
  out.kind = Submitted::Kind::kRejected;
  out.reject = RejectReply{code, std::move(detail), retry_after_ms};
  return out;
}

/// The job-level result of an executor run, read off its rollup. The
/// winning attempt is always the best replica's last (run_replica returns
/// at the first usable one).
ResultEvent event_from(const pool::ExecutorResult& r) {
  ResultEvent ev;
  ev.job = r.job;
  ev.replicas_succeeded = r.stats.succeeded;
  ev.replicas_total = r.stats.succeeded + r.stats.failed;
  ev.attempts = r.stats.attempts;
  if (!r.ok()) {
    ev.status = JobStatus::kFailed;
    for (const pool::ReplicaReport& rep : r.replicas)
      if (!rep.attempts.empty()) {
        ev.detail = "replica " + std::to_string(rep.replica) + ": " +
                    rep.attempts.back().error;
        break;
      }
    return ev;
  }
  const pool::ReplicaReport& best = r.best_report();
  switch (best.attempts.back().outcome) {
    case pool::AttemptOutcome::kBudgetExhausted:
      ev.status = JobStatus::kBudgetExhausted;
      break;
    case pool::AttemptOutcome::kCancelled:
      ev.status = JobStatus::kCancelled;
      break;
    default:
      ev.status = JobStatus::kCompleted;
  }
  ev.fingerprint = best.fingerprint;
  ev.final_teil = best.final_teil;
  ev.final_chip_area = best.final_chip_area;
  return ev;
}

}  // namespace

int SchedulerLimits::shed_threshold(JobPriority p) const {
  switch (p) {
    case JobPriority::kUrgent: return max_jobs;
    case JobPriority::kNormal: return std::max(1, max_jobs * 3 / 4);
    case JobPriority::kBatch: return std::max(1, max_jobs / 2);
  }
  return max_jobs;
}

FlowParams flow_params_from(const JobParams& p) {
  FlowParams f;
  if (p.s1_attempts_per_cell > 0)
    f.stage1.attempts_per_cell = p.s1_attempts_per_cell;
  if (p.s1_p2_samples > 0) f.stage1.p2_samples = p.s1_p2_samples;
  if (p.s2_attempts_per_cell > 0)
    f.stage2.attempts_per_cell = p.s2_attempts_per_cell;
  if (p.steiner_m > 0) f.stage2.router.steiner.m = p.steiner_m;
  return f;
}

std::optional<Netlist> parse_submission(const std::string& text,
                                        ParseReport& report) {
  // Format sniff: YAL input always carries MODULE blocks; the native
  // netlist format has no such keyword.
  if (text.find("MODULE") != std::string::npos)
    return parse_yal_string(text, report);
  return parse_netlist_string(text, report);
}

Scheduler::Scheduler(SchedulerConfig cfg, pool::PoolExecutor::Hooks hooks)
    : limits_(cfg.limits),
      checkpoint_quota_bytes_(cfg.checkpoint_quota_bytes),
      disk_faults_(cfg.disk_faults) {
  cache_ = std::make_unique<ResultCache>(cfg.state_dir + "/cache",
                                         cfg.cache_budget_bytes, disk_faults_);
  journal_ =
      std::make_unique<JobJournal>(cfg.state_dir + "/jobs", disk_faults_);
  std::vector<LiveJob> live = journal_->recover();
  next_job_ = journal_->max_job() + 1;
  executor_ = std::make_unique<pool::PoolExecutor>(std::max(1, cfg.threads),
                                                   std::move(hooks));

  // Crash recovery: every job whose record survived is still owed a
  // result, unless the result already reached the cache.
  for (LiveJob& lj : live) {
    ParseReport report;
    std::optional<Netlist> nl = parse_submission(lj.netlist_yal, report);
    if (!nl) {
      // It parsed when accepted; if it no longer does the record is
      // damaged in a CRC-surviving way (or the parser changed). Retire it
      // visibly rather than crash-looping on it forever.
      log_warn("recovery: job ", lj.job, " no longer parses; retiring it: ",
               report.str());
      retire(lj.job);
      continue;
    }
    const CacheKey key{recover::netlist_digest(*nl),
                       params_digest(lj.params)};
    if (cache_->lookup(key).has_value()) {
      // The result reached the cache but the kill landed before the job's
      // directory was removed: the work is done, only the cleanup was lost.
      log_info("recovery: job ", lj.job,
               "'s result is already cached; removing its directory");
      retire(lj.job);
      continue;
    }
    const std::uint64_t id = lj.job;
    const bool cancelled = lj.cancelled;
    recovered_.push_back(id);
    enqueue(Job{std::move(lj), key, std::make_unique<Netlist>(std::move(*nl))},
            /*adopt_existing=*/true);
    if (cancelled) executor_->cancel(id);
  }
  if (!recovered_.empty())
    log_info("recovery: re-adopted ", recovered_.size(),
             " in-flight job(s) from their records");
}

Scheduler::~Scheduler() { shutdown(); }

void Scheduler::shutdown() {
  if (executor_) executor_->shutdown();
}

void Scheduler::retire(std::uint64_t id) {
  if (!journal_->remove(id)) journal_degraded_ = true;
}

void Scheduler::enqueue(Job&& job, bool adopt_existing) {
  const JobParams& p = job.live.params;
  pool::ExecutorJob ej;
  ej.job = job.live.job;
  ej.base = flow_params_from(p);
  ej.master_seed = p.master_seed;
  ej.replicas = p.replicas;
  ej.max_attempts = std::max(1, p.max_attempts);
  ej.watchdog.initial_moves = p.watchdog_moves;
  ej.budget_moves = p.budget_moves;
  ej.budget_steps = p.budget_steps;
  ej.checkpoint_root = journal_->job_dir(job.live.job);
  ej.checkpoint_every = std::max(1, p.checkpoint_every);
  ej.checkpoint_keep = std::max(0, p.checkpoint_keep);
  ej.checkpoint_quota_bytes = checkpoint_quota_bytes_;
  ej.disk_faults = disk_faults_;
  ej.priority = static_cast<int>(p.priority);
  ej.adopt_existing = adopt_existing;

  running_[job.key] = ej.job;
  const auto [it, inserted] = jobs_.emplace(ej.job, std::move(job));
  // The netlist pointer handed to the executor lives in the job table
  // until finish(); map nodes never move.
  ej.nl = it->second.nl.get();
  executor_->submit(std::move(ej));
}

Submitted Scheduler::submit(const SubmitRequest& req) {
  const JobParams& p = req.params;
  if (p.replicas < 1 || p.max_attempts < 1)
    return rejected(RejectCode::kBadRequest,
                    "replicas and max_attempts must be >= 1");
  if (p.replicas > limits_.max_replicas)
    return rejected(RejectCode::kQuotaExceeded,
                    "requested " + std::to_string(p.replicas) +
                        " replica(s); quota is " +
                        std::to_string(limits_.max_replicas));
  if (limits_.max_budget_moves >= 0 &&
      (p.budget_moves < 0 || p.budget_moves > limits_.max_budget_moves))
    return rejected(RejectCode::kQuotaExceeded,
                    "requested move budget " +
                        (p.budget_moves < 0
                             ? std::string("unlimited")
                             : std::to_string(p.budget_moves)) +
                        " exceeds quota " +
                        std::to_string(limits_.max_budget_moves));
  if (limits_.max_budget_steps >= 0 &&
      (p.budget_steps < 0 || p.budget_steps > limits_.max_budget_steps))
    return rejected(RejectCode::kQuotaExceeded,
                    "requested step budget " +
                        (p.budget_steps < 0
                             ? std::string("unlimited")
                             : std::to_string(p.budget_steps)) +
                        " exceeds quota " +
                        std::to_string(limits_.max_budget_steps));

  ParseReport report;
  std::optional<Netlist> nl = parse_submission(req.netlist_yal, report);
  if (!nl)
    return rejected(RejectCode::kParseError, report.str());
  if (limits_.max_cells > 0 &&
      static_cast<int>(nl->num_cells()) > limits_.max_cells)
    return rejected(RejectCode::kQuotaExceeded,
                    "netlist has " + std::to_string(nl->num_cells()) +
                        " cell(s); quota is " +
                        std::to_string(limits_.max_cells));

  const CacheKey key{recover::netlist_digest(*nl), params_digest(p)};

  // Dedup, cheapest first: a durable result beats an in-flight job.
  if (const std::optional<JobResult> hit = cache_->lookup(key)) {
    Submitted out;
    out.kind = Submitted::Kind::kCached;
    out.job = next_job_++;  // an id for the reply; no work, no journal
    out.disposition = Disposition::kCached;
    out.cached = ResultEvent{*hit, out.job, /*cached=*/true, {}};
    return out;
  }
  if (const auto it = running_.find(key); it != running_.end()) {
    Submitted out;
    out.kind = Submitted::Kind::kAccepted;
    out.job = it->second;
    out.disposition = Disposition::kDuplicateRunning;
    return out;
  }

  // Priority-aware load shedding: each class has its own admission
  // threshold (batch is shed first, urgent last), and a shed submission
  // gets a typed kOverloaded with a deterministic retry hint scaled by
  // how far past the threshold the daemon is.
  const int threshold = limits_.shed_threshold(p.priority);
  if (in_flight() >= threshold) {
    ++shed_;
    const auto excess = static_cast<std::uint32_t>(in_flight() - threshold);
    return rejected(RejectCode::kOverloaded,
                    std::to_string(in_flight()) + " job(s) in flight; " +
                        to_string(p.priority) + " admission threshold is " +
                        std::to_string(threshold),
                    /*retry_after_ms=*/250 * (excess + 1));
  }

  // Accept: the write-ahead record precedes everything the client will
  // ever observe — once the ack is on the wire, the job survives SIGKILL.
  // A record that cannot be written means the daemon is out of the disk
  // it needs to make that promise: shed the submission (typed,
  // retryable) rather than accept work that would not survive a crash.
  const std::uint64_t id = next_job_++;
  LiveJob live{id, p, req.netlist_yal};
  try {
    journal_->write(live);
  } catch (const ServeError& e) {
    journal_degraded_ = true;
    ++shed_;
    log_warn("journal write failed; shedding submission: ", e.what());
    return rejected(RejectCode::kOverloaded,
                    std::string("journal write failed: ") + e.what(),
                    /*retry_after_ms=*/1000);
  }

  enqueue(Job{std::move(live), key, std::make_unique<Netlist>(std::move(*nl))},
          /*adopt_existing=*/false);

  Submitted out;
  out.kind = Submitted::Kind::kAccepted;
  out.job = id;
  out.disposition = Disposition::kFresh;
  return out;
}

bool Scheduler::cancel(std::uint64_t job) {
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return false;
  if (!it->second.live.cancelled) {
    it->second.live.cancelled = true;
    try {
      journal_->write(it->second.live);
    } catch (const ServeError& e) {
      // Degraded, not fatal: the cancel still takes effect now; only a
      // restart in this window would resurrect the job at full length.
      journal_degraded_ = true;
      log_warn("journal cancel record failed (cancel still effective): ",
               e.what());
    }
    executor_->cancel(job);
  }
  return true;
}

std::optional<JobState> Scheduler::query(std::uint64_t job) const {
  if (jobs_.count(job) > 0) return JobState::kRunning;
  for (const auto& [id, state] : done_ring_)
    if (id == job) return state;
  return std::nullopt;
}

ResultEvent Scheduler::finish(pool::ExecutorResult r) {
  ResultEvent ev = event_from(r);
  for (const pool::ReplicaReport& rep : r.replicas)
    if (rep.checkpoint_off) {
      ++checkpoint_off_jobs_;
      break;
    }
  const auto it = jobs_.find(r.job);
  if (it == jobs_.end()) return ev;  // rejected-at-shutdown stub
  Job& job = it->second;

  // Cache before the job's directory goes: if the daemon dies between
  // the two, recovery finds the cached result and removes the directory
  // instead of re-running the job. A cache that cannot be written
  // degrades to cache-off mode — the job still completes and its result
  // is still delivered; only cross-restart dedup is lost.
  if (!cache_off_) {
    try {
      cache_->put(job.key, ev);
    } catch (const ServeError& e) {
      cache_off_ = true;
      log_warn("result cache write failed; cache-off mode engaged: ",
               e.what());
    }
  }
  running_.erase(job.key);

  // Removing the job's directory (its record, then its checkpoint tree)
  // is the finished record. A removal that fails only means a restart
  // would re-run (or re-serve from cache) this job. Degraded, not fatal.
  retire(r.job);

  done_ring_.emplace_back(r.job, JobState::kDone);
  while (done_ring_.size() > kDoneRing) done_ring_.pop_front();
  jobs_.erase(it);
  return ev;
}

StatsReply Scheduler::stats() const {
  StatsReply s;
  s.jobs_in_flight = in_flight();
  const pool::PoolExecutor::Stats xs = executor_->stats();
  for (int p = 0; p < kNumPriorityClasses; ++p) {
    s.queued[static_cast<std::size_t>(p)] =
        xs.queued[static_cast<std::size_t>(p)];
    s.running[static_cast<std::size_t>(p)] =
        xs.running[static_cast<std::size_t>(p)];
  }
  s.shed = shed_;
  s.preempted = xs.preempted;
  s.resumed = xs.resumed;
  s.recovered = static_cast<std::int64_t>(recovered_.size());
  s.cache_evictions = cache_->evictions();
  s.journal_bytes = journal_->bytes();
  s.journal_records = journal_->records();
  s.cache_bytes = cache_->bytes();
  s.cache_budget_bytes = cache_->budget_bytes();
  s.cache_off = cache_off_;
  s.journal_degraded = journal_degraded_;
  s.checkpoint_off_jobs = checkpoint_off_jobs_;
  return s;
}

}  // namespace tw::serve
