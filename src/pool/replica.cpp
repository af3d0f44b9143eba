#include "pool/replica.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iomanip>
#include <optional>
#include <sstream>
#include <utility>

#include "check/validate.hpp"
#include "pool/workers.hpp"
#include "recover/fault.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace tw::pool {
namespace {

/// The supervisor's in-process kill switch, installed as the flow's fault
/// injector. Order matters in poll(): the replica's scripted fault plan is
/// forwarded first (so injected kills fire at exactly the poll counts the
/// plan names, watchdog or not), then the cooperative cancel flag is
/// folded into the attempt's budget, then the watchdog allowance is
/// enforced against the moves the budget has counted — the "heartbeats"
/// of the ISSUE: pure work, never wall-clock, so every supervisor
/// transition replays identically run after run.
class ReplicaProbe final : public recover::FaultInjector {
 public:
  ReplicaProbe(int replica, int attempt, recover::RunBudget& budget,
               std::int64_t allowance, recover::FaultInjector* inner,
               const std::atomic<bool>* cancel,
               const std::atomic<bool>* preempt)
      : replica_(replica),
        attempt_(attempt),
        budget_(budget),
        allowance_(allowance),
        inner_(inner),
        cancel_(cancel),
        preempt_(preempt) {}

  void poll(recover::FaultSite site) override {
    if (inner_ != nullptr) inner_->poll(site);
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed))
      budget_.request_cancel();
    // Fold the executor's preempt request into the budget; the flow acts
    // on it only at its next checkpoint-write boundary (and not at all
    // when cancelled — cancellation is the stronger request).
    if (preempt_ != nullptr && preempt_->load(std::memory_order_relaxed))
      budget_.request_preempt();
    if (allowance_ != WatchdogPolicy::kUnlimited &&
        budget_.moves_charged() > allowance_)
      throw WatchdogExpired(replica_, attempt_, budget_.moves_charged(),
                            allowance_);
  }

 private:
  int replica_;
  int attempt_;
  recover::RunBudget& budget_;
  std::int64_t allowance_;
  recover::FaultInjector* inner_;
  const std::atomic<bool>* cancel_;
  const std::atomic<bool>* preempt_;
};

/// Strict improvement in the best-feasible order: lower TEIL, then
/// smaller chip area. roll_up scans in index order, so the lower replica
/// id wins a full tie.
bool improves(const ReplicaReport& candidate, const ReplicaReport& best) {
  if (candidate.final_teil != best.final_teil)
    return candidate.final_teil < best.final_teil;
  return candidate.final_chip_area < best.final_chip_area;
}

}  // namespace

std::int64_t WatchdogPolicy::allowance(int attempt) const {
  if (initial_moves == kUnlimited) return kUnlimited;
  double a = static_cast<double>(initial_moves);
  const double growth = std::max(1.0, backoff);
  for (int i = 0; i < attempt; ++i) a *= growth;
  std::int64_t v = a >= 9.0e18 ? std::int64_t{9'000'000'000'000'000'000}
                               : static_cast<std::int64_t>(a);
  if (max_moves != kUnlimited) v = std::min(v, max_moves);
  return v;
}

WatchdogExpired::WatchdogExpired(int replica, int attempt, std::int64_t moves,
                                 std::int64_t allowance)
    : std::runtime_error("watchdog expired: replica " +
                         std::to_string(replica) + " attempt " +
                         std::to_string(attempt) + " charged " +
                         std::to_string(moves) + " move(s), allowance " +
                         std::to_string(allowance)),
      moves_(moves),
      allowance_(allowance) {}

const char* to_string(AttemptOutcome o) {
  switch (o) {
    case AttemptOutcome::kCompleted: return "completed";
    case AttemptOutcome::kBudgetExhausted: return "budget_exhausted";
    case AttemptOutcome::kCancelled: return "cancelled";
    case AttemptOutcome::kFaultKilled: return "fault_killed";
    case AttemptOutcome::kWatchdogExpired: return "watchdog_expired";
    case AttemptOutcome::kCheckpointError: return "checkpoint_error";
    case AttemptOutcome::kInvalid: return "invalid";
    case AttemptOutcome::kError: return "error";
  }
  return "unknown";
}

const char* to_string(ReplicaOutcome o) {
  switch (o) {
    case ReplicaOutcome::kSucceeded: return "succeeded";
    case ReplicaOutcome::kFailed: return "failed";
  }
  return "unknown";
}

std::uint64_t result_fingerprint(const Placement& placement,
                                 const FlowResult& result) {
  std::ostringstream os;
  os << std::hexfloat;
  const auto n = static_cast<CellId>(placement.netlist().num_cells());
  for (CellId c = 0; c < n; ++c) {
    const CellState& s = placement.state(c);
    os << "cell " << c << ": (" << s.center.x << "," << s.center.y << ") o"
       << static_cast<int>(s.orient) << " i" << s.instance << " a" << s.aspect
       << " sites[";
    for (const int site : s.pin_site) os << site << ",";
    os << "] occ[";
    for (const int occ : s.site_occupancy) os << occ << ",";
    os << "]\n";
  }
  os << "teil " << result.final_teil << " s1 " << result.stage1_teil << "\n";
  os << "area " << result.final_chip_area << " bbox "
     << result.final_chip_bbox.xlo << "," << result.final_chip_bbox.ylo << ","
     << result.final_chip_bbox.xhi << "," << result.final_chip_bbox.yhi
     << "\n";
  for (const auto& pass : result.stage2.passes)
    os << "pass: overflow " << pass.route_overflow << " unrouted "
       << pass.unrouted_nets << " wrv " << pass.width_rule_violations << "\n";
  return fnv1a(os.str());
}

ReplicaReport failed_report(int replica, const std::string& why) {
  ReplicaReport r;
  r.replica = replica;
  r.outcome = ReplicaOutcome::kFailed;
  AttemptRecord rec;
  rec.outcome = AttemptOutcome::kError;
  rec.error = why;
  r.attempts.push_back(std::move(rec));
  return r;
}

PoolResult roll_up(std::vector<ReplicaReport> replicas) {
  PoolResult out;
  out.replicas = std::move(replicas);
  RunningStats teil;
  for (int i = 0; i < static_cast<int>(out.replicas.size()); ++i) {
    const ReplicaReport& r = out.replicas[static_cast<std::size_t>(i)];
    out.stats.attempts += static_cast<int>(r.attempts.size());
    out.stats.retries +=
        std::max(0, static_cast<int>(r.attempts.size()) - 1);
    if (r.outcome != ReplicaOutcome::kSucceeded) {
      ++out.stats.failed;
      continue;
    }
    ++out.stats.succeeded;
    teil.add(r.final_teil);
    if (!out.ok() || improves(r, out.best_report())) out.best = i;
  }
  out.stats.teil_best = teil.min();
  out.stats.teil_worst = teil.max();
  out.stats.teil_mean = teil.mean();
  out.stats.teil_stddev = teil.stddev();
  return out;
}

ReplicaReport run_replica(const Netlist& nl, const ReplicaSpec& spec,
                          int replica, const ReplicaSignals& signals) {
  ReplicaReport report;
  report.replica = replica;

  const std::string dir =
      spec.checkpoint_root.empty()
          ? std::string()
          : spec.checkpoint_root + "/replica-" + std::to_string(replica);
  FlowParams base = spec.base;
  if (base.stage2.router.workers == 0)
    base.stage2.router.workers =
        std::max(1, host_workers() / std::max(1, signals.concurrent));
  const std::uint64_t digest = recover::netlist_digest(nl);
  const int max_attempts = std::max(1, spec.max_attempts);
  int rotation = 0;  // cold starts consumed, drives the seed rotation
  // Checkpoint-off degraded mode: once an attempt dies on a checkpoint
  // write failure (full disk, byte quota), later attempts stop *writing*
  // checkpoints instead of dying the same way again — the job still
  // finishes, only crash resumability is lost. Adoption of checkpoints
  // already on disk keeps working, so the retry resumes the dead
  // attempt's progress first.
  bool checkpoints_off = false;

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    AttemptRecord rec;
    rec.attempt = attempt;
    rec.watchdog_allowance = spec.watchdog.allowance(attempt);
    rec.checkpoints_disabled = checkpoints_off;

    // Retry policy: resume from the newest *valid* checkpoint of a
    // previous attempt when one survives (adopt_checkpoint skips torn or
    // bit-rotted files and checkpoints from a different netlist — a stale
    // directory is treated as absent); cold-restart on the next rotated
    // seed otherwise. With `adopt` (the placement service's
    // crash-recovery path) even the first attempt adopts a surviving
    // checkpoint, so a job killed mid-anneal continues instead of
    // restarting from scratch.
    std::optional<recover::FlowCheckpoint> cp;
    if (!dir.empty() && (attempt > 0 || signals.adopt))
      cp = recover::adopt_checkpoint(dir, digest);
    rec.resumed = cp.has_value();
    if (cp) {
      // Resuming binds the attempt to the seed the checkpoint was taken
      // under; rotation applies only to cold restarts.
      rec.seed = cp->master_seed;
    } else {
      rec.seed = derive_attempt_seed(spec.master_seed, replica, rotation);
      ++rotation;
    }

    FlowParams params = base;
    params.seed = rec.seed;
    params.recover = {};
    params.recover.checkpoint_dir = checkpoints_off ? "" : dir;
    params.recover.checkpoint_every = spec.checkpoint_every;
    params.recover.checkpoint_keep = spec.checkpoint_keep;
    params.recover.checkpoint_quota_bytes = spec.checkpoint_quota_bytes;
    params.recover.disk_faults = spec.disk_faults;
    params.recover.on_progress = signals.on_progress;
    recover::RunBudget budget(spec.budget_moves, spec.budget_steps);
    params.recover.budget = &budget;
    ReplicaProbe probe(replica, attempt, budget, rec.watchdog_allowance,
                       signals.faults, signals.cancel, signals.preempt);
    params.recover.faults = &probe;

    Placement placement(nl);
    bool usable = false;
    try {
      TimberWolfMC flow(nl, params);
      const FlowResult fr =
          cp ? flow.resume(placement, *cp) : flow.run(placement);
      rec.flow_outcome = fr.outcome;
      const ValidationReport vr = validate_placement(placement);
      if (!vr.ok()) {
        rec.outcome = AttemptOutcome::kInvalid;
        rec.error = vr.str();
      } else {
        switch (fr.outcome) {
          case recover::RunOutcome::kBudgetExhausted:
            rec.outcome = AttemptOutcome::kBudgetExhausted;
            break;
          case recover::RunOutcome::kCancelled:
            rec.outcome = AttemptOutcome::kCancelled;
            break;
          default:
            rec.outcome = AttemptOutcome::kCompleted;
        }
        usable = true;
        report.flow = fr;
      }
    } catch (const recover::Preempted&) {
      // Not a failure: the replica is parked at a just-written checkpoint.
      // Unwind to the executor, which re-queues it to resume later.
      throw;
    } catch (const recover::InjectedFault& e) {
      rec.outcome = AttemptOutcome::kFaultKilled;
      rec.error = e.what();
    } catch (const WatchdogExpired& e) {
      rec.outcome = AttemptOutcome::kWatchdogExpired;
      rec.error = e.what();
    } catch (const recover::CheckpointError& e) {
      rec.outcome = AttemptOutcome::kCheckpointError;
      rec.error = e.what();
      // The *write* path failed; stop writing checkpoints on later
      // attempts rather than tripping over the same disk again. (A
      // checkpoint that fails to *load* is skipped by adopt_checkpoint,
      // not thrown, so this cannot misfire on read problems.)
      checkpoints_off = true;
    } catch (const std::exception& e) {
      rec.outcome = AttemptOutcome::kError;
      rec.error = e.what();
    }
    rec.moves = budget.moves_charged();
    rec.steps = budget.steps_charged();
    report.attempts.push_back(rec);

    if (usable) {
      report.outcome = ReplicaOutcome::kSucceeded;
      report.checkpoint_off = checkpoints_off;
      report.placement = recover::pack_placement(placement);
      report.fingerprint = result_fingerprint(placement, report.flow);
      report.final_teil = report.flow.final_teil;
      report.final_chip_area = report.flow.final_chip_area;
      return report;
    }

    // An invalid result is fully deterministic: resuming its checkpoint
    // would replay the same bytes to the same invalid end state. Wipe the
    // directory so the retry cold-starts on a rotated seed instead.
    if (rec.outcome == AttemptOutcome::kInvalid && !dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
    log_warn("pool replica ", replica, " attempt ", attempt, " failed (",
             to_string(rec.outcome), "): ", rec.error);

    // A cancelled pool stops retrying: the point of cancellation is to
    // hand back whatever survives, now.
    if (signals.cancel != nullptr &&
        signals.cancel->load(std::memory_order_relaxed))
      break;
  }

  report.outcome = ReplicaOutcome::kFailed;
  report.checkpoint_off = checkpoints_off;
  return report;
}

}  // namespace tw::pool
