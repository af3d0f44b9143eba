#include "pool/pool.hpp"

#include <algorithm>
#include <utility>

#include "check/contracts.hpp"
#include "pool/workers.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace tw::pool {

PoolError::PoolError(const std::string& what,
                     std::vector<ReplicaReport> replicas)
    : std::runtime_error(what), replicas_(std::move(replicas)) {}

ReplicaPool::ReplicaPool(const Netlist& nl, PoolParams params)
    : nl_(nl), params_(std::move(params)) {
  TW_REQUIRE(params_.replicas >= 1, "replicas=", params_.replicas);
  TW_REQUIRE(params_.max_attempts >= 1,
             "max_attempts=", params_.max_attempts);
}

PoolResult ReplicaPool::run(Placement& placement) {
  TW_REQUIRE(&placement.netlist() == &nl_,
             "placement was built on a different netlist");

  const int n = params_.replicas;
  int threads = params_.threads > 0 ? params_.threads
                                    : std::min(n, host_workers());
  threads = std::clamp(threads, 1, n);

  std::vector<ReplicaReport> reports(static_cast<std::size_t>(n));

  // Replica `id` runs as crew slot `id` and writes only reports[id]; the
  // crew's run() barrier publishes every slot to this thread. No other
  // state is shared — the netlist is immutable after construction and
  // each replica owns its placement, RNG streams, budget and checkpoint
  // directory. The capture list is explicit (enforced by semlint's
  // pool-capture check): const views of the immutable inputs, the cancel
  // atomic, and the disjoint-slot report vector.
  const PoolParams& params = params_;
  const Netlist& nl = nl_;
  std::atomic<bool>& cancel = cancel_;
  // `threads` replicas run at once, so each routes on its share of the
  // host's cores unless the caller fixed the router's worker count.
  const int router_workers = std::max(1, host_workers() / threads);
  const WorkerCrew::Job replica = [router_workers, &params, &nl, &cancel,
                                   &reports](int /*worker*/, int id) {
    ReplicaConfig cfg;
    cfg.replica = id;
    cfg.master_seed = params.master_seed;
    cfg.base = params.base;
    if (cfg.base.stage2.router.workers == 0)
      cfg.base.stage2.router.workers = router_workers;
    cfg.max_attempts = params.max_attempts;
    cfg.watchdog = params.watchdog;
    cfg.budget_moves = params.budget_moves;
    cfg.budget_steps = params.budget_steps;
    if (!params.checkpoint_root.empty())
      cfg.checkpoint_dir =
          params.checkpoint_root + "/replica-" + std::to_string(id);
    cfg.checkpoint_every = params.checkpoint_every;
    cfg.checkpoint_keep = params.checkpoint_keep;
    cfg.faults = params.fault_for ? params.fault_for(id) : nullptr;
    cfg.cancel = &cancel;
    ReplicaReport& slot = reports[static_cast<std::size_t>(id)];
    try {
      slot = run_replica(nl, cfg);
    } catch (const std::exception& e) {
      // run_replica absorbs flow failures itself; anything reaching here
      // (bad_alloc, a throwing contract trap) still must not take the
      // pool down — record it as a failed replica.
      slot = failed_report(id, e.what());
    }
  };
  WorkerCrew crew(threads);
  crew.run(n, replica);

  PoolResult out;
  out.replicas = std::move(reports);
  RunningStats teil;
  for (const ReplicaReport& r : out.replicas) {
    out.stats.attempts += static_cast<int>(r.attempts.size());
    out.stats.retries +=
        std::max(0, static_cast<int>(r.attempts.size()) - 1);
    if (r.outcome != ReplicaOutcome::kSucceeded) {
      ++out.stats.failed;
      continue;
    }
    ++out.stats.succeeded;
    teil.add(r.final_teil);
  }
  const int best = select_best(out.replicas);
  if (best < 0)
    throw PoolError("replica pool: all " + std::to_string(n) +
                        " replica(s) exhausted their retries",
                    std::move(out.replicas));
  out.best = best;
  out.stats.teil_best = teil.min();
  out.stats.teil_worst = teil.max();
  out.stats.teil_mean = teil.mean();
  out.stats.teil_stddev = teil.stddev();

  recover::apply_placement(placement, out.best_report().placement);
  log_info("replica pool: ", out.stats.succeeded, "/", n,
           " replica(s) succeeded in ", out.stats.attempts,
           " attempt(s); best teil=", out.stats.teil_best,
           " (replica ", best, "), mean=", out.stats.teil_mean);
  return out;
}

}  // namespace tw::pool
