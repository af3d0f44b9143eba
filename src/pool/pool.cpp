#include "pool/pool.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "check/contracts.hpp"
#include "pool/workers.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace tw::pool {
namespace {

/// Deterministic best-feasible order: lower TEIL, then smaller chip area,
/// then lower replica id (the iteration order makes the id tiebreak
/// implicit via strict improvement).
bool improves(const ReplicaReport& candidate, const ReplicaReport& best) {
  if (candidate.final_teil != best.final_teil)
    return candidate.final_teil < best.final_teil;
  return candidate.final_chip_area < best.final_chip_area;
}

}  // namespace

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
  std::atomic<int> next{0};

  // Each worker claims replica ids off the shared counter and writes only
  // its own report slot; the joins below publish every slot to this
  // thread. No other state is shared — the netlist is immutable after
  // construction and each replica owns its placement, RNG streams, budget
  // and checkpoint directory. The capture list is explicit (enforced by
  // semlint's pool-capture check): const views of the immutable inputs,
  // the two atomics, and the disjoint-slot report vector.
  const PoolParams& params = params_;
  const Netlist& nl = nl_;
  std::atomic<bool>& cancel = cancel_;
  // `threads` replicas run at once, so each routes on its share of the
  // host's cores unless the caller fixed the router's worker count.
  const int router_workers = std::max(1, host_workers() / threads);
  const auto worker = [n, router_workers, &params, &nl, &cancel, &next,
                       &reports]() {
    for (;;) {
      const int id = next.fetch_add(1, std::memory_order_relaxed);
      if (id >= n) return;
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
      try {
        reports[static_cast<std::size_t>(id)] = run_replica(nl, cfg);
      } catch (const std::exception& e) {
        // run_replica absorbs flow failures itself; anything reaching
        // here (bad_alloc, a throwing contract trap) still must not take
        // the pool down — record it as a failed replica.
        ReplicaReport& r = reports[static_cast<std::size_t>(id)];
        r.replica = id;
        r.outcome = ReplicaOutcome::kFailed;
        AttemptRecord rec;
        rec.attempt = static_cast<int>(r.attempts.size());
        rec.outcome = AttemptOutcome::kError;
        rec.error = e.what();
        r.attempts.push_back(std::move(rec));
      }
    }
  };

  {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) workers.emplace_back(worker);
    for (std::thread& t : workers) t.join();
  }

  PoolResult out;
  out.replicas = std::move(reports);
  RunningStats teil;
  int best = -1;
  for (int i = 0; i < n; ++i) {
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
    if (best < 0 ||
        improves(r, out.replicas[static_cast<std::size_t>(best)]))
      best = i;
  }
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
