#include "pool/pool.hpp"

#include <algorithm>
#include <utility>

#include "check/contracts.hpp"
#include "pool/workers.hpp"
#include "util/log.hpp"

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
  const WorkerCrew::Job replica = [threads, &params, &nl, &cancel,
                                   &reports](int /*worker*/, int id) {
    ReplicaSignals signals;
    signals.concurrent = threads;
    signals.faults = params.fault_for ? params.fault_for(id) : nullptr;
    signals.cancel = &cancel;
    ReplicaReport& slot = reports[static_cast<std::size_t>(id)];
    try {
      slot = run_replica(nl, params, id, signals);
    } catch (const std::exception& e) {
      // run_replica absorbs flow failures itself; anything reaching here
      // (bad_alloc, a throwing contract trap) still must not take the
      // pool down — record it as a failed replica.
      slot = failed_report(id, e.what());
    }
  };
  WorkerCrew crew(threads);
  crew.run(n, replica);

  PoolResult out = roll_up(std::move(reports));
  if (!out.ok())
    throw PoolError("replica pool: all " + std::to_string(n) +
                        " replica(s) exhausted their retries",
                    std::move(out.replicas));

  recover::apply_placement(placement, out.best_report().placement);
  log_info("replica pool: ", out.stats.succeeded, "/", n,
           " replica(s) succeeded in ", out.stats.attempts,
           " attempt(s); best teil=", out.stats.teil_best,
           " (replica ", out.best, "), mean=", out.stats.teil_mean);
  return out;
}

}  // namespace tw::pool
