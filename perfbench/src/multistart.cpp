// multistart: ReplicaPool running 4 replicas of p1 at the paper_flow
// effort, with a checkpoint root. The only workload that runs the pool's
// own thread loop and writes checkpoints of a paper-circuit placement.
// The pool runs once on 2 threads (warm-up, and the reference its best
// replica must match), then is timed on one worker thread: about 1 s a
// pool run, so a run times it about twenty-five times. A 2-thread pool's
// wall time moved by a fifth between runs of the same work, with the two
// workers sometimes slowing each other on the host. p1 rather than i3:
// i3's run time moves by up to a fifth from one replica seed to the next,
// p1's by under 5 %.
#include <thread>

#include "pool/pool.hpp"
#include "recover/fault.hpp"
#include "util/rng.hpp"
#include "workload/paper_circuits.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kReplicas = 4;
constexpr int kThreads = 2;
/// Input set-ups after each replica's reloads: one p1 build takes about
/// 1 ms, so setup_s needs many samples, spread over the run, to settle.
constexpr int kSetupsPerReplica = 5;

/// Records the times of one replica's temperature-step and pass
/// boundaries (see StepTimes). It never throws, so the run is unchanged.
class StepMarker final : public tw::recover::FaultInjector {
 public:
  void poll(tw::recover::FaultSite site) override {
    using tw::recover::FaultSite;
    if (site == FaultSite::kStage1Step || site == FaultSite::kStage2Step ||
        site == FaultSite::kStage2Pass)
      marks.push_back(now_s());
  }

  std::vector<double> marks;
};

/// One pool run with per-replica wall times. The pool calls fault_for
/// from the worker thread right before each replica starts, so a
/// replica ends where the next one on its thread starts, or at the end
/// of the run.
struct PoolRun {
  tw::pool::PoolResult result;
  tw::recover::PackedPlacement best;
  double t0 = 0.0;
  double wall_s = 0.0;
  std::vector<double> replica_s;
  std::vector<double> start;
  std::vector<std::vector<double>> marks;  ///< per replica, from its start
};

PoolRun run_pool(const Input& in, std::uint64_t seed, int threads,
                 const std::string& root) {
  struct Start {
    double t = 0.0;
    std::thread::id thread;
  };
  std::mutex mu;
  std::vector<Start> starts(kReplicas);
  std::vector<StepMarker> markers(kReplicas);
  tw::pool::PoolParams pp;
  pp.replicas = kReplicas;
  pp.threads = threads;
  pp.master_seed = seed;
  pp.base = paper_flow_params(seed);
  pp.checkpoint_root = root;
  pp.fault_for = [&](int id) -> tw::recover::FaultInjector* {
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu);
    starts[static_cast<std::size_t>(id)] = {t, std::this_thread::get_id()};
    return &markers[static_cast<std::size_t>(id)];
  };
  PoolRun run;
  tw::Placement p(in.nl);
  tw::pool::ReplicaPool pool(in.nl, pp);
  const double t0 = now_s();
  run.result = pool.run(p);
  const double t1 = now_s();
  run.t0 = t0;
  run.wall_s = t1 - t0;
  run.best = tw::recover::pack_placement(p);
  for (int i = 0; i < kReplicas; ++i) {
    const Start& s = starts[static_cast<std::size_t>(i)];
    double end = t1;
    for (const Start& o : starts)
      if (o.thread == s.thread && o.t > s.t) end = std::min(end, o.t);
    run.replica_s.push_back(end - s.t);
    run.start.push_back(s.t);
    std::vector<double> marks;
    for (const double m : markers[static_cast<std::size_t>(i)].marks)
      marks.push_back(m - s.t);
    run.marks.push_back(std::move(marks));
  }
  return run;
}

/// Records every failed check of one pool run; returns the best
/// replica's fingerprint.
std::string check_run(const PoolRun& run, const Input& in, Report& rep) {
  const tw::pool::PoolResult& r = run.result;
  rep.attempted += kReplicas;
  for (const tw::pool::ReplicaReport& rr : r.replicas)
    if (rr.outcome != tw::pool::ReplicaOutcome::kSucceeded)
      rep.fail("replica " + std::to_string(rr.replica) + " failed");
    else if (rr.flow.outcome != tw::recover::RunOutcome::kCompleted)
      rep.fail("replica " + std::to_string(rr.replica) + ": outcome " +
               tw::recover::to_string(rr.flow.outcome));
  tw::Placement p(in.nl);
  tw::recover::apply_placement(p, run.best);
  check_placement(p, "best", rep);
  const tw::pool::ReplicaReport& b = r.best_report();
  return item_fingerprint(b.final_teil, b.final_chip_area, b.fingerprint);
}

}  // namespace

void run_multistart(const Options& opt, Tracer& tr, Report& rep) {
  const auto build = [] {
    return make_input("p1", tw::generate_circuit(tw::paper_circuit("p1").spec));
  };
  std::vector<double> setups;
  double t0 = now_s();
  const Input input = build();
  setups.push_back(now_s() - t0);
  const std::uint64_t seed = tw::derive_seed(opt.seed, "flow/p1");
  int runs = 0;
  const auto root = [&] { return fresh_dir(opt, "pool" + std::to_string(runs++)); };

  // Warm-up: the same pool on two threads. The best result must not
  // depend on the thread count.
  const PoolRun duo = run_pool(input, seed, kThreads, root());
  const std::string duo_fp = check_run(duo, input, rep);

  // Timed passes: replica latencies (per step, see StepTimes) and the
  // pool's own time outside its replicas (start-up before the first),
  // each the best of the run, with reloads of every replica's stored
  // result, each followed by input set-ups. On one thread the pool's wall
  // time is that own time plus its replicas' times.
  std::vector<StepTimes> steps(kReplicas);
  std::vector<double> hit_best(kReplicas, kNoSample);
  double glue_best = kNoSample;
  const std::string store = fresh_dir(opt, "replicas");
  std::vector<StoredResult> stored;
  std::vector<double> stored_teil;
  std::vector<std::string> fps;
  double save_s = 0.0, bytes = 0.0;
  PoolRun last;
  const double window = now_s();
  for (int pass = 0; pass < 8 || now_s() - window < opt.seconds; ++pass) {
    last = run_pool(input, seed, 1, root());
    if (check_run(last, input, rep) != duo_fp)
      rep.fail("best replica differs between 1 and 2 threads");
    double replicas_s = 0.0;
    for (const double s : last.replica_s) replicas_s += s;
    keep_best(glue_best, last.wall_s - replicas_s);
    for (int i = 0; i < kReplicas; ++i) {
      const auto k = static_cast<std::size_t>(i);
      const tw::pool::ReplicaReport& rr = last.result.replicas[k];
      const std::string fp =
          item_fingerprint(rr.final_teil, rr.final_chip_area, rr.fingerprint);
      if (!steps[k].add(last.marks[k], last.replica_s[k]))
        rep.fail("replica " + std::to_string(i) + ": step count differs between runs");
      if (pass == 0) {
        const std::string item = "replica" + std::to_string(i);
        tw::Placement p(input.nl);
        tw::recover::apply_placement(p, rr.placement);
        stored.push_back(store_result(p, opt.seed, item, store + "/" + item));
        stored_teil.push_back(p.teil());
        fps.push_back(fp);
        save_s += stored.back().save_s;
        bytes += static_cast<double>(stored.back().bytes);
      } else if (fp != fps[k]) {
        rep.fail("replica " + std::to_string(i) + ": result differs between runs");
      }
      time_reloads(input.nl, stored[k], stored_teil[k], hit_best[k], rep);
      for (int s = 0; s < kSetupsPerReplica; ++s) {
        t0 = now_s();
        (void)build();
        setups.push_back(now_s() - t0);
      }
    }
  }

  const tw::pool::ReplicaReport& best = last.result.best_report();
  for (int i = 0; i < kReplicas; ++i)
    rep.item("replica" + std::to_string(i), fps[static_cast<std::size_t>(i)]);
  rep.item("best", duo_fp);

  std::vector<double> replica_best, replica_ms, hit_ms;
  double load_s = 0.0, flow_s = glue_best;
  for (int i = 0; i < kReplicas; ++i) {
    replica_best.push_back(steps[static_cast<std::size_t>(i)].total());
    flow_s += replica_best.back();
    replica_ms.push_back(1e3 * replica_best.back());
    hit_ms.push_back(1e3 * hit_best[static_cast<std::size_t>(i)]);
    load_s += hit_best[static_cast<std::size_t>(i)];
  }
  rep.metric("flow_s", flow_s, "s");
  rep.metric("flow_geomean_s", geomean(replica_best), "s");
  rep.metric("job_p50_ms", percentile(replica_ms, 0.5), "ms");
  rep.metric("job_p90_ms", percentile(replica_ms, 0.9), "ms");
  rep.metric("hit_p50_ms", percentile(hit_ms, 0.5), "ms");
  rep.metric("jobs_per_s", kReplicas / flow_s, "1/s");
  rep.metric("teil_geomean", best.final_teil, "DBU");
  rep.metric("area_geomean", static_cast<double>(best.final_chip_area), "DBU2");
  rep.metric("setup_s", best_of(setups), "s");
  if (!tr.on()) return;

  // Traced: a 1-thread and a 2-thread run back to back for the scaling
  // efficiency. Replica spans are rebuilt from the start stamps and run to
  // each replica's last step mark.
  const PoolRun one = run_pool(input, seed, 1, root());
  const PoolRun two = run_pool(input, seed, kThreads, root());
  check_run(one, input, rep);
  check_run(two, input, rep);
  double busy = 0.0;
  const int run_span = tr.add("pool.run", "p1", two.t0, two.t0 + two.wall_s);
  for (int i = 0; i < kReplicas; ++i) {
    const auto k = static_cast<std::size_t>(i);
    const double active =
        two.marks[k].empty() ? two.replica_s[k] : two.marks[k].back();
    tr.add("pool.replica", "replica" + std::to_string(i), two.start[k],
           two.start[k] + active, run_span);
    busy += active;
  }
  rep.metric("pool.replica_s", median(two.replica_s), "s");
  rep.metric("pool.scaling_eff", one.wall_s / (kThreads * two.wall_s), "ratio");
  rep.metric("pool.attempts", two.result.stats.attempts, "count");
  rep.metric("pool.retries", two.result.stats.retries, "count");
  rep.metric("recover.save_s", save_s, "s");
  rep.metric("recover.load_s", load_s, "s");
  rep.metric("recover.checkpoint_bytes", bytes, "bytes");
  rep.metric("netlist.parse_s", input.parse_s, "s");
  // Unattributed: pool wall time not covered by replica spans on its
  // threads (each replica's last step and wrap-up, idle time from
  // imbalance, thread start/join, selection).
  const double unattributed = two.wall_s - busy / kThreads;
  rep.metric("trace.unattributed_s", unattributed, "s");
  rep.metric("trace.unattributed_frac", unattributed / two.wall_s, "ratio");
  // The traced pool runs exactly as the untraced one (the start stamps are
  // taken in both); its spans are rebuilt afterwards, so tracing adds
  // nothing.
  rep.metric("trace.overhead_s", 0.0, "s");
  rep.metric("trace.overhead_frac", 0.0, "ratio");
}

}  // namespace perfbench
