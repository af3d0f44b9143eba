// soc_multilevel: MultilevelFlow with ClusterWarmStart on the SoC tier
// k1k, single-threaded, under a 60-moves-per-cell RunBudget (a work
// budget, so the result is exact for a seed). Stage-1 move evaluation, the
// overlap bin grid and clustering do all the work; the router does none.
// One flow takes about 1 s, so a run times it about twenty times. The
// k4k tier (about 5 s a flow even at this budget, 0.3 s to build) left
// too few samples per run to be steady.
#include "fingerprint.hpp"
#include "flow/multilevel.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

const std::vector<std::string> kTiers = {"k1k"};
const std::vector<tw::SocTier> kTierSizes = {tw::SocTier::k1k};

constexpr std::int64_t kMovesPerCell = 60;

/// k1k runs untimed first, then at least eight timed runs, each followed
/// by a build of the input (about 70 ms).
const BatchPlan kPlan{1, 8, 1, {}};

/// Untraced and traced runs per tier behind trace.overhead_s.
constexpr int kOverheadRounds = 4;

tw::Stage1Params anneal_params(std::size_t cells) {
  tw::Stage1Params sp;
  // ~960 attempted moves per temperature step, floor 2 per cell.
  sp.attempts_per_cell =
      std::max(2, 960 / static_cast<int>(std::max<std::size_t>(1, cells)));
  sp.p2_samples = 6;
  return sp;
}

/// Times the warm start (ClusterWarmStart::prepare) of a traced flow.
class TimedWarmStart final : public tw::WarmStart {
 public:
  TimedWarmStart(tw::WarmStart& inner, Tracer& tr, std::string item,
                 int parent)
      : inner_(inner), tr_(tr), item_(std::move(item)), parent_(parent) {}

  const char* name() const override { return inner_.name(); }

  tw::WarmStartInfo prepare(tw::Placement& placement, const tw::Rect& core,
                            std::uint64_t seed,
                            tw::recover::RunBudget* budget) override {
    const double t0 = now_s();
    tw::WarmStartInfo info = inner_.prepare(placement, core, seed, budget);
    end = now_s();
    seconds += end - t0;
    tr_.add("flow.warm", item_, t0, end, parent_);
    return info;
  }

  double seconds = 0.0;
  double end = 0.0;

 private:
  tw::WarmStart& inner_;
  Tracer& tr_;
  std::string item_;
  int parent_;
};

struct TierRun {
  ItemRun run;
  tw::MultilevelResult result;
  double start = 0.0, end = 0.0;  ///< around MultilevelFlow::run
};

/// One multilevel flow on `nl`; `traced_warm` replaces the cluster warm
/// start with its timed decorator.
TierRun run_tier(const tw::Netlist& nl, std::uint64_t seed,
                 tw::WarmStart* traced_warm, Report& rep,
                 const std::string& item) {
  const tw::Stage1Params sp = anneal_params(nl.num_cells());
  tw::ClusterWarmStart cluster({}, sp);
  tw::recover::RunBudget budget(
      kMovesPerCell * static_cast<std::int64_t>(nl.num_cells()),
      tw::recover::RunBudget::kUnlimited);
  tw::MultilevelParams mp;
  mp.refine = sp;
  mp.seed = seed;
  mp.recover.budget = &budget;
  TierRun out;
  double t0 = 0.0;
  // A progress mark at every refinement step (pure observations: the run
  // stays byte-identical) for per-step timing.
  mp.recover.checkpoint_every = 1;
  mp.recover.on_progress = [&](const tw::FlowProgress&) {
    out.run.marks.push_back(now_s() - t0);
  };
  tw::MultilevelFlow flow(nl, traced_warm ? *traced_warm : cluster, mp);
  tw::Placement p(nl);
  t0 = now_s();
  out.result = flow.run(p);
  out.start = t0;
  out.end = now_s();
  out.run.seconds = out.end - t0;
  const auto o = out.result.outcome;
  if (o != tw::recover::RunOutcome::kCompleted &&
      o != tw::recover::RunOutcome::kBudgetExhausted)
    rep.fail(item + ": outcome " + tw::recover::to_string(o));
  check_placement(p, item, rep);
  out.run.placement = tw::recover::pack_placement(p);
  out.run.teil = out.result.final_teil;
  out.run.area = static_cast<double>(out.result.final_chip_area);
  out.run.fp = item_fingerprint(out.result.final_teil,
                                out.result.final_chip_area,
                                fnv1a(tw::testing::fingerprint(p, out.result)));
  return out;
}

}  // namespace

void run_soc_multilevel(const Options& opt, Tracer& tr, Report& rep) {
  const std::size_t n = kTiers.size();
  const auto seed_of = [&](std::size_t i) {
    return tw::derive_seed(opt.seed, "flow/" + kTiers[i]);
  };
  std::vector<Input> inputs;
  const auto build = [](std::size_t i) {
    return make_input(kTiers[i],
                      tw::generate_circuit(tw::soc_circuit(kTierSizes[i])));
  };
  const auto run_item = [&](std::size_t i) {
    return run_tier(inputs[i].nl, seed_of(i), nullptr, rep, kTiers[i]).run;
  };
  const BatchResult b =
      run_batch(opt, inputs, kTiers, build, run_item, kPlan, rep);
  report_batch(b, kTiers, rep);
  if (!tr.on()) return;

  // Traced pass: the warm start timed through a decorator, the rest of
  // the flow is the warm-started refinement (with its temperature probe).
  // The first traced round of each tier records its spans; later rounds
  // only time the flow, against untraced runs on the same CPU, for the
  // overhead.
  double warm_s = 0.0, refine_s = 0.0, traced_s = 0.0, attempts = 0.0;
  double coarse_attempts = 0.0;
  std::vector<int> flow_clusters(n);
  const auto traced = [&](std::size_t i, int round) {
    Tracer scratch(true);
    Tracer& t = round == 0 ? tr : scratch;
    const tw::Netlist& nl = inputs[i].nl;
    const std::string& item = kTiers[i];
    tw::ClusterWarmStart cluster({}, anneal_params(nl.num_cells()));
    const int flow_span = t.open("flow", item);
    TimedWarmStart timed(cluster, t, item, flow_span);
    const TierRun o = run_tier(nl, seed_of(i), &timed, rep, item);
    t.set(flow_span, o.start, o.end);
    t.add("flow.refine", item, timed.end, o.end, flow_span);
    if (o.run.fp != b.last[i].fp)
      rep.fail(item + ": traced flow differs from the untraced one");
    if (round == 0) {
      traced_s += o.run.seconds;
      warm_s += timed.seconds;
      refine_s += o.end - timed.end;
      flow_clusters[i] = o.result.warm.clusters;
      attempts += static_cast<double>(o.result.refine.attempts);
      coarse_attempts += static_cast<double>(o.result.warm.coarse.attempts);
    }
    return o.run.seconds;
  };
  const double overhead = tracing_overhead(
      n, kOverheadRounds, [&](std::size_t i) { return run_item(i).seconds; },
      traced);

  // Clustering replayed with each flow's derived seed and degree cap.
  double cluster_s = 0.0, clusters = 0.0, degree = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const tw::Netlist& nl = inputs[i].nl;
    const std::string& item = kTiers[i];
    tw::ClusterParams cp;
    cp.seed = tw::derive_seed(tw::derive_seed(seed_of(i), "warm"), "cluster");
    cp.max_aggregated_degree = tw::kDefaultAggregatedDegreeCap;
    const double a = now_s();
    const tw::Clustering c = tw::cluster_netlist(nl, cp);
    const double z = now_s();
    tr.add("cluster.cluster", item, a, z);
    cluster_s += z - a;
    clusters += static_cast<double>(c.coarse.num_cells());
    if (static_cast<int>(c.coarse.num_cells()) != flow_clusters[i])
      rep.fail(item + ": clustering replay differs from the flow's");
    for (const tw::Net& net : c.coarse.nets())
      degree = std::max(degree, static_cast<double>(net.pins.size()));
  }
  double flow_s = 0.0, load_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    flow_s += b.flow_s[i];
    load_s += b.hit_s[i];
  }
  const double anneal_s = refine_s + (warm_s - cluster_s);
  rep.metric("place.stage1_s", anneal_s, "s");
  rep.metric("place.attempts", attempts + coarse_attempts, "count");
  rep.metric("place.moves_per_s", (attempts + coarse_attempts) / anneal_s, "1/s");
  rep.metric("cluster.cluster_s", cluster_s, "s");
  rep.metric("cluster.clusters", clusters, "count");
  rep.metric("cluster.max_coarse_degree", degree, "count");
  rep.metric("flow.warm_s", warm_s, "s");
  rep.metric("flow.refine_s", refine_s, "s");
  rep.metric("flow.refine_moves_per_s", attempts / refine_s, "1/s");
  rep.metric("recover.save_s", b.save_s, "s");
  rep.metric("recover.load_s", load_s, "s");
  rep.metric("recover.checkpoint_bytes", b.bytes, "bytes");
  rep.metric("netlist.parse_s", b.parse_s, "s");
  rep.metric("trace.route_share", 0.0, "ratio");
  const double unattributed = tr.self_time("flow");
  rep.metric("trace.unattributed_s", unattributed, "s");
  rep.metric("trace.unattributed_frac", unattributed / traced_s, "ratio");
  rep.metric("trace.overhead_s", overhead, "s");
  rep.metric("trace.overhead_frac", overhead / flow_s, "ratio");
}

}  // namespace perfbench
