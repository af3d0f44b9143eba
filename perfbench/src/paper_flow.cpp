// paper_flow: TimberWolfMC::run on two of the paper's circuits, p1 once
// and i3 under three annealing seeds, single-threaded, at A_c = 5 (stage
// 1 and stage 2), p2_samples = 8 and router M = 8. The global router does
// most of the work at this effort. The circuits are the two light ones: a
// visit to all four items takes about 0.6 s, so every temperature step is
// timed about forty times in a run and its best reading is a steady one.
// i1 takes about 0.9 s, x1, i2, d1 and d3 1-3 s each, l1 and d2 much
// longer; with i1 added a step got a dozen samples and the workload's time
// moved by a fifth between runs of the same seed, against 8 % without it.
// i3's run time moves by up to a fifth from one seed to the next, so it
// runs under three seeds and the median item (job_p50_ms) is the middle
// one of them.
#include "pool/replica.hpp"
#include "util/rng.hpp"
#include "workload/paper_circuits.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Item names; the first two letters name the circuit, and the whole name
/// derives the item's annealing seed.
const std::vector<std::string> kItems = {"p1", "i3", "i3b", "i3c"};

std::string circuit_of(const std::string& item) { return item.substr(0, 2); }

/// p1 runs untimed first. Each visit then times one run of its item (p1
/// about 0.3 s, i3 about 0.1 s), over at least eight cycles, and the inputs
/// (about 3 ms to build) are set up after every visit.
const BatchPlan kPlan{1, 8, 1, {}};

/// Untraced and traced runs per item behind trace.overhead_s.
constexpr int kOverheadRounds = 6;

}  // namespace

void run_paper_flow(const Options& opt, Tracer& tr, Report& rep) {
  const std::vector<std::string>& names = kItems;
  const std::size_t n = names.size();
  const auto params_of = [&](std::size_t i) {
    return paper_flow_params(tw::derive_seed(opt.seed, "flow/" + names[i]));
  };
  std::vector<Input> inputs;
  const auto build = [&](std::size_t i) {
    return make_input(names[i], tw::generate_circuit(
                                    tw::paper_circuit(circuit_of(names[i])).spec));
  };
  const auto run_item = [&](std::size_t i) {
    const tw::Netlist& nl = inputs[i].nl;
    tw::Placement p(nl);
    ItemRun run;
    double t0 = 0.0;
    tw::FlowParams fp = params_of(i);
    // A progress mark at every temperature step of both stages (pure
    // observations: the run stays byte-identical) for per-step timing.
    fp.recover.checkpoint_every = 1;
    fp.recover.on_progress = [&](const tw::FlowProgress&) {
      run.marks.push_back(now_s() - t0);
    };
    tw::TimberWolfMC flow(nl, fp);
    t0 = now_s();
    const tw::FlowResult r = flow.run(p);
    run.seconds = now_s() - t0;
    if (r.outcome != tw::recover::RunOutcome::kCompleted)
      rep.fail(names[i] + ": outcome " + tw::recover::to_string(r.outcome));
    check_placement(p, names[i], rep);
    run.fp = item_fingerprint(r.final_teil, r.final_chip_area,
                              tw::pool::result_fingerprint(p, r));
    run.teil = r.final_teil;
    run.area = static_cast<double>(r.final_chip_area);
    run.placement = tw::recover::pack_placement(p);
    return run;
  };
  const BatchResult b =
      run_batch(opt, inputs, names, build, run_item, kPlan, rep);
  report_batch(b, names, rep);
  if (!tr.on()) return;

  // Traced pass: the same flows composed from their layer calls, checked
  // byte-identical against the untraced results. The first traced round of
  // each item records its spans and replays; later rounds only time the
  // flow, against untraced runs on the same CPU, for the overhead.
  FlowLayers acc;
  double traced_flow_s = 0.0;
  const auto traced = [&](std::size_t i, int round) {
    Tracer scratch(true);
    FlowLayers scratch_acc;
    const bool first = round == 0;
    const tw::Netlist& nl = inputs[i].nl;
    tw::Placement p(nl);
    tw::FlowResult r;
    const Composed c =
        run_flow_composed(nl, params_of(i), first ? tr : scratch, names[i], -1,
                          first, first ? acc : scratch_acc, p, r, rep);
    if (item_fingerprint(r.final_teil, r.final_chip_area, c.digest) !=
        b.last[i].fp)
      rep.fail(names[i] + ": composed flow differs from TimberWolfMC::run");
    if (first) traced_flow_s += c.seconds;
    return c.seconds;
  };
  const double overhead = tracing_overhead(
      n, kOverheadRounds, [&](std::size_t i) { return run_item(i).seconds; },
      traced);
  double flow_s = 0.0, load_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    flow_s += b.flow_s[i];
    load_s += b.hit_s[i];
  }
  // Unattributed: flow time outside the two layer calls.
  const double unattributed = tr.self_time("flow");
  // Route share against the traced flows the replays were scaled to.
  report_flow_layers(acc, traced_flow_s, rep);
  rep.metric("recover.save_s", b.save_s, "s");
  rep.metric("recover.load_s", load_s, "s");
  rep.metric("recover.checkpoint_bytes", b.bytes, "bytes");
  rep.metric("netlist.parse_s", b.parse_s, "s");
  rep.metric("trace.unattributed_s", unattributed, "s");
  rep.metric("trace.unattributed_frac", unattributed / traced_flow_s, "ratio");
  rep.metric("trace.overhead_s", overhead, "s");
  rep.metric("trace.overhead_frac", overhead / flow_s, "ratio");
}

}  // namespace perfbench
