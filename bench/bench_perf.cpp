// Section 5 (cpu time) — performance characteristics.
//
// The paper reports run times proportional to A_c and ranging from 15
// minutes (smallest circuits) to 4 hours (largest) on a DEC MicroVAX II.
// This google-benchmark binary measures the hot paths (overlap
// evaluation, net-span evaluation, shortest paths, channel definition)
// and the macro-level stage-1 throughput as a function of circuit size,
// which documents the same proportionality on modern hardware.
//
// The Stage1MoveThroughput family additionally records moves/sec per
// workload size and, after the run, emits a machine-readable
// BENCH_perf.json (into the working directory, or $TW_BENCH_OUT) so the
// perf trajectory is tracked across PRs — see docs/PERF.md.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "channel/channel_graph.hpp"
#include "flow/multilevel.hpp"
#include "place/legalize.hpp"
#include "place/stage1.hpp"
#include "pool/workers.hpp"
#include "recover/budget.hpp"
#include "route/interchange.hpp"
#include "workload/generator.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

/// One measured stage-1 throughput point, keyed by workload size.
struct ThroughputSample {
  int cells = 0;
  int attempts_per_cell = 0;
  long long attempts = 0;
  double seconds = 0.0;
  double moves_per_sec = 0.0;
};

std::map<int, ThroughputSample>& throughput_registry() {
  static std::map<int, ThroughputSample> samples;
  return samples;
}

/// One measured global-router throughput point, keyed by workload size
/// and phase-one worker count. `nets` counts every net handed to
/// GlobalRouter::route (phase one Steiner enumeration + phase two
/// interchange), so nets_per_sec is the end-to-end routing rate of the
/// stage-3 hot path.
struct RouterSample {
  int cells = 0;
  int workers = 0;
  long long nets = 0;
  std::size_t graph_nodes = 0;
  std::size_t graph_edges = 0;
  double seconds = 0.0;
  double nets_per_sec = 0.0;
};

std::map<std::pair<int, int>, RouterSample>& router_registry() {
  static std::map<std::pair<int, int>, RouterSample> samples;
  return samples;
}

/// Stage-1 attempts-per-cell for a throughput run: scaled so every
/// workload size attempts ~960 moves per temperature step (the historic
/// 96-cell point keeps its attempts_per_cell = 10), with a floor of 2 so
/// the SoC-scale points still anneal. Without the scaling the 1000-cell
/// point would attempt 10x the moves of the 96-cell point per step and
/// blow the bench budget.
int scaled_attempts_per_cell(int cells) {
  return std::max(2, 960 / std::max(1, cells));
}

/// One measured multilevel-flow point: a flat stage-1 anneal vs the
/// cluster-warm-started multilevel flow on the same netlist under the
/// same RunBudget (docs/PERF.md "Multilevel flow"). teil_ratio < 1 means
/// the multilevel flow won. The coarse-net degree pair documents the
/// aggregated-degree cap: uncapped, a hub net aggregates into one coarse
/// net touching hundreds of clusters (the 10k tier's former blow-up);
/// capped, no coarse net exceeds kDefaultAggregatedDegreeCap pins.
struct MlSample {
  int cells = 0;
  long long budget_moves = 0;
  int clusters = 0;
  int max_coarse_net_degree = 0;           ///< with the flow's default cap
  int uncapped_max_coarse_net_degree = 0;  ///< same clustering, cap disabled
  double warm_teil = 0.0;
  double ml_teil = 0.0;
  double flat_teil = 0.0;
  double ml_seconds = 0.0;
  double flat_seconds = 0.0;
};

std::map<int, MlSample>& multilevel_registry() {
  static std::map<int, MlSample> samples;
  return samples;
}

/// Writes the throughput registry as BENCH_perf.json. The default path is
/// relative to the working directory: the CI perf step runs from the repo
/// root, so the artifact lands there; the ctest smoke runs from the build
/// tree and leaves the committed root file untouched.
void write_perf_json() {
  if (throughput_registry().empty() && router_registry().empty() &&
      multilevel_registry().empty())
    return;
  const char* env = std::getenv("TW_BENCH_OUT");
  const std::string path = env != nullptr ? env : "BENCH_perf.json";
  std::ofstream out(path);
  if (!out) return;
  out << "{\n"
      << "  \"schema_version\": 6,\n"
      << "  \"suite\": \"bench_perf\",\n"
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"stage1_move_throughput\": [\n";
  bool first = true;
  for (const auto& [cells, s] : throughput_registry()) {
    if (!first) out << ",\n";
    first = false;
    out << "    {\"cells\": " << s.cells
        << ", \"attempts_per_cell\": " << s.attempts_per_cell
        << ", \"attempts\": " << s.attempts
        << ", \"seconds\": " << s.seconds
        << ", \"moves_per_sec\": " << s.moves_per_sec << "}";
  }
  out << "\n  ],\n"
      << "  \"router_throughput\": [\n";
  first = true;
  for (const auto& [key, s] : router_registry()) {
    if (!first) out << ",\n";
    first = false;
    out << "    {\"cells\": " << s.cells
        << ", \"workers\": " << s.workers
        << ", \"nets\": " << s.nets
        << ", \"graph_nodes\": " << s.graph_nodes
        << ", \"graph_edges\": " << s.graph_edges
        << ", \"seconds\": " << s.seconds
        << ", \"nets_per_sec\": " << s.nets_per_sec << "}";
  }
  out << "\n  ],\n"
      << "  \"multilevel_flow\": [\n";
  first = true;
  for (const auto& [cells, s] : multilevel_registry()) {
    if (!first) out << ",\n";
    first = false;
    out << "    {\"cells\": " << s.cells
        << ", \"budget_moves\": " << s.budget_moves
        << ", \"clusters\": " << s.clusters
        << ", \"max_coarse_net_degree\": " << s.max_coarse_net_degree
        << ", \"uncapped_max_coarse_net_degree\": "
        << s.uncapped_max_coarse_net_degree
        << ", \"warm_teil\": " << s.warm_teil
        << ", \"ml_teil\": " << s.ml_teil
        << ", \"flat_teil\": " << s.flat_teil
        << ", \"teil_ratio\": "
        << (s.flat_teil > 0.0 ? s.ml_teil / s.flat_teil : 0.0)
        << ", \"ml_seconds\": " << s.ml_seconds
        << ", \"flat_seconds\": " << s.flat_seconds << "}";
  }
  out << "\n  ]\n}\n";
}

struct PlacedFixture {
  Netlist nl;
  Placement placement;
  Rect core;

  explicit PlacedFixture(int cells) : nl(make_netlist(cells)), placement(nl) {
    DynamicAreaEstimator est(nl);
    core = est.compute_initial_core();
    Rng rng(7);
    placement.randomize(rng, core);
    legalize_spread(placement, core, 2);
  }

  static Netlist make_netlist(int cells) {
    CircuitSpec spec;
    spec.name = "perf";
    spec.num_cells = cells;
    spec.num_nets = cells * 4;
    spec.num_pins = cells * 16;
    spec.mean_cell_dim = 80;
    return generate_circuit(spec);
  }
};

void BM_PairOverlap(benchmark::State& state) {
  PlacedFixture f(24);
  OverlapEngine ov(f.placement, f.core, {});
  CellId i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ov.cell_overlap(i));
    i = static_cast<CellId>((i + 1) % 24);
  }
}
BENCHMARK(BM_PairOverlap);

void BM_NetCost(benchmark::State& state) {
  PlacedFixture f(24);
  NetId n = 0;
  const auto num = static_cast<NetId>(f.nl.num_nets());
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.placement.net_cost(n));
    n = static_cast<NetId>((n + 1) % num);
  }
}
BENCHMARK(BM_NetCost);

void BM_ChannelGraphBuild(benchmark::State& state) {
  PlacedFixture f(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_channel_graph(f.placement, f.core));
  }
}
BENCHMARK(BM_ChannelGraphBuild)->Arg(12)->Arg(24)->Arg(48);

void BM_ShortestPath(benchmark::State& state) {
  PlacedFixture f(24);
  const ChannelGraph cg = build_channel_graph(f.placement, f.core);
  const auto targets = build_net_targets(f.nl, cg);
  std::size_t n = 0;
  for (auto _ : state) {
    const auto& t = targets[n % targets.size()];
    if (t.pins.size() >= 2)
      benchmark::DoNotOptimize(
          shortest_path_between_sets(cg.graph, t.pins[0], t.pins[1]));
    ++n;
  }
}
BENCHMARK(BM_ShortestPath);

void BM_MBestRoutes(benchmark::State& state) {
  PlacedFixture f(24);
  const ChannelGraph cg = build_channel_graph(f.placement, f.core);
  const auto targets = build_net_targets(f.nl, cg);
  std::size_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m_best_routes(cg.graph, targets[n % targets.size()], {4}));
    ++n;
  }
}
BENCHMARK(BM_MBestRoutes);

void BM_GlobalRoute(benchmark::State& state) {
  PlacedFixture f(24);
  const ChannelGraph cg = build_channel_graph(f.placement, f.core);
  const auto targets = build_net_targets(f.nl, cg);
  for (auto _ : state) {
    GlobalRouter router(cg.graph, {{4}, 3});
    benchmark::DoNotOptimize(router.route(targets));
  }
}
BENCHMARK(BM_GlobalRoute);

/// Global-router throughput: the full stage-3 hot path (M-best Steiner
/// enumeration + interchange selection) on a legalized placement's channel
/// graph, reported as nets routed per second of routing time. This is the
/// figure of merit of the router performance core (SearchWorkspace, A*,
/// Lawler deviations, overflow worklist, phase one on a WorkerCrew —
/// docs/PERF.md "Global router"); the second argument is the phase-one
/// worker count. Each iteration builds its router, so the crew's thread
/// start-up is timed as in a flow's pass. The samples are recorded into
/// BENCH_perf.json after the run.
void BM_RouterThroughput(benchmark::State& state) {
  const int cells = static_cast<int>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  PlacedFixture f(cells);
  const ChannelGraph cg = build_channel_graph(f.placement, f.core);
  const auto targets = build_net_targets(f.nl, cg);
  GlobalRouterParams params{{4}, 3};
  params.workers = workers;
  long long nets = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    GlobalRouter router(cg.graph, params);
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(router.route(targets));
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    nets += static_cast<long long>(targets.size());
    seconds += dt.count();
  }
  state.SetItemsProcessed(nets);
  if (seconds > 0.0) {
    const double rate = static_cast<double>(nets) / seconds;
    state.counters["nets_per_sec"] = rate;
    router_registry()[{cells, workers}] = {cells,
                                           workers,
                                           nets,
                                           cg.graph.num_nodes(),
                                           cg.graph.num_edges(),
                                           seconds,
                                           rate};
  }
}
/// Every size on one worker and on the host's size (one row each when the
/// host has a single hardware thread).
void router_throughput_args(benchmark::internal::Benchmark* b) {
  for (int cells : {12, 24, 48, 96}) {
    b->Args({cells, 1});
    if (host_workers() > 1) b->Args({cells, host_workers()});
  }
}
BENCHMARK(BM_RouterThroughput)
    ->Apply(router_throughput_args)
    ->Unit(benchmark::kMillisecond);

void BM_Legalize(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    PlacedFixture f(24);
    Rng rng(11);
    f.placement.randomize(rng, f.core);
    state.ResumeTiming();
    legalize_spread(f.placement, f.core, 2);
  }
}
BENCHMARK(BM_Legalize);

/// Macro benchmark: one full stage-1 run; time should scale with
/// cells * A_c (Eqn 17, and the paper's cpu-time observations).
void BM_Stage1(benchmark::State& state) {
  const Netlist nl = PlacedFixture::make_netlist(static_cast<int>(state.range(0)));
  Stage1Params params;
  params.attempts_per_cell = static_cast<int>(state.range(1));
  params.p2_samples = 8;
  for (auto _ : state) {
    Placement placement(nl);
    Stage1Placer placer(nl, params, 5);
    benchmark::DoNotOptimize(placer.run(placement));
  }
}
BENCHMARK(BM_Stage1)
    ->Args({12, 5})
    ->Args({12, 10})
    ->Args({12, 20})
    ->Args({24, 10})
    ->Args({48, 10})
    ->Unit(benchmark::kMillisecond);

/// Stage-1 move throughput: full annealing runs, reported as attempted
/// moves per second of annealing time (generate + evaluate + accept or
/// revert). This is the figure of merit of the incremental evaluation
/// core (spatial bin index, cached net bounds, MoveTxn); the per-size
/// samples are recorded into BENCH_perf.json after the run.
void BM_Stage1MoveThroughput(benchmark::State& state) {
  const int cells = static_cast<int>(state.range(0));
  const Netlist nl = PlacedFixture::make_netlist(cells);
  Stage1Params params;
  params.attempts_per_cell = scaled_attempts_per_cell(cells);
  params.p2_samples = 8;
  long long attempts = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    Placement placement(nl);
    Stage1Placer placer(nl, params, 5);
    const auto t0 = std::chrono::steady_clock::now();
    const Stage1Result r = placer.run(placement);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    attempts += r.attempts;
    seconds += dt.count();
  }
  state.SetItemsProcessed(attempts);
  if (seconds > 0.0) {
    const double rate = static_cast<double>(attempts) / seconds;
    state.counters["moves_per_sec"] = rate;
    throughput_registry()[cells] = {cells, params.attempts_per_cell, attempts,
                                    seconds, rate};
  }
}
BENCHMARK(BM_Stage1MoveThroughput)
    ->Arg(12)
    ->Arg(24)
    ->Arg(48)
    ->Arg(96)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

/// Multilevel-flow benchmark: one flat stage-1 anneal and one
/// cluster-warm-started multilevel flow on the same netlist, each under
/// the same RunBudget, recorded side by side into BENCH_perf.json. A
/// single iteration: the figure of merit is the quality-per-budget ratio
/// (ml_teil / flat_teil), not a rate, and one full flow pair is already
/// several seconds of anneal. The 1k point keeps the historic generic
/// workload; the 10k point uses the SoC tier (soc_circuit), whose hub
/// nets are what the aggregated-degree cap exists for.
void BM_MultilevelFlow(benchmark::State& state) {
  const int cells = static_cast<int>(state.range(0));
  const Netlist nl = cells >= 10000
                         ? generate_circuit(soc_circuit(SocTier::k10k))
                         : PlacedFixture::make_netlist(cells);
  const std::int64_t kMoves = 300LL * cells;

  Stage1Params sp;
  sp.attempts_per_cell = scaled_attempts_per_cell(cells);
  sp.p2_samples = 6;

  MlSample sample;
  sample.cells = cells;
  sample.budget_moves = kMoves;

  // Document the aggregated-degree cap on this workload: reproduce the
  // exact clustering the flow below will run (same derived seed chain,
  // flow-default cap) and the same clustering with the cap opted out, and
  // record the widest coarse net of each.
  {
    ClusterParams cp;
    cp.seed = derive_seed(derive_seed(17, "warm"), "cluster");
    cp.max_aggregated_degree = kDefaultAggregatedDegreeCap;
    const auto max_degree = [](const Netlist& coarse) {
      std::size_t widest = 0;
      for (const Net& n : coarse.nets()) widest = std::max(widest, n.pins.size());
      return static_cast<int>(widest);
    };
    sample.max_coarse_net_degree = max_degree(cluster_netlist(nl, cp).coarse);
    cp.max_aggregated_degree = -1;
    sample.uncapped_max_coarse_net_degree =
        max_degree(cluster_netlist(nl, cp).coarse);
  }

  for (auto _ : state) {
    {
      recover::RunBudget budget(kMoves, recover::RunBudget::kUnlimited);
      Stage1Placer flat(nl, sp, derive_seed(17, "stage1"));
      Stage1Hooks hooks;
      hooks.budget = &budget;
      flat.set_hooks(hooks);
      Placement placement(nl);
      const auto t0 = std::chrono::steady_clock::now();
      flat.run(placement);
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      sample.flat_teil = placement.teil();
      sample.flat_seconds += dt.count();
    }
    {
      recover::RunBudget budget(kMoves, recover::RunBudget::kUnlimited);
      ClusterWarmStart warm({}, sp);
      MultilevelParams params;
      params.refine = sp;
      params.seed = 17;
      params.recover.budget = &budget;
      MultilevelFlow flow(nl, warm, params);
      Placement placement(nl);
      const auto t0 = std::chrono::steady_clock::now();
      const MultilevelResult r = flow.run(placement);
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      sample.ml_teil = r.final_teil;
      sample.warm_teil = r.warm.teil;
      sample.clusters = r.warm.clusters;
      sample.ml_seconds += dt.count();
    }
  }
  state.counters["ml_teil"] = sample.ml_teil;
  state.counters["flat_teil"] = sample.flat_teil;
  multilevel_registry()[cells] = sample;
}
BENCHMARK(BM_MultilevelFlow)
    ->Arg(1000)
    ->Arg(10000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tw

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  tw::write_perf_json();
  return 0;
}
