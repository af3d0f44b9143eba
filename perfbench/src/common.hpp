// Shared plumbing of the benchmark program: the clock, in-memory spans
// written out as a Chrome trace-event file, the report printed as one JSON
// line, input construction through the YAL front end, and the traced
// composition of the TimberWolfMC flow from its two layer calls.
//
// Everything that reads a clock lives here, outside the library: the
// library itself has no clock (its lint rule bans one), so every time in
// the report is taken around calls into its public functions.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "flow/timberwolf.hpp"
#include "netlist/netlist.hpp"
#include "recover/checkpoint.hpp"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir;     ///< scratch directory this process may write
  std::string trace_file;  ///< Chrome trace-event output (trace runs)
};

// ---------------------------------------------------------------------------
// Spans

/// Spans kept in memory and written once at the end. Thread-safe: the
/// served workload records spans from its client threads.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }

  /// Records a finished span; returns its id (-1 when tracing is off).
  /// `parent` is the id of the span that caused it (-1 for a root).
  int add(const std::string& name, const std::string& item, double start,
          double end, int parent = -1);

  /// Opens a span now and closes it with close(); same id semantics.
  int open(const std::string& name, const std::string& item,
           int parent = -1);
  void close(int id);
  /// Moves a recorded span to [start, end].
  void set(int id, double start, double end);

  /// Summed self time (duration minus the part covered by child spans)
  /// of every span named `name`.
  double self_time(const std::string& name) const;

  void write_chrome(const std::string& path,
                    const std::string& workload) const;

 private:
  struct Span {
    std::string name;
    std::string item;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int tid = 0;
  };

  bool on_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Report

/// What one workload process prints: named metrics with units, the
/// per-item fingerprints run.py compares with the stored expectations,
/// and every failed output check.
struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> items;  ///< id, fingerprint
  std::vector<std::string> failures;
  long attempted = 0;
  long failed = 0;

  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed check.
  void fail(const std::string& why);
  void item(const std::string& id, const std::string& fingerprint) {
    items.emplace_back(id, fingerprint);
  }
};

/// Prints the report as one JSON line on stdout.
void print_report(const Report& r);

// ---------------------------------------------------------------------------
// Statistics and formatting

double median(std::vector<double> v);
/// Keeps the lowest sample seen. On a shared host noise only ever adds
/// time, so the best of several samples spread over a run is its most
/// repeatable reading; every timing the benchmark reports is one.
inline void keep_best(double& slot, double sample) {
  slot = std::min(slot, sample);
}
inline constexpr double kNoSample = std::numeric_limits<double>::infinity();
/// The lowest of `samples` (kNoSample when there are none).
inline double best_of(const std::vector<double>& samples) {
  double best = kNoSample;
  for (const double s : samples) keep_best(best, s);
  return best;
}
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);
std::string hexfloat(double v);
std::string hex64(std::uint64_t v);
std::uint64_t fnv1a(const std::string& s);
/// Peak resident set of this process, in MB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Inputs

/// One benchmark input: generated, written as YAL, parsed back and
/// validated — the program only ever sees the parsed netlist (and, when
/// served, the YAL text).
struct Input {
  std::string name;
  std::string yal;
  tw::Netlist nl;
  double parse_s = 0.0;  ///< time parse_yal_string took
};

/// Round-trips `generated` through write_yal / parse_yal_string /
/// validate_netlist. Throws std::runtime_error when the round trip fails.
Input make_input(const std::string& name, const tw::Netlist& generated);

/// Creates (emptying first) `<run_dir>/<leaf>` and returns its path.
std::string fresh_dir(const Options& opt, const std::string& leaf);

// ---------------------------------------------------------------------------
// Flow helpers

/// The paper_flow effort: stage-1 and stage-2 A_c = 5, p2_samples = 8,
/// everything else at library defaults (router M = 8).
tw::FlowParams paper_flow_params(std::uint64_t seed);

/// Hexfloat TEIL, chip area and full-state digest of one finished item.
std::string item_fingerprint(double teil, long long area,
                             std::uint64_t digest);

/// True when validate_placement accepts `p`; otherwise records why.
bool check_placement(const tw::Placement& p, const std::string& item,
                     Report& rep);

/// Per-layer numbers of traced flow compositions, summed over items.
struct FlowLayers {
  double stage1_s = 0.0;
  double stage1_attempts = 0.0;
  double stage2_s = 0.0;
  double pass_prep_s = 0.0;
  double anneal_s = 0.0;
  double anneal_steps = 0.0;
  double legalize_s = 0.0;
  double channel_s = 0.0;
  double regions = 0.0;
  double graph_nodes = 0.0;
  double route_s = 0.0;       ///< pass-0 replays
  double route_nets = 0.0;    ///< nets routed by the replays
  double route_est_s = 0.0;   ///< route time over all passes (see .cpp)
  tw::RouteCounters counters;  ///< summed over every pass of every flow
  double overflow = 0.0;
};

/// What run_flow_composed returns.
struct Composed {
  std::uint64_t digest = 0;  ///< result_fingerprint of the composed run
  double seconds = 0.0;      ///< wall time of the flow span
};

/// The TimberWolfMC flow composed from its two layer calls — Stage1Placer
/// ::run, then Stage2Refiner::run, seeded with derive_seed(seed, "stage1"
/// / "stage2") as TimberWolfMC does — with stage-2 pass boundaries taken
/// from progress marks at checkpoint_every = 1. Spans go under `parent`.
/// With `replay`, the pass-0 legalize, channel definition and global
/// routing are then replayed on copies of the pass-0 input and timed
/// (replays are outside the flow span). `result` receives the composed
/// FlowResult. A replay whose router counters differ from the flow's
/// pass 0 is a failed check.
Composed run_flow_composed(const tw::Netlist& nl, const tw::FlowParams& params,
                           Tracer& tr, const std::string& item, int parent,
                           bool replay, FlowLayers& acc,
                           tw::Placement& placement, tw::FlowResult& result,
                           Report& rep);

/// Emits the per-layer metrics of `acc` (place/refine/channel/route) and
/// the route share of `flow_s`.
void report_flow_layers(const FlowLayers& acc, double flow_s, Report& rep);

/// A finished placement stored as a checkpoint file and read back: the
/// "served again without recomputing" path of the batch workloads and the
/// recover layer's save/load timing.
struct StoredResult {
  std::string item;
  std::string path;
  std::uint64_t bytes = 0;
  double save_s = 0.0;
};
StoredResult store_result(const tw::Placement& p, std::uint64_t seed,
                          const std::string& item, const std::string& dir);
/// Loads each stored result onto a fresh placement of its netlist —
/// one "serve every result again" — and returns the wall time; records a
/// failed check unless every reloaded TEIL equals the stored one.
double reload_results(const std::vector<const tw::Netlist*>& nls,
                      const std::vector<StoredResult>& stored,
                      const std::vector<double>& teil, Report& rep);

/// Reloads of one stored result timed together per visit.
inline constexpr int kReloadsPerVisit = 25;

/// Times kReloadsPerVisit back-to-back reloads of one stored result and
/// keeps their mean in `best` when it is lower. A single reload takes
/// 20 µs to 3 ms; timed one by one, the fastest of them moved by a
/// seventh between runs.
void time_reloads(const tw::Netlist& nl, const StoredResult& stored,
                  double teil, double& best, Report& rep);

/// Per-step best-of timing of a deterministic call. Each run of the call
/// reports the times of its step boundaries; every step is the same work
/// in every run, so each keeps its fastest reading, and the call's time is
/// the sum of those. A burst of host noise then costs only the steps it
/// hit, in only the runs it hit.
class StepTimes {
 public:
  /// Adds one run: `marks` are its step-boundary times from the call's
  /// start, `end` its total. False when the run has a different number
  /// of steps than earlier ones (its readings are then not used).
  bool add(const std::vector<double>& marks, double end);
  /// Sum of the per-step best readings (kNoSample before the first run).
  double total() const;

 private:
  std::vector<double> best_;
};

// ---------------------------------------------------------------------------
// Batch workloads (paper_flow, soc_multilevel)

/// One timed run of a batch item.
struct ItemRun {
  double seconds = 0.0;       ///< wall time of the flow call alone
  std::vector<double> marks;  ///< its step boundaries (see StepTimes)
  std::string fp;             ///< item_fingerprint
  double teil = 0.0;
  double area = 0.0;
  tw::recover::PackedPlacement placement;
};

/// Best-of-run readings per item (the flow's per step, see StepTimes) and
/// the last run of each item.
struct BatchResult {
  std::vector<double> flow_s, hit_s, setup_s;
  std::vector<ItemRun> last;
  double save_s = 0.0;
  double bytes = 0.0;
  double parse_s = 0.0;
};

/// How run_batch spreads its samples over a run.
struct BatchPlan {
  std::size_t warmup = 1;           ///< items run untimed first
  int min_cycles = 2;               ///< cycles over all items, at least
  int setups_per_visit = 1;         ///< input builds timed after each visit
  /// Timed runs per visit of item i (1 past the end): a light item can
  /// take more samples than the cycle count gives it.
  std::vector<int> runs;
};

/// Builds every input (`build`), runs the first `plan.warmup` items
/// untimed, then cycles over all items: at least `plan.min_cycles` times,
/// and until `opt.seconds` have passed. Each visit times `plan.runs[i]`
/// runs of the item (default one), reloads its stored result (written on the first visit) and times
/// `plan.setups_per_visit` builds of every input, so the samples of every
/// quantity spread over the whole run. A result or step count that changes between
/// visits is a failed check.
BatchResult run_batch(const Options& opt, std::vector<Input>& inputs,
                      const std::vector<std::string>& names,
                      const std::function<Input(std::size_t)>& build,
                      const std::function<ItemRun(std::size_t)>& run_item,
                      const BatchPlan& plan, Report& rep);

/// Emits the end-to-end metrics of a batch workload and its items'
/// fingerprints.
void report_batch(const BatchResult& b, const std::vector<std::string>& names,
                  Report& rep);

/// Tracing overhead of a batch workload: for each item, `rounds` pairs of
/// an untraced run (`untraced`) and a traced one (`traced`), in alternating
/// order; returns the summed difference
/// of each item's best traced and best untraced wall time. Each callback
/// returns its run's wall time.
double tracing_overhead(std::size_t items, int rounds,
                        const std::function<double(std::size_t)>& untraced,
                        const std::function<double(std::size_t, int)>& traced);

}  // namespace perfbench
