#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "channel/channel_graph.hpp"
#include "check/validate.hpp"
#include "netlist/yal.hpp"
#include "place/legalize.hpp"
#include "pool/replica.hpp"
#include "route/interchange.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  const std::chrono::duration<double> d = std::chrono::steady_clock::now() - t0;
  return d.count();
}

// ---------------------------------------------------------------------------
// Spans

namespace {

int thread_number() {
  static std::mutex mu;
  static std::map<std::thread::id, int> ids;
  std::lock_guard<std::mutex> lock(mu);
  const auto [it, inserted] =
      ids.emplace(std::this_thread::get_id(), static_cast<int>(ids.size()));
  return it->second;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

}  // namespace

int Tracer::add(const std::string& name, const std::string& item, double start,
                double end, int parent) {
  if (!on_) return -1;
  const int tid = thread_number();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, item, start, end, parent, tid});
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::open(const std::string& name, const std::string& item,
                 int parent) {
  const double t = now_s();
  return add(name, item, t, t, parent);
}

void Tracer::close(int id) {
  if (id < 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

void Tracer::set(int id, double start, double end) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].start = start;
  spans_[static_cast<std::size_t>(id)].end = end;
}

double Tracer::self_time(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name)
      total += std::max(0.0, spans_[i].end - spans_[i].start - child[i]);
  return total;
}

void Tracer::write_chrome(const std::string& path,
                          const std::string& workload) const {
  if (!on_ || path.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << json_escape(s.name)
        << "\",\"cat\":\"" << json_escape(workload)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << json_number(s.start * 1e6)
        << ",\"dur\":" << json_number((s.end - s.start) * 1e6)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"item\":\"" << json_escape(s.item) << "\"}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

// ---------------------------------------------------------------------------
// Report

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& [n, vu] : metrics)
    if (n == name) {
      vu = {value, unit};
      return;
    }
  metrics.push_back({name, {value, unit}});
}

void Report::fail(const std::string& why) {
  failures.push_back(why);
  ++failed;
}

void print_report(const Report& r) {
  std::ostringstream os;
  os << "{\"workload\":\"" << json_escape(r.workload) << "\",\"seed\":"
     << r.seed << ",\"attempted\":" << r.attempted << ",\"failed\":"
     << r.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    os << (i ? "," : "") << "\"" << json_escape(r.metrics[i].first)
       << "\":{\"value\":" << json_number(r.metrics[i].second.first)
       << ",\"unit\":\"" << json_escape(r.metrics[i].second.second) << "\"}";
  os << "},\"items\":{";
  for (std::size_t i = 0; i < r.items.size(); ++i)
    os << (i ? "," : "") << "\"" << json_escape(r.items[i].first) << "\":\""
       << json_escape(r.items[i].second) << "\"";
  os << "},\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    os << (i ? "," : "") << "\"" << json_escape(r.failures[i]) << "\"";
  os << "],\"host\":{\"compiler\":\"" << PERFBENCH_COMPILER
     << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
     << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Statistics and formatting

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

std::string hexfloat(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Inputs

Input make_input(const std::string& name, const tw::Netlist& generated) {
  std::string yal = tw::write_yal(generated, name);
  tw::ParseReport report;
  const double t0 = now_s();
  std::optional<tw::Netlist> nl = tw::parse_yal_string(yal, report);
  const double parse_s = now_s() - t0;
  if (!nl) throw std::runtime_error(name + ": YAL round trip failed: " +
                                    report.str());
  const tw::ValidationReport vr = tw::validate_netlist(*nl);
  if (!vr.ok()) throw std::runtime_error(name + ": invalid netlist: " +
                                         vr.str());
  return {name, std::move(yal), std::move(*nl), parse_s};
}

std::string fresh_dir(const Options& opt, const std::string& leaf) {
  const std::string dir = opt.run_dir + "/" + leaf;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Flow helpers

tw::FlowParams paper_flow_params(std::uint64_t seed) {
  tw::FlowParams p;
  p.stage1.attempts_per_cell = 5;
  p.stage1.p2_samples = 8;
  p.stage2.attempts_per_cell = 5;
  p.seed = seed;
  return p;
}

std::string item_fingerprint(double teil, long long area,
                             std::uint64_t digest) {
  return "teil=" + hexfloat(teil) + " area=" + std::to_string(area) +
         " digest=" + hex64(digest);
}

bool check_placement(const tw::Placement& p, const std::string& item,
                     Report& rep) {
  const tw::ValidationReport vr = tw::validate_placement(p);
  if (vr.ok()) return true;
  rep.fail(item + ": validate_placement: " + vr.str());
  return false;
}

namespace {

tw::Rect bare_chip_bbox(const tw::Placement& placement) {
  tw::Rect bb;
  bool first = true;
  const auto n = static_cast<tw::CellId>(placement.netlist().num_cells());
  for (tw::CellId c = 0; c < n; ++c)
    for (const tw::Rect& t : placement.absolute_tiles(c)) {
      bb = first ? t : bb.bounding_union(t);
      first = false;
    }
  return bb;
}

/// Stage-1 chip area: the cells plus the space the estimator reserved
/// (the figure TimberWolfMC reports as stage1_chip_area).
tw::Coord stage1_area(const tw::Placement& placement,
                      const tw::DynamicAreaEstimator& est) {
  tw::OverlapEngine ov(placement, est);
  tw::Rect bb;
  bool first = true;
  const auto n = static_cast<tw::CellId>(placement.netlist().num_cells());
  for (tw::CellId c = 0; c < n; ++c)
    for (const tw::Rect& t : ov.expanded_tiles(c)) {
      bb = first ? t : bb.bounding_union(t);
      first = false;
    }
  return bb.area();
}

struct Mark {
  int pass = 0;
  double t = 0.0;
};

}  // namespace

Composed run_flow_composed(const tw::Netlist& nl, const tw::FlowParams& params,
                           Tracer& tr, const std::string& item, int parent,
                           bool replay, FlowLayers& acc,
                           tw::Placement& placement, tw::FlowResult& result,
                           Report& rep) {
  const double flow_start = now_s();
  const int flow_span = tr.open("flow", item, parent);

  // Stage 1.
  const double t0 = now_s();
  tw::Stage1Placer s1(nl, params.stage1, tw::derive_seed(params.seed, "stage1"));
  result.stage1 = s1.run(placement);
  const double t1 = now_s();
  tr.add("place.stage1", item, t0, t1, flow_span);
  result.stage1_teil = result.stage1.final_teil;
  result.stage1_chip_area = stage1_area(placement, s1.estimator());
  tw::recover::PackedPlacement s1_out;  // the pass-0 input of the replays
  if (replay) s1_out = tw::recover::pack_placement(placement);

  // Stage 2, with a progress mark at every anneal step: the first mark of
  // a pass follows that pass's legalize / channel / route / expansion
  // work, so the gaps between marks split prep from anneal.
  tw::Stage2Refiner s2(nl, params.stage2, tw::derive_seed(params.seed, "stage2"));
  std::vector<Mark> marks;
  tw::Stage2Hooks hooks;
  hooks.checkpoint_every = 1;
  hooks.on_checkpoint = [&marks](const tw::Stage2Cursor& cur) {
    marks.push_back({cur.pass, now_s()});
  };
  s2.set_hooks(std::move(hooks));
  const double t2 = now_s();
  result.stage2 = s2.run(placement, result.stage1.core,
                         result.stage1.t_infinity,
                         result.stage1.temperature_scale);
  const double t3 = now_s();
  const int s2_span = tr.add("refine.stage2", item, t2, t3, flow_span);

  result.final_teil = result.stage2.final_teil;
  result.final_chip_area = result.stage2.final_chip_area;
  result.final_chip_bbox = bare_chip_bbox(placement);
  result.outcome = result.stage2.outcome;
  const double flow_end = now_s();
  tr.close(flow_span);
  const Composed out{tw::pool::result_fingerprint(placement, result),
                     flow_end - flow_start};

  // Pass boundaries: prep of pass k runs from the end of pass k-1's last
  // anneal step (estimated as its mean step length after its last mark)
  // to pass k's first mark. The tail after the last mark holds the last
  // step plus the final legalize.
  const int passes = static_cast<int>(result.stage2.passes.size());
  double prev_end = t2;  // where the current prep interval starts
  double prep = 0.0;
  for (int k = 0; k < passes; ++k) {
    double first = -1.0, last = -1.0;
    int n = 0;
    for (const Mark& m : marks)
      if (m.pass == k) {
        if (first < 0.0) first = m.t;
        last = m.t;
        ++n;
      }
    if (first < 0.0) continue;
    const double step = n > 1 ? (last - first) / (n - 1) : 0.0;
    tr.add("refine.pass_prep", item + "/pass" + std::to_string(k), prev_end,
           first, s2_span);
    prep += first - prev_end;
    const double anneal_end = std::min(last + step, t3);
    tr.add("refine.anneal", item + "/pass" + std::to_string(k), first,
           anneal_end, s2_span);
    prev_end = anneal_end;
  }
  if (t3 > prev_end) {
    tr.add("refine.pass_prep", item + "/finish", prev_end, t3, s2_span);
    prep += t3 - prev_end;
  }

  acc.stage1_s += t1 - t0;
  acc.stage1_attempts += static_cast<double>(result.stage1.attempts);
  acc.stage2_s += t3 - t2;
  acc.pass_prep_s += prep;
  acc.anneal_s += (t3 - t2) - prep;
  for (const tw::RefinementPass& p : result.stage2.passes) {
    acc.anneal_steps += p.temperature_steps;
    acc.counters += p.router_counters;
    acc.overflow += p.route_overflow;
  }
  if (!replay) return out;

  // Replays of pass 0's prep on a copy of its input (outside the flow).
  const int replay_span = tr.open("replay", item, parent);
  tw::Placement rp(nl);
  tw::recover::apply_placement(rp, s1_out);
  const tw::Rect core = result.stage1.core;
  double a = now_s();
  tw::legalize_spread(rp, core, 2 * nl.tech().track_separation);
  double b = now_s();
  tr.add("place.legalize", item, a, b, replay_span);
  acc.legalize_s += b - a;

  a = now_s();
  const tw::ChannelGraph cg = tw::build_channel_graph(rp, core);
  b = now_s();
  tr.add("channel.build", item, a, b, replay_span);
  acc.channel_s += b - a;
  acc.regions += static_cast<double>(cg.regions.size());
  acc.graph_nodes += static_cast<double>(cg.graph.num_nodes());

  const auto targets = tw::build_net_targets(nl, cg);
  tw::GlobalRouterParams gp = params.stage2.router;
  tw::Rng stage2_rng(tw::derive_seed(params.seed, "stage2"));
  gp.seed = stage2_rng();  // the first draw of stage 2's stream, as in pass 0
  tw::GlobalRouter router(cg.graph, gp);
  a = now_s();
  const tw::GlobalRouteResult routed = router.route(targets);
  b = now_s();
  tr.add("route.route", item, a, b, replay_span);
  tr.close(replay_span);
  acc.route_s += b - a;
  acc.route_nets += static_cast<double>(targets.size());
  if (passes > 0) {
    const tw::RouteCounters& flow0 = result.stage2.passes[0].router_counters;
    if (!(routed.counters == flow0))
      rep.fail(item + ": pass-0 route replay counters differ from the flow's");
    // Route time of every pass, scaled from the replay by heap pops (the
    // router's dominant work).
    if (routed.counters.nodes_popped > 0)
      for (const tw::RefinementPass& p : result.stage2.passes)
        acc.route_est_s += (b - a) *
                           static_cast<double>(p.router_counters.nodes_popped) /
                           static_cast<double>(routed.counters.nodes_popped);
  }
  return out;
}

void report_flow_layers(const FlowLayers& acc, double flow_s, Report& rep) {
  rep.metric("place.stage1_s", acc.stage1_s, "s");
  rep.metric("place.attempts", acc.stage1_attempts, "count");
  rep.metric("place.moves_per_s",
             acc.stage1_s > 0 ? acc.stage1_attempts / acc.stage1_s : 0.0,
             "1/s");
  rep.metric("place.legalize_s", acc.legalize_s, "s");
  rep.metric("refine.stage2_s", acc.stage2_s, "s");
  rep.metric("refine.pass_prep_s", acc.pass_prep_s, "s");
  rep.metric("refine.anneal_s", acc.anneal_s, "s");
  rep.metric("refine.anneal_steps", acc.anneal_steps, "count");
  rep.metric("channel.build_s", acc.channel_s, "s");
  rep.metric("channel.regions", acc.regions, "count");
  rep.metric("channel.graph_nodes", acc.graph_nodes, "count");
  rep.metric("route.route_s", acc.route_s, "s");
  rep.metric("route.nets_per_s",
             acc.route_s > 0 ? acc.route_nets / acc.route_s : 0.0, "1/s");
  rep.metric("route.nodes_popped",
             static_cast<double>(acc.counters.nodes_popped), "count");
  rep.metric("route.heap_pushes",
             static_cast<double>(acc.counters.heap_pushes), "count");
  rep.metric("route.searches",
             static_cast<double>(acc.counters.dijkstra_runs), "count");
  rep.metric("route.interchange_trials",
             static_cast<double>(acc.counters.interchange_trials), "count");
  rep.metric("route.overflow", acc.overflow, "count");
  rep.metric("trace.route_share", flow_s > 0 ? acc.route_est_s / flow_s : 0.0,
             "ratio");
}

StoredResult store_result(const tw::Placement& p, std::uint64_t seed,
                          const std::string& item, const std::string& dir) {
  tw::recover::FlowCheckpoint fc;
  fc.master_seed = seed;
  fc.digest = tw::recover::netlist_digest(p.netlist());
  fc.phase = tw::recover::FlowPhase::kStage2;
  fc.placement = tw::recover::pack_placement(p);
  tw::recover::FileCheckpointSink sink(dir, 1);
  StoredResult s;
  s.item = item;
  const double t0 = now_s();
  s.path = sink.save(fc);
  s.save_s = now_s() - t0;
  s.bytes = sink.bytes();
  return s;
}

double reload_results(const std::vector<const tw::Netlist*>& nls,
                      const std::vector<StoredResult>& stored,
                      const std::vector<double>& teil, Report& rep) {
  std::vector<double> got(stored.size());
  const double t0 = now_s();
  for (std::size_t i = 0; i < stored.size(); ++i) {
    const tw::recover::FlowCheckpoint fc =
        tw::recover::load_checkpoint(stored[i].path);
    tw::Placement p(*nls[i]);
    tw::recover::apply_placement(p, fc.placement);
    got[i] = p.teil();
  }
  const double dt = now_s() - t0;
  for (std::size_t i = 0; i < stored.size(); ++i)
    if (got[i] != teil[i])
      rep.fail(stored[i].item + ": reloaded result TEIL " + hexfloat(got[i]) +
               " != " + hexfloat(teil[i]));
  return dt;
}

void time_reloads(const tw::Netlist& nl, const StoredResult& stored,
                  double teil, double& best, Report& rep) {
  const std::vector<const tw::Netlist*> nls(kReloadsPerVisit, &nl);
  const std::vector<StoredResult> all(kReloadsPerVisit, stored);
  const std::vector<double> teils(kReloadsPerVisit, teil);
  keep_best(best, reload_results(nls, all, teils, rep) / kReloadsPerVisit);
}

bool StepTimes::add(const std::vector<double>& marks, double end) {
  std::vector<double> steps;
  double prev = 0.0;
  for (const double m : marks) {
    steps.push_back(m - prev);
    prev = m;
  }
  steps.push_back(end - prev);
  if (best_.empty()) best_.assign(steps.size(), kNoSample);
  if (steps.size() != best_.size()) return false;
  for (std::size_t k = 0; k < steps.size(); ++k) keep_best(best_[k], steps[k]);
  return true;
}

double StepTimes::total() const {
  if (best_.empty()) return kNoSample;
  double sum = 0.0;
  for (const double s : best_) sum += s;
  return sum;
}

BatchResult run_batch(const Options& opt, std::vector<Input>& inputs,
                      const std::vector<std::string>& names,
                      const std::function<Input(std::size_t)>& build,
                      const std::function<ItemRun(std::size_t)>& run_item,
                      const BatchPlan& plan, Report& rep) {
  const std::size_t n = names.size();
  BatchResult b;
  b.hit_s.assign(n, kNoSample);
  b.setup_s.assign(n, kNoSample);
  b.last.resize(n);
  // Set-up: each input's build keeps its own best reading.
  const auto set_up = [&] {
    std::vector<Input> built;
    for (std::size_t i = 0; i < n; ++i) {
      const double t0 = now_s();
      built.push_back(build(i));
      keep_best(b.setup_s[i], now_s() - t0);
    }
    return built;
  };
  inputs = set_up();
  for (const Input& in : inputs) b.parse_s += in.parse_s;
  for (std::size_t i = 0; i < std::min(plan.warmup, n); ++i) (void)run_item(i);

  const std::string store = fresh_dir(opt, "results");
  std::vector<StoredResult> stored(n);
  std::vector<double> stored_teil(n);
  std::vector<StepTimes> steps(n);
  const double window = now_s();
  for (int cycle = 0; cycle < plan.min_cycles || now_s() - window < opt.seconds;
       ++cycle) {
    for (std::size_t i = 0; i < n; ++i) {
      const int runs = i < plan.runs.size() ? plan.runs[i] : 1;
      for (int k = 0; k < runs; ++k) {
        ItemRun r = run_item(i);
        ++rep.attempted;
        if (!steps[i].add(r.marks, r.seconds))
          rep.fail(names[i] + ": step count differs between runs");
        if (cycle == 0 && k == 0) {
          tw::Placement p(inputs[i].nl);
          tw::recover::apply_placement(p, r.placement);
          stored[i] =
              store_result(p, opt.seed, names[i], store + "/" + names[i]);
          stored_teil[i] = p.teil();
          b.save_s += stored[i].save_s;
          b.bytes += static_cast<double>(stored[i].bytes);
        } else if (r.fp != b.last[i].fp) {
          rep.fail(names[i] + ": result differs between runs");
        }
        b.last[i] = std::move(r);
      }
      time_reloads(inputs[i].nl, stored[i], stored_teil[i], b.hit_s[i], rep);
      for (int k = 0; k < plan.setups_per_visit; ++k) (void)set_up();
    }
  }
  for (const StepTimes& st : steps) b.flow_s.push_back(st.total());
  return b;
}

void report_batch(const BatchResult& b, const std::vector<std::string>& names,
                  Report& rep) {
  std::vector<double> teil, area;
  double flow_s = 0.0, setup_s = 0.0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    rep.item(names[i], b.last[i].fp);
    std::fprintf(stderr, "%s: flow %.4f s, reload %.4f ms, build %.4f ms\n",
                 names[i].c_str(), b.flow_s[i], 1e3 * b.hit_s[i],
                 1e3 * b.setup_s[i]);
    teil.push_back(b.last[i].teil);
    area.push_back(b.last[i].area);
    flow_s += b.flow_s[i];
    setup_s += b.setup_s[i];
  }
  rep.metric("flow_s", flow_s, "s");
  rep.metric("flow_geomean_s", geomean(b.flow_s), "s");
  rep.metric("job_p50_ms", 1e3 * percentile(b.flow_s, 0.5), "ms");
  rep.metric("job_p90_ms", 1e3 * percentile(b.flow_s, 0.9), "ms");
  rep.metric("hit_p50_ms", 1e3 * percentile(b.hit_s, 0.5), "ms");
  rep.metric("jobs_per_s", static_cast<double>(names.size()) / flow_s, "1/s");
  rep.metric("teil_geomean", geomean(teil), "DBU");
  rep.metric("area_geomean", geomean(area), "DBU2");
  rep.metric("setup_s", setup_s, "s");
}

double tracing_overhead(std::size_t items, int rounds,
                        const std::function<double(std::size_t)>& untraced,
                        const std::function<double(std::size_t, int)>& traced) {
  double overhead = 0.0;
  for (std::size_t i = 0; i < items; ++i) {
    double plain = kNoSample, with_spans = kNoSample;
    // Alternating which side runs first keeps a drift in host speed from
    // favouring one side.
    for (int round = 0; round < rounds; ++round)
      for (int side = 0; side < 2; ++side) {
        if ((side + round) % 2 == 0)
          keep_best(plain, untraced(i));
        else
          keep_best(with_spans, traced(i, round));
      }
    overhead += with_spans - plain;
  }
  return overhead;
}

}  // namespace perfbench
