// serve_mixed: an in-process serve::Daemon with 1 executor thread, driven
// over 1 closed-loop client connection. The load is 20 distinct
// tiny_circuit jobs under
// twcli's compact parameters (checkpoint_every 5, keep 4); after each
// fresh result returns, its connection resubmits that job, so the result
// cache serves the duplicate (kCached). The flow is small, so wire,
// journal, result cache and PoolExecutor carry a large share of each job.
// One pass over the load takes about 1.3 s on a fresh daemon, so a run
// makes about eighteen passes and each job's latency keeps its best one;
// with 100 jobs a pass took 5 s and a run made three. With 2 executors
// and 2 connections a pass's wall time (flow_s) moved by a fifth between
// runs while the per-job latencies moved by 5 %: two busy threads
// sometimes slow each other on the host, so the timed load runs one job
// at a time.
#include <atomic>
#include <thread>

#include "pool/replica.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "util/rng.hpp"
#include "workload/paper_circuits.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace sv = tw::serve;

constexpr int kJobs = 20;
constexpr int kConnections = 1;
constexpr int kExecutors = 1;
/// Input set-ups per pass (all 20 inputs take about 8 ms to build).
constexpr int kBuildsPerPass = 3;
/// Untraced and traced passes behind trace.overhead_s.
constexpr int kOverheadRounds = 4;

sv::JobParams job_params(std::uint64_t master_seed) {
  sv::JobParams p;
  p.master_seed = master_seed;
  p.s1_attempts_per_cell = 12;
  p.s1_p2_samples = 6;
  p.s2_attempts_per_cell = 8;
  p.steiner_m = 4;
  p.checkpoint_every = 5;
  p.checkpoint_keep = 4;
  return p;
}

/// A daemon on a fresh state directory, served from its own thread.
class RunningDaemon {
 public:
  explicit RunningDaemon(const std::string& dir)
      : socket_(dir + "/d.sock"), daemon_([&] {
          sv::DaemonConfig cfg;
          cfg.socket_path = socket_;
          cfg.scheduler.state_dir = dir + "/state";
          cfg.scheduler.threads = kExecutors;
          return cfg;
        }()) {}
  ~RunningDaemon() { stop(); }
  RunningDaemon(const RunningDaemon&) = delete;
  RunningDaemon& operator=(const RunningDaemon&) = delete;

  void start() {
    thread_ = std::thread([this] { daemon_.run(); });
  }
  void stop() {
    daemon_.request_stop();
    if (thread_.joinable()) thread_.join();
  }
  const std::string& socket() const { return socket_; }

 private:
  std::string socket_;
  sv::Daemon daemon_;
  std::thread thread_;
};

/// One submission's exchange: the reply, then (unless rejected) the
/// terminal event. Times are on the benchmark clock.
struct Exchange {
  double submit = 0.0, ack = 0.0, done = 0.0;
  std::optional<sv::RejectReply> rejected;
  sv::SubmitReply reply;
  sv::ResultEvent result;
};

Exchange submit(sv::Client& c, const sv::SubmitRequest& req) {
  Exchange x;
  x.submit = now_s();
  c.send(req);
  for (;;) {
    sv::Message m = c.recv();
    if (auto* r = std::get_if<sv::RejectReply>(&m)) {
      x.ack = x.done = now_s();
      x.rejected = *r;
      return x;
    }
    if (auto* r = std::get_if<sv::SubmitReply>(&m)) {
      x.ack = now_s();
      x.reply = *r;
    } else if (auto* r = std::get_if<sv::ResultEvent>(&m)) {
      if (r->job != x.reply.job) continue;
      x.done = now_s();
      x.result = *r;
      return x;
    }
  }
}

/// What one pass of the load produced.
struct Pass {
  double wall_s = 0.0;
  std::vector<Exchange> fresh, dup;  ///< indexed by job
  sv::StatsReply stats;
};

/// Starts a daemon on a fresh state directory (the start's wall time is
/// added to `starts`), runs the load over it, and stops it.
Pass drive(const std::string& dir, const std::vector<Input>& inputs,
           const std::vector<sv::JobParams>& params,
           std::vector<double>& starts, Tracer* tr) {
  const double s0 = now_s();
  RunningDaemon daemon(dir);
  starts.push_back(now_s() - s0);
  daemon.start();
  Pass pass;
  pass.fresh.resize(inputs.size());
  pass.dup.resize(inputs.size());
  std::atomic<int> next{0};
  std::vector<std::string> errors(kConnections);
  const double t0 = now_s();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kConnections; ++c)
      clients.emplace_back([&, c] {
        try {
          sv::Client client(daemon.socket());
          for (;;) {
            const int i = next.fetch_add(1);
            if (i >= static_cast<int>(inputs.size())) return;
            sv::SubmitRequest req;
            req.params = params[static_cast<std::size_t>(i)];
            req.netlist_yal = inputs[static_cast<std::size_t>(i)].yal;
            const auto k = static_cast<std::size_t>(i);
            pass.fresh[k] = submit(client, req);
            pass.dup[k] = submit(client, req);
            if (tr != nullptr)
              for (const Exchange* x : {&pass.fresh[k], &pass.dup[k]}) {
                const int job = tr->add(x == &pass.fresh[k] ? "serve.job"
                                                            : "serve.hit",
                                        inputs[k].name, x->submit, x->done);
                tr->add("serve.ack", inputs[k].name, x->submit, x->ack, job);
              }
          }
        } catch (const std::exception& e) {
          errors[static_cast<std::size_t>(c)] = e.what();
        }
      });
    for (std::thread& t : clients) t.join();
  }
  pass.wall_s = now_s() - t0;
  for (const std::string& e : errors)
    if (!e.empty()) throw std::runtime_error("client: " + e);
  pass.stats = sv::Client(daemon.socket()).stats();
  return pass;
}

}  // namespace

void run_serve_mixed(const Options& opt, Tracer& tr, Report& rep) {
  std::vector<sv::JobParams> params;
  for (int i = 0; i < kJobs; ++i)
    params.push_back(job_params(
        tw::derive_seed(opt.seed, "flow/job" + std::to_string(i))));
  // Set-up is the input builds plus a daemon start; both are sampled again
  // around every pass, and setup_s adds the best build of each input and
  // the best start.
  double parse_s = 0.0;
  std::vector<double> build_best(kJobs, kNoSample), starts;
  const auto build = [&] {
    std::vector<Input> in;
    parse_s = 0.0;
    for (int i = 0; i < kJobs; ++i) {
      const std::string name = "job" + std::to_string(i);
      const double t0 = now_s();
      in.push_back(make_input(name, tw::generate_circuit(tw::tiny_circuit(
                                        tw::derive_seed(opt.seed, "serve/" + name)))));
      keep_best(build_best[static_cast<std::size_t>(i)], now_s() - t0);
      parse_s += in.back().parse_s;
    }
    return in;
  };
  const std::vector<Input> inputs = build();

  // Warm-up and reference: every job run in-process on 2 threads with the
  // parameters the service derives, so each served result can be checked.
  std::vector<std::uint64_t> expect(kJobs);
  std::vector<double> ref_teil(kJobs);
  {
    std::atomic<int> next{0};
    const auto work = [&] {
      for (int i = next.fetch_add(1); i < kJobs; i = next.fetch_add(1)) {
        const auto k = static_cast<std::size_t>(i);
        tw::FlowParams fp = sv::flow_params_from(params[k]);
        fp.seed = tw::derive_replica_seed(params[k].master_seed, 0);
        tw::Placement p(inputs[k].nl);
        const tw::FlowResult r = tw::TimberWolfMC(inputs[k].nl, fp).run(p);
        expect[k] = tw::pool::result_fingerprint(p, r);
        ref_teil[k] = r.final_teil;
      }
    };
    std::thread other(work);
    work();
    other.join();
  }

  // Best-of-run latency per job, over the passes.
  std::vector<double> fresh_best(kJobs, kNoSample), hit_best(kJobs, kNoSample);
  std::vector<double> teil(kJobs), area(kJobs), ack_ms, pass_latency_s;
  double cached = 0.0, submitted = 0.0;
  sv::StatsReply stats;
  int pass_no = 0;
  const auto run_pass = [&](Tracer* t) {
    const Pass pass =
        drive(fresh_dir(opt, "serve" + std::to_string(pass_no++)), inputs,
              params, starts, t);
    pass_latency_s.clear();
    for (int i = 0; i < kJobs; ++i) {
      const auto k = static_cast<std::size_t>(i);
      const std::string& name = inputs[k].name;
      const Exchange& f = pass.fresh[k];
      const Exchange& d = pass.dup[k];
      rep.attempted += 2;
      submitted += 2;
      if (d.reply.disposition == sv::Disposition::kCached) ++cached;
      if (f.rejected || d.rejected) {
        rep.fail(name + ": rejected");
        continue;
      }
      if (f.reply.disposition != sv::Disposition::kFresh)
        rep.fail(name + ": fresh submission answered " +
                 sv::to_string(f.reply.disposition));
      if (d.reply.disposition != sv::Disposition::kCached || !d.result.cached)
        rep.fail(name + ": duplicate not served from the cache");
      if (f.result.status != sv::JobStatus::kCompleted)
        rep.fail(name + ": status " + sv::to_string(f.result.status));
      if (f.result.fingerprint != expect[k])
        rep.fail(name + ": served result differs from the in-process run");
      if (d.result.fingerprint != f.result.fingerprint)
        rep.fail(name + ": cache hit differs from its fresh result");
      keep_best(fresh_best[k], f.done - f.submit);
      keep_best(hit_best[k], d.done - d.submit);
      pass_latency_s.push_back(f.done - f.submit);
      ack_ms.push_back(1e3 * (f.ack - f.submit));
      ack_ms.push_back(1e3 * (d.ack - d.submit));
      teil[k] = f.result.final_teil;
      area[k] = static_cast<double>(f.result.final_chip_area);
    }
    stats = pass.stats;
    std::fprintf(stderr, "pass %d: %.4f s\n", pass_no - 1, pass.wall_s);
    return pass.wall_s;
  };

  const double window = now_s();
  for (int pass = 0; pass < 8 || now_s() - window < opt.seconds; ++pass) {
    (void)run_pass(nullptr);
    for (int k = 0; k < kBuildsPerPass; ++k) (void)build();
  }
  for (int i = 0; i < kJobs; ++i) {
    const auto k = static_cast<std::size_t>(i);
    rep.item(inputs[k].name,
             item_fingerprint(teil[k], static_cast<long long>(area[k]),
                              expect[k]));
  }

  // One connection sends the submissions back to back, so a pass takes
  // their latencies end to end; each keeps its best reading over the
  // passes. A pass's own best wall time moved by a fifth between runs,
  // against a seventh for the per-job figures.
  double flow_s = 0.0;
  for (int i = 0; i < kJobs; ++i)
    flow_s += fresh_best[static_cast<std::size_t>(i)] +
              hit_best[static_cast<std::size_t>(i)];
  std::vector<double> fresh_ms, hit_ms;
  for (int i = 0; i < kJobs; ++i) {
    fresh_ms.push_back(1e3 * fresh_best[static_cast<std::size_t>(i)]);
    hit_ms.push_back(1e3 * hit_best[static_cast<std::size_t>(i)]);
  }
  rep.metric("flow_s", flow_s, "s");
  rep.metric("flow_geomean_s", geomean(fresh_best), "s");
  rep.metric("job_p50_ms", percentile(fresh_ms, 0.5), "ms");
  rep.metric("job_p90_ms", percentile(fresh_ms, 0.9), "ms");
  rep.metric("hit_p50_ms", percentile(hit_ms, 0.5), "ms");
  rep.metric("jobs_per_s", kJobs / flow_s, "1/s");
  rep.metric("teil_geomean", geomean(teil), "DBU");
  rep.metric("area_geomean", geomean(area), "DBU2");
  double setup_s = best_of(starts);
  for (const double b : build_best) setup_s += b;
  rep.metric("setup_s", setup_s, "s");
  if (!tr.on()) return;

  // Traced passes over the daemon (spans per submission) in turn with
  // untraced ones on the same CPUs, in alternating order, for the
  // overhead; the first traced pass records its spans, acks and
  // latencies. Then the jobs' flows composed from their layer calls
  // in-process.
  double plain_best = kNoSample, traced_best = kNoSample, latency_s = 0.0;
  std::vector<double> traced_ack_ms;
  for (int round = 0; round < kOverheadRounds; ++round)
    for (int side = 0; side < 2; ++side) {
      if ((side + round) % 2 == 0) {
        keep_best(plain_best, run_pass(nullptr));
        continue;
      }
      Tracer scratch(true);
      ack_ms.clear();
      keep_best(traced_best, run_pass(round == 0 ? &tr : &scratch));
      if (round == 0) {
        traced_ack_ms = ack_ms;
        for (const double s : pass_latency_s) latency_s += s;
      }
    }
  FlowLayers acc;
  double save_s = 0.0, bytes = 0.0;
  const std::string store = fresh_dir(opt, "serve_results");
  std::vector<StoredResult> stored;
  std::vector<const tw::Netlist*> nls;
  for (int i = 0; i < kJobs; ++i) {
    const auto k = static_cast<std::size_t>(i);
    tw::FlowParams fp = sv::flow_params_from(params[k]);
    fp.seed = tw::derive_replica_seed(params[k].master_seed, 0);
    tw::Placement p(inputs[k].nl);
    tw::FlowResult r;
    const std::uint64_t digest =
        run_flow_composed(inputs[k].nl, fp, tr, inputs[k].name, -1, true, acc,
                          p, r, rep)
            .digest;
    if (digest != expect[k])
      rep.fail(inputs[k].name + ": composed flow differs from TimberWolfMC::run");
    stored.push_back(store_result(p, opt.seed, inputs[k].name,
                                  store + "/" + inputs[k].name));
    nls.push_back(&inputs[k].nl);
    save_s += stored.back().save_s;
    bytes += static_cast<double>(stored.back().bytes);
  }
  const double load_s = reload_results(nls, stored, ref_teil, rep);
  double flow_spans = 0.0;
  for (const char* name : {"flow", "place.stage1", "refine.stage2",
                           "refine.pass_prep", "refine.anneal"})
    flow_spans += tr.self_time(name);
  report_flow_layers(acc, flow_spans, rep);
  rep.metric("recover.save_s", save_s, "s");
  rep.metric("recover.load_s", load_s, "s");
  rep.metric("recover.checkpoint_bytes", bytes, "bytes");
  rep.metric("serve.ack_ms", median(traced_ack_ms), "ms");
  rep.metric("serve.dedup_ratio", cached / submitted, "ratio");
  rep.metric("serve.journal_bytes", static_cast<double>(stats.journal_bytes), "bytes");
  rep.metric("serve.cache_bytes", static_cast<double>(stats.cache_bytes), "bytes");
  rep.metric("serve.shed", static_cast<double>(stats.shed), "count");
  rep.metric("netlist.parse_s", parse_s, "s");
  // Unattributed: served job time beyond the job's own flow (wire,
  // journal, cache, queueing, checkpoint writes).
  const double unattributed = latency_s - flow_spans;
  rep.metric("trace.unattributed_s", unattributed, "s");
  rep.metric("trace.unattributed_frac", unattributed / latency_s, "ratio");
  rep.metric("trace.overhead_s", traced_best - plain_best, "s");
  rep.metric("trace.overhead_frac", (traced_best - plain_best) / plain_best,
             "ratio");
}

}  // namespace perfbench
