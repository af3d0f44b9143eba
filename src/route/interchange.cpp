#include "route/interchange.hpp"

#include <algorithm>

#include "check/contracts.hpp"
#include "pool/workers.hpp"
#include "route/validate.hpp"
#include "util/log.hpp"

namespace tw {

namespace {

/// Nets per crew worker in one phase-one chunk: enough that the chunk's
/// last net rarely idles the other workers for long, few enough that a
/// cancellation waits for only a few nets' enumeration.
constexpr std::size_t kNetsPerWorkerChunk = 32;

}  // namespace

int total_overflow(const RoutingGraph& g, const std::vector<int>& usage) {
  int x = 0;
  for (std::size_t e = 0; e < usage.size(); ++e) {
    const int over = usage[e] - g.edge(static_cast<EdgeId>(e)).capacity;
    if (over > 0) x += over;
  }
  return x;
}

GlobalRouter::GlobalRouter(const RoutingGraph& g, GlobalRouterParams params)
    : g_(g), params_(params) {}

GlobalRouter::~GlobalRouter() = default;

GlobalRouteResult GlobalRouter::route(const std::vector<NetTargets>& nets) {
  GlobalRouteResult r;
  r.alternatives.resize(nets.size());
  r.choice.assign(nets.size(), -1);
  r.edge_usage.assign(g_.num_edges(), 0);
  if (!crew_) {
    crew_ = std::make_unique<WorkerCrew>(
        params_.workers > 0 ? params_.workers : host_workers());
    ws_.resize(static_cast<std::size_t>(crew_->num_workers()));
  }
  auto total_counters = [this]() {
    RouteCounters c;
    for (const SearchWorkspace& w : ws_) c += w.counters;
    return c;
  };
  const RouteCounters counters_before = total_counters();
  // Every return path calls this first so r.counters always reports the
  // work of exactly this call.
  auto finish = [&]() { r.counters = total_counters() - counters_before; };
  SearchWorkspace& ws = ws_[0];

  // --- phase one: enumerate alternatives, seed with the shortest ----------
  // The nets go through in chunks. Admission runs each net's kill-point
  // poll and budget charge on this thread in net order, so a kill or an
  // expiry lands on the same net for any worker count; then the crew
  // enumerates the chunk's admitted nets. A cancellation that arrives
  // during a chunk's enumeration is seen at the next chunk's first poll.
  // Nets past an expiry stay unrouted; the partial result is consistent.
  //
  // Each enumeration reads only the graph and its net and writes only its
  // own slot. Forgetting the previous net's promoted heuristic makes its
  // search work, and so the counters, independent of which nets its
  // worker ran before.
  auto& alternatives = r.alternatives;
  std::size_t first = 0;
  const WorkerCrew::Job enumerate = [this, &nets, &alternatives, &first](
                                        int worker, int slot) {
    SearchWorkspace& w = ws_[static_cast<std::size_t>(worker)];
    w.forget_exact_heuristic();
    const std::size_t i = first + static_cast<std::size_t>(slot);
    alternatives[i] = m_best_routes(g_, nets[i], params_.steiner, w);
  };
  const std::size_t chunk =
      kNetsPerWorkerChunk * static_cast<std::size_t>(crew_->num_workers());
  std::size_t admitted = 0;
  bool stopped_early = false;
  while (admitted < nets.size() && !stopped_early) {
    first = admitted;
    const std::size_t end = std::min(nets.size(), first + chunk);
    for (; admitted < end; ++admitted) {
      if (params_.faults != nullptr)
        params_.faults->poll(recover::FaultSite::kRouteNet);
      if (params_.budget != nullptr) {
        if (params_.budget->stop_requested()) {
          stopped_early = true;
          break;
        }
        params_.budget->charge_move();
      }
    }
    crew_->run(static_cast<int>(admitted - first), enumerate);
  }

  // Seed in net order: total_length is a double sum, and double addition
  // is not associative.
  r.unrouted_nets = static_cast<int>(nets.size() - admitted);
  for (std::size_t i = 0; i < admitted; ++i) {
    if (r.alternatives[i].empty()) {
      ++r.unrouted_nets;
      continue;
    }
    r.choice[i] = 0;
    for (EdgeId e : r.alternatives[i][0].edges)
      ++r.edge_usage[static_cast<std::size_t>(e)];
    r.total_length += r.alternatives[i][0].length;
  }
  r.total_overflow = total_overflow(g_, r.edge_usage);
  // The interchange below maintains edge_usage, total_length and
  // total_overflow incrementally; this checker recomputes all three.
  auto ensure_consistent = [&](const GlobalRouteResult& result) {
    if constexpr (check::kLevel >= check::kLevelFull) {
      const ValidationReport vr = validate_routing(g_, nets, result);
      TW_ENSURE_FULL(vr.ok(), vr.str());
    } else {
      (void)result;
    }
  };
  if (stopped_early || r.total_overflow == 0) {
    // Stopping criterion (1), or the budget expired during phase one — the
    // interchange loop would stop before its first attempt anyway, so skip
    // its setup and return the (validated) partial selection directly.
    ensure_consistent(r);
    finish();
    return r;
  }

  // --- phase two: random interchange ---------------------------------------
  Rng rng(params_.seed);

  // Nets using each edge, maintained incrementally.
  std::vector<std::vector<std::int32_t>> nets_on_edge(g_.num_edges());
  for (std::size_t i = 0; i < nets.size(); ++i)
    if (const Route* rt = r.route_of(i))
      for (EdgeId e : rt->edges)
        nets_on_edge[static_cast<std::size_t>(e)].push_back(
            static_cast<std::int32_t>(i));

  auto remove_net_from_edge = [&](EdgeId e, std::int32_t net) {
    auto& v = nets_on_edge[static_cast<std::size_t>(e)];
    v.erase(std::find(v.begin(), v.end(), net));
  };

  // Overflow worklist: the overloaded edges, kept sorted ascending so its
  // content is always identical to what a fresh O(E) scan would produce —
  // attempts only ever examine nets incident to an overloaded edge, and
  // the random draws match the previous full-scan implementation exactly.
  std::vector<EdgeId> over;
  for (std::size_t e = 0; e < r.edge_usage.size(); ++e)
    if (r.edge_usage[e] > g_.edge(static_cast<EdgeId>(e)).capacity)
      over.push_back(static_cast<EdgeId>(e));

  // The single mutation point for edge usage: adjusts the count and keeps
  // the worklist in sync when the edge crosses its capacity either way.
  auto apply_usage_delta = [&](EdgeId e, int delta) {
    const int cap = g_.edge(e).capacity;
    int& usage = r.edge_usage[static_cast<std::size_t>(e)];
    const bool was_over = usage > cap;
    usage += delta;
    const bool is_over = usage > cap;
    if (was_over == is_over) return;
    const auto it = std::lower_bound(over.begin(), over.end(), e);
    if (is_over) {
      over.insert(it, e);
    } else {
      TW_ASSERT(it != over.end() && *it == e,
                "overflow worklist lost edge ", e);
      over.erase(it);
    }
  };

  const long long patience =
      static_cast<long long>(std::max(1, params_.steiner.m)) *
      static_cast<long long>(std::max<std::size_t>(1, nets.size()));
  long long unchanged = 0;

  // Rip-up augmentation: when the interchange stalls with overflow left,
  // nets crossing overloaded channels get an extra congestion-aware
  // alternative (a greedy route that pays a penalty on overloaded edges),
  // and the interchange resumes. This keeps the phase-two guarantee —
  // order-free selection — while reaching detours phase one's M shortest
  // routes missed.
  int augment_rounds_left = 3;
  auto augment = [&]() {
    if (augment_rounds_left-- <= 0) return false;
    // Penalty scale: several average route lengths per unit of overflow.
    double avg_len = 0.0;
    int routed_count = 0;
    for (std::size_t i = 0; i < nets.size(); ++i)
      if (const Route* rt = r.route_of(i)) {
        avg_len += rt->length;
        ++routed_count;
      }
    const double penalty =
        4.0 * (routed_count ? avg_len / routed_count : 1.0) + 1.0;
    std::vector<double> extra(g_.num_edges(), 0.0);
    for (std::size_t e = 0; e < r.edge_usage.size(); ++e) {
      const int over =
          r.edge_usage[e] - g_.edge(static_cast<EdgeId>(e)).capacity;
      if (over > 0) extra[e] = penalty * static_cast<double>(over);
    }
    bool added = false;
    for (std::size_t i = 0; i < nets.size(); ++i) {
      const Route* cur = r.route_of(i);
      if (!cur) continue;
      bool uses_overflow = false;
      for (EdgeId e : cur->edges)
        if (r.edge_usage[static_cast<std::size_t>(e)] >
            g_.edge(e).capacity) {
          uses_overflow = true;
          break;
        }
      if (!uses_overflow) continue;
      auto alt = greedy_route(g_, nets[i], &extra, ws);
      if (!alt) continue;
      std::sort(alt->edges.begin(), alt->edges.end());
      alt->length = 0.0;
      for (EdgeId e : alt->edges) alt->length += g_.edge(e).length;
      bool duplicate = false;
      for (const Route& have : r.alternatives[i])
        if (have.edges == alt->edges) {
          duplicate = true;
          break;
        }
      if (duplicate) continue;
      r.alternatives[i].push_back(std::move(*alt));
      added = true;
    }
    return added;
  };

  while (r.total_overflow > 0) {
    if (params_.budget != nullptr) {
      if (params_.budget->stop_requested()) break;
      params_.budget->charge_move();
    }
    if (unchanged >= patience) {
      // Stopping criterion (2) hit with overflow left: widen the pool or
      // give up.
      if (!augment()) break;
      unchanged = 0;
    }
    ++r.interchange_attempts;
    ++ws.counters.interchange_trials;
    ++unchanged;

    // Random overflowed edge, drawn from the maintained worklist.
    if (over.empty()) break;
    const EdgeId ej = over[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(over.size()) - 1))];

    const auto& users = nets_on_edge[static_cast<std::size_t>(ej)];
    if (users.empty()) break;  // capacity < 0 edge with no user: stuck
    const std::int32_t net = users[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(users.size()) - 1))];

    const auto ni = static_cast<std::size_t>(net);
    const Route& cur = r.alternatives[ni][static_cast<std::size_t>(r.choice[ni])];

    // Evaluate every alternative's (dX, dL); keep those with dX <= 0.
    struct Candidate {
      int k;
      int dx;
      double dl;
    };
    std::vector<Candidate> ok;
    for (int k = 0; k < static_cast<int>(r.alternatives[ni].size()); ++k) {
      if (k == r.choice[ni]) continue;
      const Route& alt = r.alternatives[ni][static_cast<std::size_t>(k)];
      int dx = 0;
      // Edges leaving the selection (cur \ alt) and entering (alt \ cur);
      // both edge lists are sorted.
      std::size_t a = 0, b = 0;
      auto over_delta = [&](EdgeId e, int delta) {
        const int cap = g_.edge(e).capacity;
        const int before = std::max(0, r.edge_usage[static_cast<std::size_t>(e)] - cap);
        const int after =
            std::max(0, r.edge_usage[static_cast<std::size_t>(e)] + delta - cap);
        dx += after - before;
      };
      while (a < cur.edges.size() || b < alt.edges.size()) {
        if (b >= alt.edges.size() ||
            (a < cur.edges.size() && cur.edges[a] < alt.edges[b])) {
          over_delta(cur.edges[a], -1);
          ++a;
        } else if (a >= cur.edges.size() || alt.edges[b] < cur.edges[a]) {
          over_delta(alt.edges[b], +1);
          ++b;
        } else {
          ++a;
          ++b;
        }
      }
      if (dx <= 0) ok.push_back({k, dx, alt.length - cur.length});
    }
    if (ok.empty()) continue;

    const Candidate cand = ok[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ok.size()) - 1))];
    // Acceptance rule: dX < 0, or dX == 0 and dL <= 0.
    if (!(cand.dx < 0 || (cand.dx == 0 && cand.dl <= 0.0))) continue;

    // Apply the interchange.
    const Route& alt = r.alternatives[ni][static_cast<std::size_t>(cand.k)];
    for (EdgeId e : cur.edges) {
      apply_usage_delta(e, -1);
      remove_net_from_edge(e, net);
    }
    for (EdgeId e : alt.edges) {
      apply_usage_delta(e, +1);
      nets_on_edge[static_cast<std::size_t>(e)].push_back(net);
    }
    r.choice[ni] = cand.k;
    r.total_length += cand.dl;
    r.total_overflow += cand.dx;
    TW_ASSERT(r.total_overflow >= 0, "X=", r.total_overflow,
              " after interchange of net ", net);
    if (cand.dx != 0 || cand.dl != 0.0) unchanged = 0;
  }

  // Fixed-point certificate: one full scan confirms the incrementally
  // maintained worklist and overflow total against ground truth.
  {
    int x = 0;
    std::size_t wl = 0;
    for (std::size_t e = 0; e < r.edge_usage.size(); ++e) {
      const int cap = g_.edge(static_cast<EdgeId>(e)).capacity;
      if (r.edge_usage[e] > cap) {
        x += r.edge_usage[e] - cap;
        TW_ASSERT(wl < over.size() && over[wl] == static_cast<EdgeId>(e),
                  "overflow worklist out of sync at edge ", e);
        ++wl;
      }
    }
    TW_ASSERT(wl == over.size(), "overflow worklist has ",
              over.size() - wl, " stale entries");
    TW_ASSERT(x == r.total_overflow, "incremental X=", r.total_overflow,
              " but recomputed X=", x);
  }

  ensure_consistent(r);
  finish();
  return r;
}

}  // namespace tw
