// Tests for phase two of the global router (random interchange under
// capacity constraints, Eqns 23-24), the sequential baseline router, and
// phase one on a WorkerCrew: every result field, the counters, budget
// admission and kill points are the same for any worker count. The suite
// carries the "robustness" label, so the TSan CI leg runs the crew cases
// across real threads. The golden cases pin every result field but the
// work counters on the channel graphs stage 2 routes, so a change to the
// search core that only saves work must leave them byte-identical.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>

#include "channel/channel_graph.hpp"
#include "estimator/area_estimator.hpp"
#include "place/legalize.hpp"
#include "place/stage1.hpp"
#include "pool/workers.hpp"
#include "random_graph.hpp"
#include "recover/fault.hpp"
#include "route/interchange.hpp"
#include "route/sequential.hpp"
#include "util/rng.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

/// Two parallel corridors between endpoint clusters:
///   s - a1 - a2 - t   (short, length 30, capacity `cap_short` per edge)
///   s - b1 - b2 - t   (long, length 60)
struct TwoCorridor {
  RoutingGraph g;
  NodeId s, a1, a2, b1, b2, t;
  explicit TwoCorridor(int cap_short, int cap_long = 8) {
    s = g.add_node({0, 0});
    a1 = g.add_node({10, 10});
    a2 = g.add_node({20, 10});
    b1 = g.add_node({10, -20});
    b2 = g.add_node({20, -20});
    t = g.add_node({30, 0});
    g.add_edge(s, a1, 10.0, cap_short);
    g.add_edge(a1, a2, 10.0, cap_short);
    g.add_edge(a2, t, 10.0, cap_short);
    g.add_edge(s, b1, 20.0, cap_long);
    g.add_edge(b1, b2, 20.0, cap_long);
    g.add_edge(b2, t, 20.0, cap_long);
  }
};

NetTargets two_pin(NodeId a, NodeId b) {
  NetTargets n;
  n.pins = {{a}, {b}};
  return n;
}

TEST(Interchange, AllShortWhenCapacityAllows) {
  TwoCorridor f(4);
  std::vector<NetTargets> nets{two_pin(f.s, f.t), two_pin(f.s, f.t)};
  GlobalRouter router(f.g, {{8}, 1});
  const auto r = router.route(nets);
  EXPECT_EQ(r.total_overflow, 0);
  EXPECT_DOUBLE_EQ(r.total_length, 60.0);  // both on the short corridor
  EXPECT_EQ(r.unrouted_nets, 0);
}

TEST(Interchange, SpillsToLongCorridorUnderPressure) {
  // Short corridor holds one net; three nets must split 1 + 2.
  TwoCorridor f(1);
  std::vector<NetTargets> nets{two_pin(f.s, f.t), two_pin(f.s, f.t),
                               two_pin(f.s, f.t)};
  GlobalRouter router(f.g, {{8}, 3});
  const auto r = router.route(nets);
  EXPECT_EQ(r.total_overflow, 0);
  EXPECT_DOUBLE_EQ(r.total_length, 30.0 + 60.0 + 60.0);
}

TEST(Interchange, ReportsOverflowWhenInfeasible) {
  // Both corridors capacity 1, three nets: overflow unavoidable.
  TwoCorridor f(1, 1);
  std::vector<NetTargets> nets{two_pin(f.s, f.t), two_pin(f.s, f.t),
                               two_pin(f.s, f.t)};
  GlobalRouter router(f.g, {{8}, 5});
  const auto r = router.route(nets);
  EXPECT_GT(r.total_overflow, 0);
  // Usage bookkeeping consistent with choices.
  std::vector<int> usage(f.g.num_edges(), 0);
  for (std::size_t n = 0; n < nets.size(); ++n) {
    const Route* rt = r.route_of(n);
    ASSERT_NE(rt, nullptr);
    for (EdgeId e : rt->edges) ++usage[static_cast<std::size_t>(e)];
  }
  EXPECT_EQ(usage, r.edge_usage);
  EXPECT_EQ(r.total_overflow, total_overflow(f.g, usage));
}

TEST(Interchange, SelectedRoutesConnectTheirNets) {
  TwoCorridor f(1);
  std::vector<NetTargets> nets{two_pin(f.s, f.t), two_pin(f.s, f.t),
                               two_pin(f.a1, f.b2)};
  GlobalRouter router(f.g, {{8}, 7});
  const auto r = router.route(nets);
  for (std::size_t n = 0; n < nets.size(); ++n) {
    const Route* rt = r.route_of(n);
    ASSERT_NE(rt, nullptr);
    EXPECT_TRUE(route_connects(f.g, nets[n], *rt)) << n;
  }
}

TEST(Interchange, DeterministicForSeed) {
  TwoCorridor f(1);
  std::vector<NetTargets> nets{two_pin(f.s, f.t), two_pin(f.s, f.t),
                               two_pin(f.s, f.t)};
  const auto r1 = GlobalRouter(f.g, {{8}, 9}).route(nets);
  const auto r2 = GlobalRouter(f.g, {{8}, 9}).route(nets);
  EXPECT_EQ(r1.choice, r2.choice);
  EXPECT_DOUBLE_EQ(r1.total_length, r2.total_length);
}

TEST(Interchange, TotalLengthConsistent) {
  TwoCorridor f(1);
  std::vector<NetTargets> nets{two_pin(f.s, f.t), two_pin(f.s, f.t),
                               two_pin(f.s, f.t)};
  const auto r = GlobalRouter(f.g, {{8}, 11}).route(nets);
  double sum = 0.0;
  for (std::size_t n = 0; n < nets.size(); ++n) sum += r.route_of(n)->length;
  EXPECT_NEAR(r.total_length, sum, 1e-9);
}

TEST(Interchange, UnroutableNetCounted) {
  RoutingGraph g;
  const NodeId a = g.add_node({0, 0});
  const NodeId b = g.add_node({10, 0});
  g.add_node({99, 99});  // isolated
  g.add_edge(a, b, 10.0, 2);
  std::vector<NetTargets> nets{two_pin(a, b), two_pin(a, 2)};
  const auto r = GlobalRouter(g, {{4}, 1}).route(nets);
  EXPECT_EQ(r.unrouted_nets, 1);
  EXPECT_EQ(r.choice[1], -1);
  EXPECT_EQ(r.route_of(1), nullptr);
}

TEST(Sequential, RoutesGreedily) {
  TwoCorridor f(4);
  std::vector<NetTargets> nets{two_pin(f.s, f.t)};
  const auto r = route_sequential(f.g, nets);
  EXPECT_EQ(r.total_overflow, 0);
  EXPECT_DOUBLE_EQ(r.total_length, 30.0);
}

TEST(Sequential, AvoidsSaturatedEdges) {
  TwoCorridor f(1);
  std::vector<NetTargets> nets{two_pin(f.s, f.t), two_pin(f.s, f.t)};
  const auto r = route_sequential(f.g, nets);
  EXPECT_EQ(r.total_overflow, 0);
  EXPECT_DOUBLE_EQ(r.total_length, 30.0 + 60.0);
}

TEST(Sequential, OrderDependenceDemonstrated) {
  // The classical problem (Section 4.2.2): a net whose only short corridor
  // is shared. Order A routes the flexible net first and blocks the rigid
  // one; order B does not. The interchange router matches the better order
  // regardless.
  RoutingGraph g;
  // Chain: u - v with capacity 1 short edge and a long detour for net X
  // only; net Y has no detour.
  const NodeId u = g.add_node({0, 0});
  const NodeId v = g.add_node({10, 0});
  const NodeId d1 = g.add_node({0, 20});
  const NodeId d2 = g.add_node({10, 20});
  g.add_edge(u, v, 10.0, 1);    // shared short edge
  g.add_edge(u, d1, 10.0, 4);   // detour, only reachable from u/v
  g.add_edge(d1, d2, 10.0, 4);
  g.add_edge(d2, v, 10.0, 4);

  std::vector<NetTargets> nets{two_pin(u, v), two_pin(u, v)};
  const int order_a[] = {0, 1};
  const int order_b[] = {1, 0};
  const auto ra = route_sequential(g, nets, order_a);
  const auto rb = route_sequential(g, nets, order_b);
  // Both orders give 10 + 30 here (symmetric nets) — extend with an
  // asymmetric pair: net 1 can ONLY use the short edge.
  RoutingGraph g2;
  const NodeId s = g2.add_node({0, 0});
  const NodeId m = g2.add_node({10, 0});
  const NodeId t = g2.add_node({20, 0});
  const NodeId e1 = g2.add_node({0, 20});
  const NodeId e2 = g2.add_node({20, 20});
  g2.add_edge(s, m, 10.0, 1);
  g2.add_edge(m, t, 10.0, 1);
  g2.add_edge(s, e1, 15.0, 4);
  g2.add_edge(e1, e2, 15.0, 4);
  g2.add_edge(e2, t, 15.0, 4);
  // Net 0: s->t (has the detour). Net 1: s->m (must use edge s-m).
  std::vector<NetTargets> nets2{two_pin(s, t), two_pin(s, m)};
  const auto seq_bad = route_sequential(g2, nets2, order_a);   // net 0 first
  const auto seq_good = route_sequential(g2, nets2, order_b);  // net 1 first
  // Routing net 0 first grabs s-m; net 1 then overflows it.
  EXPECT_GT(seq_bad.total_overflow, 0);
  EXPECT_EQ(seq_good.total_overflow, 0);

  // The interchange router is order-free: it must match the good outcome.
  const auto inter = GlobalRouter(g2, {{8}, 21}).route(nets2);
  EXPECT_EQ(inter.total_overflow, 0);
  EXPECT_DOUBLE_EQ(inter.total_length, 45.0 + 10.0);

  (void)ra;
  (void)rb;
}

TEST(Sequential, UsageBookkeeping) {
  TwoCorridor f(2);
  std::vector<NetTargets> nets{two_pin(f.s, f.t), two_pin(f.s, f.t)};
  const auto r = route_sequential(f.g, nets);
  std::vector<int> usage(f.g.num_edges(), 0);
  for (const auto& rt : r.routes)
    for (EdgeId e : rt.edges) ++usage[static_cast<std::size_t>(e)];
  EXPECT_EQ(usage, r.edge_usage);
}

TEST(Interchange, AugmentationFindsDetourBeyondMAlternatives) {
  // A ladder where the M shortest alternatives of every net share the same
  // congested rungs, but a long detour exists. With M = 1 phase one only
  // knows the shared shortest route; the rip-up augmentation must discover
  // the detour and clear the overflow.
  RoutingGraph g;
  const NodeId s = g.add_node({0, 0});
  const NodeId t = g.add_node({30, 0});
  const NodeId m1 = g.add_node({10, 0});
  const NodeId m2 = g.add_node({20, 0});
  g.add_edge(s, m1, 10.0, 1);
  g.add_edge(m1, m2, 10.0, 1);
  g.add_edge(m2, t, 10.0, 1);
  // Detour: four hops over the top, ample capacity.
  const NodeId d1 = g.add_node({5, 20});
  const NodeId d2 = g.add_node({25, 20});
  g.add_edge(s, d1, 25.0, 8);
  g.add_edge(d1, d2, 25.0, 8);
  g.add_edge(d2, t, 25.0, 8);

  std::vector<NetTargets> nets{two_pin(s, t), two_pin(s, t)};
  GlobalRouterParams params;
  params.steiner.m = 1;  // phase one yields only the shared shortest route
  params.seed = 5;
  const auto r = GlobalRouter(g, params).route(nets);
  EXPECT_EQ(r.total_overflow, 0);
  // One net on the short path (30), one on the detour (75).
  EXPECT_DOUBLE_EQ(r.total_length, 30.0 + 75.0);
  // The augmented alternative was recorded in the pool.
  EXPECT_GT(r.alternatives[0].size() + r.alternatives[1].size(), 2u);
}

TEST(Interchange, AugmentationGivesUpGracefully) {
  // No detour exists: augmentation must terminate and report overflow.
  RoutingGraph g;
  const NodeId a = g.add_node({0, 0});
  const NodeId b = g.add_node({10, 0});
  g.add_edge(a, b, 10.0, 1);
  std::vector<NetTargets> nets{two_pin(a, b), two_pin(a, b), two_pin(a, b)};
  const auto r = GlobalRouter(g, {{2}, 3}).route(nets);
  EXPECT_EQ(r.total_overflow, 2);
  EXPECT_EQ(r.unrouted_nets, 0);
}

TEST(Sequential, MultiPinNetWithEquivalents) {
  TwoCorridor f(4);
  NetTargets net;
  net.pins = {{f.s}, {f.a2, f.b2}, {f.t}};
  const auto r = route_sequential(f.g, {net});
  EXPECT_EQ(r.unrouted_nets, 0);
  EXPECT_TRUE(route_connects(f.g, net, r.routes[0]));
  // Best: s -a1- a2 -t picks the a2 alternative, total 30.
  EXPECT_DOUBLE_EQ(r.total_length, 30.0);
}

// --- phase one on a WorkerCrew ----------------------------------------------

// The router keeps its workers' workspaces back to back; each must start
// on its own pair of cache lines, or neighbouring workers' heap and
// counter writes false-share (see search_workspace.hpp).
static_assert(alignof(SearchWorkspace) >= 128,
              "phase-one workspaces must not share cache lines");

/// Every field of two results, total_length to the bit.
void expect_identical(const GlobalRouteResult& a, const GlobalRouteResult& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.alternatives, b.alternatives);
  EXPECT_EQ(a.choice, b.choice);
  EXPECT_EQ(a.edge_usage, b.edge_usage);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.total_length),
            std::bit_cast<std::uint64_t>(b.total_length));
  EXPECT_EQ(a.total_overflow, b.total_overflow);
  EXPECT_EQ(a.unrouted_nets, b.unrouted_nets);
  EXPECT_EQ(a.interchange_attempts, b.interchange_attempts);
  EXPECT_EQ(a.counters.dijkstra_runs, b.counters.dijkstra_runs);
  EXPECT_EQ(a.counters.nodes_popped, b.counters.nodes_popped);
  EXPECT_EQ(a.counters.heap_pushes, b.counters.heap_pushes);
  EXPECT_EQ(a.counters.interchange_trials, b.counters.interchange_trials);
}

/// Phase-one worker counts compared with one worker; 0 is the default,
/// one per hardware thread.
constexpr int kWorkerCounts[] = {2, 4, 8, 0};

/// Routes `nets` on one worker, then on every count in kWorkerCounts,
/// and expects every result to equal the one-worker one. Each count
/// routes twice through one router, so warm workspaces are covered.
/// Returns the one-worker result.
GlobalRouteResult expect_crew_invariant(const RoutingGraph& g,
                                        const std::vector<NetTargets>& nets,
                                        GlobalRouterParams params) {
  params.workers = 1;
  const GlobalRouteResult serial = GlobalRouter(g, params).route(nets);
  for (int workers : kWorkerCounts) {
    params.workers = workers;
    GlobalRouter router(g, params);
    const std::string what = std::to_string(workers) + " workers";
    expect_identical(serial, router.route(nets), what);
    expect_identical(serial, router.route(nets), what + ", warm");
  }
  return serial;
}

/// A congested random grid (capacity 2; manhattan or random edge
/// lengths, so A* runs with a full or a degraded scale) with two pin
/// stubs per grid node on average, and 2-4 pin nets whose pins are stubs,
/// with equivalent-pin alternatives. Extra chords get lengths in tenths,
/// which doubles do not represent exactly, so total_length depends on
/// the order of its sum. Every third net repeats its predecessor: a
/// workspace that kept the last net's promoted heuristic would skip a
/// sweep there, and the counters would depend on which worker ran which
/// net.
struct RandomInstance {
  RoutingGraph g;
  std::vector<NetTargets> nets;

  explicit RandomInstance(Rng& rng) {
    const int w = static_cast<int>(rng.uniform_int(4, 8));
    const int h = static_cast<int>(rng.uniform_int(4, 8));
    const bool manhattan = rng.uniform_int(0, 1) == 0;
    g = testing::random_grid(rng, w, h, manhattan);
    for (int c = w; c > 0; --c) {
      const auto a = static_cast<NodeId>(rng.uniform_int(0, w * h - 1));
      const auto b = static_cast<NodeId>(rng.uniform_int(0, w * h - 1));
      if (a != b)
        g.add_edge(a, b, static_cast<double>(rng.uniform_int(51, 399)) / 10.0,
                   1);
    }
    const std::vector<NodeId> stubs =
        testing::add_stubs(g, rng, 2 * w * h, manhattan);
    const auto last_stub = static_cast<std::int64_t>(stubs.size()) - 1;
    const int n_nets = static_cast<int>(rng.uniform_int(10, 40));
    for (int i = 0; i < n_nets; ++i) {
      if (i % 3 == 2) {
        nets.push_back(nets.back());
        continue;
      }
      NetTargets net;
      std::set<NodeId> used;
      const int pins = static_cast<int>(rng.uniform_int(2, 4));
      for (int p = 0; p < pins; ++p) {
        std::vector<NodeId> alts;
        for (int k = static_cast<int>(rng.uniform_int(1, 2)); k > 0; --k) {
          const NodeId n =
              stubs[static_cast<std::size_t>(rng.uniform_int(0, last_stub))];
          if (used.insert(n).second) alts.push_back(n);
        }
        if (!alts.empty()) net.pins.push_back(std::move(alts));
      }
      nets.push_back(std::move(net));
    }
  }
};

TEST(RouterCrew, RandomGridsAreCrewSizeInvariant) {
  Rng rng(2024);
  for (int iter = 0; iter < 12; ++iter) {
    SCOPED_TRACE("instance " + std::to_string(iter));
    const RandomInstance inst(rng);
    GlobalRouterParams params;
    params.steiner.m = static_cast<int>(rng.uniform_int(1, 6));
    // A draw no parameter takes any more, kept so that this seed still
    // yields the same random instances.
    (void)rng.uniform_int(0, 1);
    params.seed = static_cast<std::uint64_t>(iter) + 11;
    const GlobalRouteResult r =
        expect_crew_invariant(inst.g, inst.nets, params);
    EXPECT_GT(r.counters.dijkstra_runs, 0);
  }
}

/// Stage 2's routing input for a random placement of `spec` in its
/// estimated core: legalized at stage 2's margin, then channel definition.
struct RandomChannels {
  Netlist nl;
  ChannelGraph cg;
  std::vector<NetTargets> nets;

  RandomChannels(const CircuitSpec& spec, std::uint64_t seed)
      : nl(generate_circuit(spec)) {
    Placement placement(nl);
    const Rect core = DynamicAreaEstimator(nl).compute_initial_core();
    Rng rng(seed);
    placement.randomize(rng, core);
    legalize_spread(placement, core, 2 * nl.tech().track_separation);
    cg = build_channel_graph(placement, core);
    nets = build_net_targets(nl, cg);
  }
};

/// The routing input of paper circuit p1 that the crew cases share.
struct P1Channels : RandomChannels {
  P1Channels() : RandomChannels(paper_circuit("p1").spec, 7) {}
};

TEST(RouterCrew, P1ChannelGraphIsCrewSizeInvariant) {
  const P1Channels p1;
  GlobalRouterParams params;
  params.seed = 3;
  const GlobalRouteResult r =
      expect_crew_invariant(p1.cg.graph, p1.nets, params);
  EXPECT_EQ(r.unrouted_nets, 0);
  EXPECT_GT(r.counters.dijkstra_runs, 0);
}

TEST(RouterCrew, BudgetExpiringDuringAdmissionRoutesTheSamePrefix) {
  const P1Channels p1;
  const std::size_t cut = p1.nets.size() / 2;
  auto budgeted_route = [&](int workers, std::int64_t& moves) {
    recover::RunBudget budget(static_cast<std::int64_t>(cut),
                              recover::RunBudget::kUnlimited);
    GlobalRouterParams params;
    params.seed = 3;
    params.budget = &budget;
    params.workers = workers;
    GlobalRouteResult r = GlobalRouter(p1.cg.graph, params).route(p1.nets);
    moves = budget.moves_charged();
    return r;
  };
  std::int64_t serial_moves = 0;
  const GlobalRouteResult serial = budgeted_route(1, serial_moves);
  EXPECT_EQ(serial_moves, static_cast<std::int64_t>(cut));
  for (std::size_t i = 0; i < p1.nets.size(); ++i)
    EXPECT_EQ(serial.choice[i] >= 0, i < cut) << "net " << i;
  EXPECT_EQ(serial.interchange_attempts, 0);
  for (int workers : kWorkerCounts) {
    std::int64_t moves = 0;
    expect_identical(serial, budgeted_route(workers, moves),
                     std::to_string(workers) + " workers");
    EXPECT_EQ(moves, serial_moves);
  }
}

TEST(RouterCrew, KillPointFiresAtTheSamePoll) {
  const P1Channels p1;
  const std::int64_t nth = static_cast<std::int64_t>(p1.nets.size()) / 3;
  for (int workers : {1, 4}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    recover::FaultPlan plan;
    plan.kill_at(recover::FaultSite::kRouteNet, nth);
    GlobalRouterParams params;
    params.faults = &plan;
    params.workers = workers;
    GlobalRouter router(p1.cg.graph, params);
    std::int64_t fired = -1;
    try {
      (void)router.route(p1.nets);
    } catch (const recover::InjectedFault& f) {
      fired = f.count();
    }
    EXPECT_EQ(fired, nth);
    EXPECT_EQ(plan.count(recover::FaultSite::kRouteNet), nth + 1);
    // The router and its crew stay usable after the unwound route.
    const GlobalRouteResult after = router.route(p1.nets);
    EXPECT_EQ(after.unrouted_nets, 0);
  }
}

// --- golden routes ------------------------------------------------------------

/// FNV-1a over every GlobalRouteResult field except the work counters:
/// each alternative's edges and length bits, the choice, the edge usage,
/// the total_length bits, X, the unrouted nets and the interchange
/// attempts.
std::uint64_t route_digest(const GlobalRouteResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const auto mix_int = [&mix](long long v) {
    mix(static_cast<std::uint64_t>(v));
  };
  mix(r.alternatives.size());
  for (const std::vector<Route>& alts : r.alternatives) {
    mix(alts.size());
    for (const Route& route : alts) {
      mix(route.edges.size());
      for (EdgeId e : route.edges) mix_int(e);
      mix(std::bit_cast<std::uint64_t>(route.length));
    }
  }
  for (int c : r.choice) mix_int(c);
  for (int u : r.edge_usage) mix_int(u);
  mix(std::bit_cast<std::uint64_t>(r.total_length));
  mix_int(r.total_overflow);
  mix_int(r.unrouted_nets);
  mix_int(r.interchange_attempts);
  return h;
}

/// Routes `nets` on one worker and on one per hardware thread; both
/// results must digest to `golden`.
void expect_golden_route(const RoutingGraph& g,
                         const std::vector<NetTargets>& nets,
                         GlobalRouterParams params, std::uint64_t golden) {
  for (int workers : {1, host_workers()}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    params.workers = workers;
    const GlobalRouteResult r = GlobalRouter(g, params).route(nets);
    EXPECT_EQ(route_digest(r), golden);
  }
}

TEST(RouterGolden, PaperFlowPassZero) {
  // Pass 0's routing input for every item of the end-to-end benchmark's
  // paper_flow (p1, and i3 under its three item seeds) for master seeds
  // 1 and 2: stage 1 at A_c = 5 and p2_samples = 8, legalized at stage
  // 2's margin, channel definition, and the router seed stage 2 draws
  // first.
  struct Case {
    std::uint64_t master;
    const char* item;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {1, "p1", 3245651705004968730ull},
      {1, "i3", 10931824349756961170ull},
      {1, "i3b", 1888165184384731614ull},
      {1, "i3c", 9417962252938176960ull},
      {2, "p1", 18384202355583934238ull},
      {2, "i3", 16520112753788909099ull},
      {2, "i3b", 8977461661628765080ull},
      {2, "i3c", 3706906404818864199ull},
  };
  Stage1Params s1_params;
  s1_params.attempts_per_cell = 5;
  s1_params.p2_samples = 8;
  for (const Case& c : cases) {
    const std::string item = c.item;
    SCOPED_TRACE("seed " + std::to_string(c.master) + " " + item);
    const Netlist nl = generate_circuit(paper_circuit(item.substr(0, 2)).spec);
    const std::uint64_t flow_seed = derive_seed(c.master, "flow/" + item);
    Placement p(nl);
    const Stage1Result s1 =
        Stage1Placer(nl, s1_params, derive_seed(flow_seed, "stage1")).run(p);
    legalize_spread(p, s1.core, 2 * nl.tech().track_separation);
    const ChannelGraph cg = build_channel_graph(p, s1.core);
    GlobalRouterParams params;
    params.seed = Rng(derive_seed(flow_seed, "stage2"))();
    expect_golden_route(cg.graph, build_net_targets(nl, cg), params,
                        c.digest);
  }
}

TEST(RouterGolden, RandomTinyPlacements) {
  // Random placements of tiny circuits (with custom cells) in the
  // estimator's core, legalized at stage 2's margin: channel graphs of
  // 115-130 nodes, 96 of them pin stubs, that every route leaves
  // overflowed (X = 7 to 53), so phase two works on each (246-702
  // interchange attempts).
  const std::uint64_t digests[] = {
      12314875415003241962ull, 5706458871089867851ull,
      5915749142606278963ull,  2617571554122558291ull,
      17435246197064203617ull, 15454858959382228575ull};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RandomChannels in(tiny_circuit(seed), seed * 17);
    GlobalRouterParams params;
    params.seed = seed;
    expect_golden_route(in.cg.graph, in.nets, params, digests[seed - 1]);
  }
}

}  // namespace
}  // namespace tw
