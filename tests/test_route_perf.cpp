// Regression tests for the router performance core (see docs/PERF.md,
// "Global router"): randomized equivalence of A* against plain Dijkstra,
// of the deviation k-shortest algorithm against brute force and against
// its Dijkstra-driven twin, of the target-seeking stop modes (which skip
// dead ends) against an exhaustive sweep, consistency + same-seed
// determinism of the worklist-driven interchange, and the zero-allocation
// warm-query guarantee of SearchWorkspace. The fuzzed graphs carry pin
// stubs, as channel graphs do, and their queries run between stubs (the
// dead-end fuzz also between any nodes).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "route/interchange.hpp"
#include "route/kshortest.hpp"
#include "route/shortest_path.hpp"
#include "random_graph.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter. Replacing the global operator new/delete pair
// lets the warm-query test assert that a hot search performs literally
// zero heap allocations. The counter is process-wide and atomic, because
// GlobalRouter::route allocates on its phase-one crew's threads too; the
// measured regions are single-threaded, so before/after deltas around
// them are exact. The replacements stay out of line: inlined into a
// caller, delete's free() lands on a pointer gcc saw come from operator
// new, and gcc warns at each such site (-Wmismatched-new-delete).
namespace {
std::atomic<long long> g_new_calls{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tw {
namespace {

using testing::add_stubs;
using testing::random_grid;

// ---------------------------------------------------------------------------
// Random instances. Edge lengths and extra costs are small integers so
// every path length is an exactly representable double and cross-checks
// can compare with ==.

/// A random grid with 2 to w*h pin stubs hung off it.
struct StubGrid {
  RoutingGraph g;
  std::vector<NodeId> stubs;

  StubGrid(Rng& rng, int w, int h, bool exact_manhattan)
      : g(random_grid(rng, w, h, exact_manhattan)) {
    const int n = static_cast<int>(rng.uniform_int(2, w * h));
    stubs = add_stubs(g, rng, n, exact_manhattan);
  }
};

/// 1-3 distinct nodes of `pool`, disjoint from `avoid`.
std::vector<NodeId> random_node_set(Rng& rng, const std::vector<NodeId>& pool,
                                    const std::set<NodeId>& avoid) {
  std::set<NodeId> picked;
  const int want = static_cast<int>(rng.uniform_int(1, 3));
  for (int tries = 0; static_cast<int>(picked.size()) < want && tries < 64;
       ++tries) {
    const NodeId n = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    if (!avoid.count(n)) picked.insert(n);
  }
  return {picked.begin(), picked.end()};
}

double query_cost(const RoutingGraph& g, const PathResult& p,
                  const PathQuery& q) {
  double c = 0.0;
  for (EdgeId e : p.edges) {
    c += g.edge(e).length;
    if (q.extra_cost) c += (*q.extra_cost)[static_cast<std::size_t>(e)];
  }
  return c;
}

// ---------------------------------------------------------------------------
// A* vs Dijkstra. Goal direction changes which nodes are explored — and,
// among equally-near targets, possibly which one settles first — but
// never the returned length; and each mode on its own is a pure function
// of the query (bit-for-bit repeatable).

TEST(RoutePerf, AStarMatchesDijkstraFuzz) {
  Rng rng(20260806);
  int compared = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const bool manhattan = rng.uniform_int(0, 1) == 0;
    const int w = static_cast<int>(rng.uniform_int(2, 6));
    const int h = static_cast<int>(rng.uniform_int(2, 6));
    const StubGrid sg(rng, w, h, manhattan);
    const RoutingGraph& g = sg.g;

    const auto sources = random_node_set(rng, sg.stubs, {});
    const auto targets = random_node_set(
        rng, sg.stubs, std::set<NodeId>(sources.begin(), sources.end()));
    if (targets.empty()) continue;

    PathQuery q;
    std::vector<double> extra;
    if (rng.uniform_int(0, 1) == 0) {
      extra.resize(g.num_edges());
      for (double& x : extra) x = static_cast<double>(rng.uniform_int(0, 5));
      q.extra_cost = &extra;
    }
    std::vector<char> blocked;
    if (rng.uniform_int(0, 1) == 0) {
      blocked.assign(g.num_edges(), 0);
      for (auto&& b : blocked) b = rng.uniform_int(0, 4) == 0 ? 1 : 0;
      q.blocked_edges = &blocked;
    }

    SearchWorkspace astar;
    SearchWorkspace plain;
    plain.set_astar(false);
    const auto pa = shortest_path_between_sets(g, sources, targets, q, astar);
    const auto pd = shortest_path_between_sets(g, sources, targets, q, plain);
    ASSERT_EQ(pa.has_value(), pd.has_value());
    if (!pa) continue;
    ++compared;
    EXPECT_EQ(pa->length, pd->length);
    EXPECT_EQ(pa->length, query_cost(g, *pa, q));
    EXPECT_EQ(pd->length, query_cost(g, *pd, q));

    // Each mode is deterministic: the same query replayed returns the
    // identical path, not merely an equal-length one.
    const auto pa2 = shortest_path_between_sets(g, sources, targets, q, astar);
    ASSERT_TRUE(pa2.has_value());
    EXPECT_EQ(pa2->edges, pa->edges);
    EXPECT_EQ(pa2->src, pa->src);
    EXPECT_EQ(pa2->dst, pa->dst);

    // The cost cap keeps equal-cost paths and prunes anything beyond it.
    PathQuery capped = q;
    capped.cost_cap = pa->length;
    SearchWorkspace ws;
    const auto pc = shortest_path_between_sets(g, sources, targets, capped, ws);
    ASSERT_TRUE(pc.has_value());
    EXPECT_EQ(pc->length, pa->length);
    capped.cost_cap = pa->length - 0.5;
    const auto pn = shortest_path_between_sets(g, sources, targets, capped, ws);
    EXPECT_FALSE(pn.has_value());
  }
  EXPECT_GT(compared, 100);  // the fuzz actually compared real paths
}

// ---------------------------------------------------------------------------
// Dead ends. The target-seeking stop mode never enters a stub that is not
// a target, and gives up at once when every target is sealed off (each
// has no open edge to an open neighbour, and none is a source). The
// exhaustive kAllReachable sweep does neither, so it serves as the
// reference: the target the search settles first must be a nearest one,
// with the reference's label and path.

bool contains(const std::vector<NodeId>& v, NodeId n) {
  return std::find(v.begin(), v.end(), n) != v.end();
}

TEST(RoutePerf, TargetSeekingMatchesExhaustiveSweepFuzz) {
  Rng rng(1717);
  int reached = 0;
  int sealed = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const bool manhattan = rng.uniform_int(0, 1) == 0;
    const int w = static_cast<int>(rng.uniform_int(2, 6));
    const int h = static_cast<int>(rng.uniform_int(2, 6));
    const StubGrid sg(rng, w, h, manhattan);
    const RoutingGraph& g = sg.g;
    // Half of the queries run between stubs, as the router's do; the
    // others between any nodes. A quarter also make a source a target.
    std::vector<NodeId> every_node(g.num_nodes());
    std::iota(every_node.begin(), every_node.end(), NodeId{0});
    const std::vector<NodeId>& pool =
        rng.uniform_int(0, 1) == 0 ? sg.stubs : every_node;
    const auto sources = random_node_set(rng, pool, {});
    auto targets = random_node_set(
        rng, pool, std::set<NodeId>(sources.begin(), sources.end()));
    if (rng.uniform_int(0, 3) == 0) targets.push_back(sources.front());

    PathQuery q;
    std::vector<double> extra;
    if (rng.uniform_int(0, 1) == 0) {
      extra.resize(g.num_edges());
      for (double& x : extra) x = static_cast<double>(rng.uniform_int(0, 5));
      q.extra_cost = &extra;
    }
    // In half of the queries every edge of each target is blocked with
    // probability 1/2. Any edge, and any node outside the query, is
    // blocked with probability 1/10.
    std::vector<char> blocked(g.num_edges(), 0);
    const bool seal = rng.uniform_int(0, 1) == 0;
    for (NodeId t : targets)
      if (seal && rng.uniform_int(0, 1) == 0)
        for (EdgeId e : g.incident(t)) blocked[static_cast<std::size_t>(e)] = 1;
    for (auto&& b : blocked)
      if (rng.uniform_int(0, 9) == 0) b = 1;
    std::vector<char> blocked_nodes(g.num_nodes(), 0);
    for (NodeId v : every_node)
      if (!contains(sources, v) && !contains(targets, v) &&
          rng.uniform_int(0, 9) == 0)
        blocked_nodes[static_cast<std::size_t>(v)] = 1;
    q.blocked_edges = &blocked;
    q.blocked_nodes = &blocked_nodes;
    const auto open = [&](NodeId t, EdgeId e) {
      return blocked[static_cast<std::size_t>(e)] == 0 &&
             blocked_nodes[static_cast<std::size_t>(g.edge(e).other(t))] == 0;
    };
    const bool all_sealed =
        std::none_of(targets.begin(), targets.end(),
                     [&](NodeId t) { return contains(sources, t); }) &&
        std::none_of(targets.begin(), targets.end(), [&](NodeId t) {
          return std::any_of(g.incident(t).begin(), g.incident(t).end(),
                             [&](EdgeId e) { return open(t, e); });
        });

    for (bool astar : {true, false}) {
      SCOPED_TRACE("iter " + std::to_string(iter) + (astar ? " A*" : ""));
      SearchWorkspace ref;
      SearchWorkspace first;
      for (SearchWorkspace* ws : {&ref, &first}) {
        ws->set_astar(astar);
        ws->clear_blocks();
      }
      search(g, sources, targets, q, ref, SearchStop::kAllReachable);
      const NodeId hit =
          search(g, sources, targets, q, first, SearchStop::kFirstTarget);

      double nearest = SearchWorkspace::kInf;
      for (NodeId t : targets) nearest = std::min(nearest, ref.dist(t));
      // The first settled target is a nearest one, reached by the
      // reference's path; none when no target can be reached.
      if (nearest == SearchWorkspace::kInf) {
        EXPECT_EQ(hit, kInvalidNode);
      } else {
        ASSERT_NE(hit, kInvalidNode);
        EXPECT_EQ(first.dist(hit), nearest);
        PathResult want;
        PathResult got;
        ASSERT_TRUE(extract_path(g, ref, hit, want));
        ASSERT_TRUE(extract_path(g, first, hit, got));
        EXPECT_EQ(got, want) << "target " << hit;
        ++reached;
      }
      // No stub outside the query gets a label, and sealed targets end
      // the search before its first pop.
      for (NodeId s : sg.stubs) {
        if (contains(sources, s) || contains(targets, s)) continue;
        EXPECT_EQ(first.dist(s), SearchWorkspace::kInf) << "stub " << s;
      }
      EXPECT_LE(first.counters.nodes_popped, ref.counters.nodes_popped);
      if (all_sealed) {
        ++sealed;
        EXPECT_EQ(first.counters.nodes_popped, 0);
      }
    }
  }
  EXPECT_GT(reached, 400);  // of 600 runs: the fuzz compared real paths
  EXPECT_GT(sealed, 80);    // and sealed queries
}

TEST(RoutePerf, StarSearchSkipsStubsAndSealedTargets) {
  // A hub with 40 pin stubs around it, each edge of manhattan length.
  RoutingGraph g;
  const NodeId hub = g.add_node({0, 0});
  std::vector<NodeId> stubs;
  std::vector<EdgeId> stub_edges;
  for (int i = 0; i < 40; ++i) {
    const Coord r = 5 + i;
    const Point p = i % 4 == 0   ? Point{r, 0}
                    : i % 4 == 1 ? Point{0, r}
                    : i % 4 == 2 ? Point{-r, 0}
                                 : Point{0, -r};
    stubs.push_back(g.add_node(p));
    stub_edges.push_back(
        g.add_edge(stubs.back(), hub, static_cast<double>(r), 1));
  }
  const NodeId a[] = {stubs[0]};
  const NodeId b[] = {stubs[1]};
  const PathQuery q;
  SearchWorkspace ws;

  // Stub a to stub b enters a, the hub and b, and none of the 38 other
  // stubs (an exhaustive search would push all 41 nodes).
  ws.clear_blocks();
  RouteCounters before = ws.counters;
  EXPECT_EQ(search(g, a, b, q, ws), b[0]);
  RouteCounters delta = ws.counters - before;
  EXPECT_EQ(delta.heap_pushes, 3);
  EXPECT_EQ(delta.nodes_popped, 3);
  EXPECT_EQ(ws.dist(b[0]), 5.0 + 6.0);

  // With b's stub edge blocked (the spur at the hub), the search returns
  // before its first pop (it would otherwise pop a, the hub and 38 stubs).
  ws.clear_blocks();
  ws.block_edge(stub_edges[1]);
  before = ws.counters;
  EXPECT_EQ(search(g, a, b, q, ws), kInvalidNode);
  delta = ws.counters - before;
  EXPECT_EQ(delta.nodes_popped, 0);
  EXPECT_EQ(delta.dijkstra_runs, 1);

  // The exhaustive sweep still settles every node.
  ws.clear_blocks();
  before = ws.counters;
  search(g, a, b, q, ws, SearchStop::kAllReachable);
  delta = ws.counters - before;
  EXPECT_EQ(delta.nodes_popped, 41);
  for (NodeId s : stubs) EXPECT_LT(ws.dist(s), SearchWorkspace::kInf);
}

// ---------------------------------------------------------------------------
// Deviation algorithm. Brute force enumerates every simple path by DFS;
// the k shortest of those must match k_shortest_paths exactly by length.
// The Dijkstra-driven twin (A* off — no exact-heuristic sweep, no goal
// direction; only the cost cap differs in reached nodes) must produce the
// identical length sequence.

std::vector<double> brute_force_lengths(const RoutingGraph& g, NodeId s,
                                        NodeId t) {
  std::vector<double> lengths;
  std::vector<char> visited(g.num_nodes(), 0);
  std::function<void(NodeId, double)> dfs = [&](NodeId u, double len) {
    if (u == t) {
      lengths.push_back(len);
      return;
    }
    visited[static_cast<std::size_t>(u)] = 1;
    for (EdgeId e : g.incident(u)) {
      const NodeId v = g.edge(e).other(u);
      if (!visited[static_cast<std::size_t>(v)]) dfs(v, len + g.edge(e).length);
    }
    visited[static_cast<std::size_t>(u)] = 0;
  };
  dfs(s, 0.0);
  std::sort(lengths.begin(), lengths.end());
  return lengths;
}

TEST(RoutePerf, KShortestMatchesBruteForceFuzz) {
  Rng rng(42);
  for (int iter = 0; iter < 120; ++iter) {
    const bool manhattan = rng.uniform_int(0, 1) == 0;
    const int w = static_cast<int>(rng.uniform_int(2, 3));
    const int h = static_cast<int>(rng.uniform_int(2, 3));
    const StubGrid sg(rng, w, h, manhattan);
    const RoutingGraph& g = sg.g;
    const NodeId s = sg.stubs.front();
    const NodeId t = sg.stubs.back();

    const auto ref = brute_force_lengths(g, s, t);
    const int k = static_cast<int>(rng.uniform_int(1, 12));
    SearchWorkspace astar;
    SearchWorkspace plain;
    plain.set_astar(false);
    const auto got = k_shortest_paths(g, s, t, k, astar);
    const auto twin = k_shortest_paths(g, s, t, k, plain);

    const std::size_t expect_n =
        std::min<std::size_t>(static_cast<std::size_t>(k), ref.size());
    ASSERT_EQ(got.size(), expect_n);
    ASSERT_EQ(twin.size(), expect_n);
    std::set<std::vector<EdgeId>> seen;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].length, ref[i]);
      EXPECT_EQ(twin[i].length, ref[i]);
      EXPECT_EQ(got[i].length, g.path_length(got[i].edges));
      EXPECT_TRUE(seen.insert(got[i].edges).second) << "duplicate path";
      const auto nodes = g.walk_nodes(got[i].src, got[i].edges);
      ASSERT_FALSE(nodes.empty());
      EXPECT_EQ(nodes.front(), s);
      EXPECT_EQ(nodes.back(), t);
      EXPECT_EQ(std::set<NodeId>(nodes.begin(), nodes.end()).size(),
                nodes.size())
          << "loop in path";
    }
  }
}

TEST(RoutePerf, KShortestBetweenSetsAStarTwinFuzz) {
  Rng rng(7);
  for (int iter = 0; iter < 80; ++iter) {
    const bool manhattan = rng.uniform_int(0, 1) == 0;
    const int w = static_cast<int>(rng.uniform_int(2, 5));
    const int h = static_cast<int>(rng.uniform_int(2, 5));
    const StubGrid sg(rng, w, h, manhattan);
    const RoutingGraph& g = sg.g;
    const auto sources = random_node_set(rng, sg.stubs, {});
    const auto targets = random_node_set(
        rng, sg.stubs, std::set<NodeId>(sources.begin(), sources.end()));
    if (targets.empty()) continue;
    const int k = static_cast<int>(rng.uniform_int(1, 8));

    SearchWorkspace astar;
    SearchWorkspace plain;
    plain.set_astar(false);
    const auto got = k_shortest_between_sets(g, sources, targets, k, astar);
    const auto twin = k_shortest_between_sets(g, sources, targets, k, plain);
    ASSERT_EQ(got.size(), twin.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i].length, twin[i].length);
  }
}

// ---------------------------------------------------------------------------
// Worklist interchange. The incrementally maintained overflowed-edge list
// must leave the router bit-for-bit deterministic per seed, and its final
// bookkeeping must agree with an exhaustive recomputation from the
// selected routes (the same certificate the router itself asserts).

TEST(RoutePerf, InterchangeWorklistConsistentAndDeterministic) {
  Rng rng(99);
  for (int iter = 0; iter < 8; ++iter) {
    RoutingGraph g = random_grid(rng, 5, 5, true);
    std::vector<NetTargets> nets;
    const int n_nets = static_cast<int>(rng.uniform_int(6, 14));
    for (int i = 0; i < n_nets; ++i) {
      NetTargets net;
      const int pins = static_cast<int>(rng.uniform_int(2, 4));
      std::set<NodeId> uniq;
      while (static_cast<int>(uniq.size()) < pins)
        uniq.insert(static_cast<NodeId>(
            rng.uniform_int(0, static_cast<std::int64_t>(g.num_nodes()) - 1)));
      for (NodeId n : uniq) net.pins.push_back({n});
      nets.push_back(std::move(net));
    }

    GlobalRouterParams params;
    params.seed = static_cast<std::uint64_t>(iter) + 1;
    GlobalRouter router_a(g, params);
    GlobalRouter router_b(g, params);
    const auto ra = router_a.route(nets);
    const auto rb = router_b.route(nets);

    // Same seed, same instance -> identical selection and bookkeeping.
    EXPECT_EQ(ra.choice, rb.choice);
    EXPECT_EQ(ra.edge_usage, rb.edge_usage);
    EXPECT_EQ(ra.total_length, rb.total_length);
    EXPECT_EQ(ra.total_overflow, rb.total_overflow);
    EXPECT_EQ(ra.interchange_attempts, rb.interchange_attempts);

    // Exhaustive recomputation from the selected routes.
    std::vector<int> usage(g.num_edges(), 0);
    double length = 0.0;
    for (std::size_t i = 0; i < nets.size(); ++i) {
      const Route* r = ra.route_of(i);
      if (r == nullptr) continue;
      length += r->length;
      for (EdgeId e : r->edges) ++usage[static_cast<std::size_t>(e)];
    }
    EXPECT_EQ(usage, ra.edge_usage);
    EXPECT_EQ(length, ra.total_length);
    EXPECT_EQ(total_overflow(g, usage), ra.total_overflow);
    EXPECT_GT(ra.counters.dijkstra_runs, 0);
    EXPECT_EQ(ra.counters.interchange_trials, ra.interchange_attempts);
  }
}

// ---------------------------------------------------------------------------
// Zero-allocation warm queries. Once a workspace (and the output path's
// capacity) has warmed up on a graph, further searches must not touch the
// heap allocator at all — the core throughput guarantee of the epoch-
// stamped workspace design.

TEST(RoutePerf, WarmQueryPerformsNoAllocations) {
  Rng rng(123);
  RoutingGraph g = random_grid(rng, 8, 8, true);
  SearchWorkspace ws;
  const NodeId sources[] = {0};
  const NodeId targets[] = {static_cast<NodeId>(g.num_nodes() - 1),
                            static_cast<NodeId>(g.num_nodes() / 2)};
  const PathQuery q;
  PathResult out;

  // Warm-up: sizes the stamped arrays, the heap, and the path buffer.
  ws.clear_blocks();
  NodeId hit = search(g, sources, targets, q, ws);
  ASSERT_NE(hit, kInvalidNode);
  ASSERT_TRUE(extract_path(g, ws, hit, out));
  const double warm_length = out.length;

  for (int repeat = 0; repeat < 3; ++repeat) {
    const long long before = g_new_calls.load();
    ws.clear_blocks();
    hit = search(g, sources, targets, q, ws);
    const bool ok = extract_path(g, ws, hit, out);
    const long long after = g_new_calls.load();
    ASSERT_NE(hit, kInvalidNode);
    ASSERT_TRUE(ok);
    EXPECT_EQ(out.length, warm_length);
    EXPECT_EQ(after - before, 0) << "warm query allocated";
  }
}

}  // namespace
}  // namespace tw
