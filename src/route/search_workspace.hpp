// The reusable search state behind every router shortest-path query.
//
// All Dijkstra/A* state (tentative distances, parent edges, target marks,
// the priority heap) and the deviation algorithm's blocked marks live in
// one SearchWorkspace that is bound to a graph once and reused across
// queries. Resets are O(touched): every per-query array is epoch-stamped
// (an entry is valid only when its stamp equals the current generation),
// so starting a new query is a counter increment, not an O(V) refill, and
// a warm workspace performs no heap allocation at all (asserted by
// tests/test_route_perf.cpp with a global allocation counter).
//
// The workspace also owns the goal-directed (A*) machinery: binding scans
// the graph's edges once (incrementally on regrowth) and derives the
// largest scale `alpha` such that `alpha * manhattan(pos(a), pos(b)) <=
// length(a, b)` for every edge. The heuristic used by the search is then
// `h(u) = alpha * manhattan-distance from pos(u) to the bounding box of
// the target positions`, which is admissible and consistent (see
// docs/PERF.md "Global router" for the argument). Channel graphs have
// exactly manhattan edge lengths, so alpha is exactly 1 there; graphs
// with shorter-than-manhattan edges degrade alpha (to 0 in the worst
// case, turning A* back into plain Dijkstra) but never break optimality.
//
// tools/lint.py rule `route-workspace` bans std::priority_queue and
// ad-hoc dist/visited vectors in src/route outside this file, so every
// search in the router goes through here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "route/graph.hpp"

namespace tw {

/// Router work counters, accumulated across every query a workspace runs.
/// Deltas are meaningful: GlobalRouter reports the `after - before` of its
/// workspaces, summed, per call.
struct RouteCounters {
  long long dijkstra_runs = 0;    ///< searches started (A* or plain)
  long long nodes_popped = 0;     ///< nodes settled off the heap
  long long heap_pushes = 0;      ///< heap insertions (incl. decrease-key)
  long long interchange_trials = 0;  ///< phase-two interchange attempts

  RouteCounters& operator+=(const RouteCounters& o) {
    dijkstra_runs += o.dijkstra_runs;
    nodes_popped += o.nodes_popped;
    heap_pushes += o.heap_pushes;
    interchange_trials += o.interchange_trials;
    return *this;
  }
  friend RouteCounters operator-(RouteCounters a, const RouteCounters& b) {
    a.dijkstra_runs -= b.dijkstra_runs;
    a.nodes_popped -= b.nodes_popped;
    a.heap_pushes -= b.heap_pushes;
    a.interchange_trials -= b.interchange_trials;
    return a;
  }
  friend bool operator==(const RouteCounters&, const RouteCounters&) = default;
};

// Aligned to 128 bytes because GlobalRouter keeps one workspace per
// phase-one worker back to back in a vector, and every heap push or pop
// writes `counters` and the heap's end pointer. Unaligned, neighbouring
// workers' hot fields shared cache lines and each net cost 1.4-1.7 times
// as much CPU on two or four workers as on one (docs/PERF.md "Parallel
// phase one"). 128 bytes is two 64-byte lines, so the adjacent-line
// prefetcher cannot pair neighbours either.
class alignas(128) SearchWorkspace {
public:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// Binds the workspace to `g`: grows the stamped arrays to the graph's
  /// size and (re)derives the A* scale. Binding to the same graph again
  /// only scans edges appended since the last bind; binding to a
  /// different graph resets the scan. Cheap enough to call per query.
  void bind(const RoutingGraph& g);

  /// Disables the geometric heuristic (every query runs plain Dijkstra).
  /// Used by the equivalence fuzz to compare A* against the reference.
  void set_astar(bool on) { astar_on_ = on; }
  bool astar() const { return astar_on_; }

  /// The admissible heuristic scale derived for the bound graph: 0 when
  /// A* is disabled or no positive scale is admissible.
  double heuristic_scale() const { return astar_on_ ? alpha_ : 0.0; }

  // --- exact heuristic (deviation searches) --------------------------------
  // The deviation algorithm runs many spur searches against one fixed
  // target set, each on the same graph minus some blocked prefix. One
  // unblocked all-reachable sweep *from* the targets gives the exact
  // distance-to-nearest-target of every node; promoting that query turns
  // it into the spur searches' heuristic. It is admissible and consistent
  // there because blocking only removes edges — the unblocked distance
  // can only undershoot the blocked one — and it dominates the geometric
  // bound, so spur searches explore little beyond their final corridor.
  // Nodes it proves unable to reach any target are never entered at all.

  /// Repurposes the just-finished query's distances as the heuristic for
  /// subsequent queries (O(1): buffers are swapped). `targets` is the
  /// target set the sweep ran from — recorded, with the graph's (uid,
  /// num_edges), so reuse_exact_heuristic can recognize an equivalent
  /// request and skip the sweep. Stays in effect until
  /// clear_exact_heuristic(); ignored while A* is off.
  void promote_query_to_heuristic(const RoutingGraph& g,
                                  std::span<const NodeId> targets) {
    dist_.swap(hdist_);
    via_.swap(hvia_);
    dist_gen_.swap(hdist_gen_);
    hquery_gen_ = query_gen_;
    huid_ = g.uid();
    hnum_edges_ = g.num_edges();
    htargets_.assign(targets.begin(), targets.end());
    std::sort(htargets_.begin(), htargets_.end());
    htargets_.erase(std::unique(htargets_.begin(), htargets_.end()),
                    htargets_.end());
    exact_h_on_ = true;
  }
  /// Re-arms the promoted heuristic when it was computed for exactly this
  /// graph state (appended edges could shorten distances, so the edge
  /// count must match too) and this target set; returns false otherwise.
  /// The deduplicated sort is cheap next to the sweep it saves — the beam
  /// search requests the same pin's alternatives once per beam tree.
  bool reuse_exact_heuristic(const RoutingGraph& g,
                             std::span<const NodeId> targets) {
    if (htargets_.empty() || g.uid() != huid_ || g.num_edges() != hnum_edges_)
      return false;
    key_scratch_.assign(targets.begin(), targets.end());
    std::sort(key_scratch_.begin(), key_scratch_.end());
    key_scratch_.erase(std::unique(key_scratch_.begin(), key_scratch_.end()),
                       key_scratch_.end());
    if (key_scratch_ != htargets_) return false;
    exact_h_on_ = true;
    return true;
  }
  void clear_exact_heuristic() { exact_h_on_ = false; }
  /// Clears the promoted sweep's key too, so nothing can re-arm it: the
  /// next deviation search runs its own sweep. The global router calls
  /// this before each net, which makes a net's search work independent
  /// of whatever the workspace ran before it.
  void forget_exact_heuristic() {
    exact_h_on_ = false;
    htargets_.clear();
  }
  bool exact_heuristic() const { return astar_on_ && exact_h_on_; }
  /// Distance from `n` to the promoted query's sources (kInf: unreached).
  double exact_h(NodeId n) const {
    const auto i = static_cast<std::size_t>(n);
    return hdist_gen_[i] == hquery_gen_ ? hdist_[i] : kInf;
  }

  // --- per-query state (begin_query invalidates in O(1)) ------------------
  void begin_query() {
    query_gen_ = ++gen_;
    heap_.clear();
  }
  double dist(NodeId n) const {
    const auto i = static_cast<std::size_t>(n);
    return dist_gen_[i] == query_gen_ ? dist_[i] : kInf;
  }
  EdgeId via_edge(NodeId n) const {
    const auto i = static_cast<std::size_t>(n);
    return dist_gen_[i] == query_gen_ ? via_[i] : kNoEdge;
  }
  void set_dist(NodeId n, double d, EdgeId via) {
    const auto i = static_cast<std::size_t>(n);
    dist_gen_[i] = query_gen_;
    dist_[i] = d;
    via_[i] = via;
  }
  void mark_target(NodeId n) {
    target_gen_[static_cast<std::size_t>(n)] = query_gen_;
  }
  bool is_target(NodeId n) const {
    return target_gen_[static_cast<std::size_t>(n)] == query_gen_;
  }

  // --- node labels (survive queries until the next begin_labels) ----------
  // Used by the deviation algorithm to map endpoint nodes to their rank in
  // the source/target spans without a per-call O(V) table.
  void begin_labels() { label_gen_cur_ = ++gen_; }
  void set_label(NodeId n, std::int32_t v) {
    const auto i = static_cast<std::size_t>(n);
    label_gen_[i] = label_gen_cur_;
    label_[i] = v;
  }
  /// -1 when unlabelled.
  std::int32_t label(NodeId n) const {
    const auto i = static_cast<std::size_t>(n);
    return label_gen_[i] == label_gen_cur_ ? label_[i] : -1;
  }

  // --- blocked marks (survive queries until the next clear_blocks) --------
  void clear_blocks() { block_gen_cur_ = ++gen_; }
  void block_node(NodeId n) {
    nblock_gen_[static_cast<std::size_t>(n)] = block_gen_cur_;
  }
  void block_edge(EdgeId e) {
    eblock_gen_[static_cast<std::size_t>(e)] = block_gen_cur_;
  }
  bool node_blocked(NodeId n) const {
    return nblock_gen_[static_cast<std::size_t>(n)] == block_gen_cur_;
  }
  bool edge_blocked(EdgeId e) const {
    return eblock_gen_[static_cast<std::size_t>(e)] == block_gen_cur_;
  }

  // --- deterministic binary min-heap --------------------------------------
  // Ordered by (f, -d, node): strictly smaller f first; among equal f the
  // *larger* tentative distance pops first (the node closer to the goal —
  // with a tight heuristic, equal-f plateaus are huge on channel grids and
  // deeper-first reduces them to the optimal corridor; targets have h = 0,
  // hence maximal d among their f-ties, and settle earliest of all); final
  // ties by smaller node id. The pop sequence — and therefore every
  // tie-break in the search — is a pure function of the query. Under plain
  // Dijkstra f == d, the d rule never fires, and equal-distance targets
  // still settle in node-id order.
  struct HeapEntry {
    double f = 0.0;   ///< priority: g + h (== g for plain Dijkstra)
    double d = 0.0;   ///< tentative distance when pushed
    NodeId node = kInvalidNode;
  };
  void heap_push(double f, double d, NodeId node);
  /// False when the heap is empty.
  bool heap_pop(HeapEntry& out);

  static constexpr EdgeId kNoEdge = -1;

  RouteCounters counters;

private:
  static bool heap_before(const HeapEntry& x, const HeapEntry& y) {
    if (x.f != y.f) return x.f < y.f;
    if (x.d != y.d) return x.d > y.d;
    return x.node < y.node;
  }

  // A* scale derivation state (see bind()).
  std::uint64_t bound_uid_ = 0;
  std::size_t scanned_edges_ = 0;
  bool all_at_least_manhattan_ = true;
  double min_ratio_ = kInf;
  double alpha_ = 0.0;
  bool astar_on_ = true;
  bool exact_h_on_ = false;
  std::uint64_t hquery_gen_ = 0;
  std::uint64_t huid_ = 0;
  std::size_t hnum_edges_ = 0;
  std::vector<NodeId> htargets_;    ///< promoted sweep's target key (sorted)
  std::vector<NodeId> key_scratch_;

  // Shared monotone generation counter; the array entries default to 0,
  // so every current generation starts at 1 ("nothing stamped yet").
  std::uint64_t gen_ = 1;
  std::uint64_t query_gen_ = 1;
  std::uint64_t label_gen_cur_ = 1;
  std::uint64_t block_gen_cur_ = 1;

  std::vector<std::uint64_t> dist_gen_, target_gen_, label_gen_;
  std::vector<std::uint64_t> nblock_gen_, eblock_gen_;
  std::vector<double> dist_;
  std::vector<EdgeId> via_;
  std::vector<std::uint64_t> hdist_gen_;  ///< promoted-query buffers
  std::vector<double> hdist_;
  std::vector<EdgeId> hvia_;
  std::vector<std::int32_t> label_;
  std::vector<HeapEntry> heap_;
};

}  // namespace tw
