// Equivalence fuzz for the incremental evaluation core (docs/PERF.md):
// the spatial bin index, the net-bound cache, and the MoveTxn layer must
// be *exactly* equivalent to from-scratch evaluation after any sequence
// of moves, commits and reverts.
//
// The fuzz drives thousands of randomized annealer-shaped moves
// (displacement, orientation, interchange, aspect, instance, pin/group
// moves) through a MoveTxn with random commit/revert decisions, and after
// every move asserts:
//   * OverlapEngine::total_overlap() == total_overlap_naive()  (index
//     never prunes a real overlap — integer-exact),
//   * Placement::net_bounds_drift() is empty (cache == full pin rescan),
//   * the running CostTerms maintained from committed deltas match a
//     from-scratch CostModel::full() (C2 exactly; C1/C3 to fp tolerance),
//   * after a revert, every net bbox and pin position is what it was
//     before the transaction began.
// Environment changes outside the transaction layer (set_expansions,
// set_core, direct mutator + refresh) are interleaved to cover the
// stage-2 and resynchronization paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "estimator/area_estimator.hpp"
#include "geom/bins.hpp"
#include "place/move_txn.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace tw {
namespace {

// ---------------------------------------------------------------------------
// BinGrid unit tests
// ---------------------------------------------------------------------------

TEST(BinGrid, DegenerateExtentIsSingleBin) {
  const BinGrid g = BinGrid::make(Rect{5, 5, 5, 5}, 100, 64);
  EXPECT_EQ(g.nx, 1);
  EXPECT_EQ(g.ny, 1);
  EXPECT_EQ(g.num_bins(), 1);
  EXPECT_EQ(g.x_of(-1000), 0);
  EXPECT_EQ(g.x_of(1000), 0);
}

TEST(BinGrid, ClampsOutOfExtentCoordinates) {
  const BinGrid g = BinGrid::make(Rect{0, 0, 100, 100}, 10, 64);
  EXPECT_GT(g.nx, 1);
  EXPECT_EQ(g.x_of(-50), 0);
  EXPECT_EQ(g.x_of(0), 0);
  EXPECT_EQ(g.x_of(100), g.nx - 1);
  EXPECT_EQ(g.x_of(100000), g.nx - 1);
  EXPECT_EQ(g.y_of(-7), 0);
  EXPECT_EQ(g.y_of(100000), g.ny - 1);
}

TEST(BinGrid, RespectsMaxBinsPerAxis) {
  const BinGrid g = BinGrid::make(Rect{0, 0, 1000000, 1000000}, 1, 16);
  EXPECT_LE(g.nx, 16);
  EXPECT_LE(g.ny, 16);
}

TEST(BinGrid, InvalidRectMapsToSingleBin) {
  const BinGrid g = BinGrid::make(Rect{0, 0, 100, 100}, 10, 64);
  const BinGrid::Range r = g.range(Rect{50, 50, 40, 40});  // xhi < xlo
  EXPECT_EQ(r.x0, r.x1);
  EXPECT_EQ(r.y0, r.y1);
}

TEST(BinGrid, MappingIsMonotone) {
  const BinGrid g = BinGrid::make(Rect{-37, -11, 113, 257}, 9, 64);
  for (Coord x = -60; x <= 140; ++x) EXPECT_LE(g.x_of(x), g.x_of(x + 1));
  for (Coord y = -40; y <= 280; ++y) EXPECT_LE(g.y_of(y), g.y_of(y + 1));
}

// Monotonicity + clamping imply the index invariant directly, but assert
// it explicitly on random rect pairs: rects with positive overlap area
// always share at least one bin.
TEST(BinGrid, OverlappingRectsShareABin) {
  const BinGrid g = BinGrid::make(Rect{0, 0, 500, 400}, 37, 64);
  Rng rng(99);
  for (int it = 0; it < 2000; ++it) {
    const Coord ax = rng.uniform_int(-50, 500);
    const Coord ay = rng.uniform_int(-50, 450);
    const Rect a{ax, ay, ax + rng.uniform_int(1, 120),
                 ay + rng.uniform_int(1, 120)};
    const Coord bx = rng.uniform_int(-50, 500);
    const Coord by = rng.uniform_int(-50, 450);
    const Rect b{bx, by, bx + rng.uniform_int(1, 120),
                 by + rng.uniform_int(1, 120)};
    if (a.overlap_area(b) <= 0) continue;
    const BinGrid::Range ra = g.range(a);
    const BinGrid::Range rb = g.range(b);
    EXPECT_TRUE(ra.x0 <= rb.x1 && rb.x0 <= ra.x1 && ra.y0 <= rb.y1 &&
                rb.y0 <= ra.y1)
        << "overlapping rects landed in disjoint bin ranges";
  }
}

// ---------------------------------------------------------------------------
// Equivalence fuzz
// ---------------------------------------------------------------------------

void expect_terms_match(const CostTerms& running, const CostTerms& full,
                        long long step) {
  // C1/C3 accumulate float deltas; C2 deltas are integer-valued doubles,
  // so the running overlap must match the recomputation *exactly*.
  const double e1 = 1e-6 * std::max(1.0, std::abs(full.c1));
  const double e3 = 1e-6 * std::max(1.0, std::abs(full.c3));
  EXPECT_NEAR(running.c1, full.c1, e1) << "C1 drifted at step " << step;
  EXPECT_EQ(running.c2_raw, full.c2_raw) << "C2 drifted at step " << step;
  EXPECT_NEAR(running.c3, full.c3, e3) << "C3 drifted at step " << step;
}

struct FuzzConfig {
  bool dynamic_engine = false;   ///< estimator-driven expansions (stage 1)
  bool env_changes = false;      ///< set_expansions / set_core / direct moves
  /// Only displacements of at most 3 DBU per axis, orientation-only moves
  /// and interchanges of two cells sharing a net, so pins land exactly on,
  /// just inside and just outside the old net boundaries.
  bool small_steps = false;
  std::uint64_t seed = 1;
  int moves = 1200;
};

/// Every net's bbox and every pin's position, to compare a reverted
/// transaction against the state before its begin().
struct NetView {
  std::vector<Rect> bbox;
  std::vector<Point> pos;

  explicit NetView(const Placement& p) {
    const Netlist& nl = p.netlist();
    for (const Net& n : nl.nets()) bbox.push_back(p.net_bbox(n.id));
    for (PinId k = 0; k < static_cast<PinId>(nl.num_pins()); ++k)
      pos.push_back(p.pin_position(k));
  }
};

::testing::AssertionResult same_view(const NetView& want, const Placement& p) {
  const NetView got(p);
  for (std::size_t n = 0; n < want.bbox.size(); ++n)
    if (!(got.bbox[n] == want.bbox[n]))
      return ::testing::AssertionFailure()
             << "net " << n << " bbox " << got.bbox[n].str() << ", was "
             << want.bbox[n].str();
  for (std::size_t k = 0; k < want.pos.size(); ++k)
    if (!(got.pos[k] == want.pos[k]))
      return ::testing::AssertionFailure()
             << "pin " << k << " at (" << got.pos[k].x << ", " << got.pos[k].y
             << "), was (" << want.pos[k].x << ", " << want.pos[k].y << ")";
  return ::testing::AssertionSuccess();
}

/// A cell other than `i` sharing one of i's nets, or -1.
CellId net_neighbor(const Placement& p, CellId i, Rng& rng) {
  const Netlist& nl = p.netlist();
  const std::vector<NetId>& nets = p.nets_of_cell(i);
  if (nets.empty()) return -1;
  const NetId n = nets[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(nets.size()) - 1))];
  std::vector<CellId> others;
  for (const PinId pid : nl.net(n).pins)
    if (nl.pin(pid).cell != i) others.push_back(nl.pin(pid).cell);
  if (others.empty()) return -1;
  return others[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(others.size()) - 1))];
}

/// One small-step move (FuzzConfig::small_steps); false when it had
/// nothing to act on.
bool small_step(MoveTxn& txn, const Placement& p, CellId i, Rng& rng) {
  const auto nudge = [&](Point c) {
    return Point{c.x + rng.uniform_int(-3, 3), c.y + rng.uniform_int(-3, 3)};
  };
  switch (rng.uniform_int(0, 2)) {
    case 0:  // a nudge, sometimes with an orientation flip
      txn.begin(i);
      txn.set_center(i, nudge(p.state(i).center));
      if (rng.bernoulli(0.2))
        txn.set_orient(i, aspect_inverted(p.state(i).orient));
      return true;
    case 1:  // orientation only
      txn.begin(i);
      txn.set_orient(i, static_cast<Orient>(rng.uniform_int(0, 7)));
      return true;
    default: {  // interchange with a cell on a shared net
      const CellId j = net_neighbor(p, i, rng);
      if (j < 0) return false;
      txn.begin(i, j);
      const Point ci = p.state(i).center;
      const Point cj = p.state(j).center;
      txn.set_center(i, nudge(cj));
      txn.set_center(j, nudge(ci));
      return true;
    }
  }
}

void run_fuzz(const Netlist& nl, const FuzzConfig& cfg) {
  Placement p(nl);
  Rng rng(cfg.seed);
  DynamicAreaEstimator est(nl);
  Rect core = est.compute_initial_core(1.0);

  std::optional<OverlapEngine> ov;
  if (cfg.dynamic_engine) {
    ov.emplace(p, est);
  } else {
    // Static mode with a nominal uniform spacing, like stage 2.
    const Coord e = static_cast<Coord>(std::ceil(0.25 * est.channel_width()));
    ov.emplace(p, core,
               std::vector<std::array<Coord, 4>>(nl.num_cells(),
                                                 std::array<Coord, 4>{
                                                     e, e, e, e}));
  }

  p.randomize(rng, core);
  ov->refresh_all();

  CostModel model(p, *ov);
  model.set_p2(0.5);
  MoveTxn txn(p, *ov, model);
  CostTerms running = model.full();

  const auto num_cells = static_cast<std::int64_t>(nl.num_cells());
  ASSERT_GE(num_cells, 2);

  for (int step = 0; step < cfg.moves; ++step) {
    const NetView before(p);
    const CellId i = static_cast<CellId>(rng.uniform_int(0, num_cells - 1));
    const Cell& cell = nl.cell(i);
    const int kind =
        cfg.small_steps ? -1 : static_cast<int>(rng.uniform_int(0, 7));
    bool opened = false;

    switch (kind) {
      case -1:
        opened = small_step(txn, p, i, rng);
        break;
      case 0: {  // displacement (optionally with an orientation flip)
        txn.begin(i);
        txn.set_center(i, Point{rng.uniform_int(core.xlo, core.xhi),
                                rng.uniform_int(core.ylo, core.yhi)});
        if (rng.bernoulli(0.3))
          txn.set_orient(i, aspect_inverted(p.state(i).orient));
        opened = true;
        break;
      }
      case 1: {  // orientation change
        txn.begin(i);
        txn.set_orient(i, static_cast<Orient>(rng.uniform_int(0, 7)));
        opened = true;
        break;
      }
      case 2: {  // pairwise interchange
        CellId j = i;
        while (j == i)
          j = static_cast<CellId>(rng.uniform_int(0, num_cells - 1));
        txn.begin(i, j);
        const Point ci = p.state(i).center;
        const Point cj = p.state(j).center;
        txn.set_center(i, cj);
        txn.set_center(j, ci);
        if (rng.bernoulli(0.25)) {
          txn.set_orient(i, aspect_inverted(p.state(i).orient));
          txn.set_orient(j, aspect_inverted(p.state(j).orient));
        }
        opened = true;
        break;
      }
      case 3: {  // aspect change (custom cells)
        if (!cell.has_aspect_freedom()) break;
        txn.begin(i);
        txn.set_aspect(i, rng.uniform_real(cell.aspect_lo, cell.aspect_hi));
        opened = true;
        break;
      }
      case 4: {  // instance change
        if (cell.instances.size() < 2) break;
        txn.begin(i);
        txn.set_instance(i, static_cast<InstanceId>(rng.uniform_int(
                                0,
                                static_cast<std::int64_t>(
                                    cell.instances.size()) -
                                    1)));
        opened = true;
        break;
      }
      case 5: {  // pin / pin-group move (custom cells)
        if (!cell.is_custom()) break;
        std::vector<int>& loose = txn.scratch_ints();
        loose.clear();
        for (std::size_t k = 0; k < cell.pins.size(); ++k)
          if (nl.pin(cell.pins[k]).commit == PinCommit::kEdge)
            loose.push_back(static_cast<int>(k));
        const std::size_t units = cell.groups.size() + loose.size();
        if (units == 0) break;
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(units) - 1));
        std::vector<NetId>& nets = txn.scratch_nets();
        nets.clear();
        if (pick < cell.groups.size()) {
          for (PinId pid : cell.groups[pick].pins)
            nets.push_back(nl.pin(pid).net);
        } else {
          const int local = loose[pick - cell.groups.size()];
          nets.push_back(
              nl.pin(cell.pins[static_cast<std::size_t>(local)]).net);
        }
        std::sort(nets.begin(), nets.end());
        nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
        txn.begin_pins(i, nets);
        if (pick < cell.groups.size()) {
          const auto g = static_cast<GroupId>(pick);
          const auto sides = sides_in_mask(cell.groups[pick].side_mask);
          const Side side = sides[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(sides.size()) - 1))];
          txn.assign_group(
              g, side,
              static_cast<int>(rng.uniform_int(0, cell.sites_per_edge - 1)));
        } else {
          const int local = loose[pick - cell.groups.size()];
          const Pin& pin = nl.pin(cell.pins[static_cast<std::size_t>(local)]);
          const auto legal = sites_in_mask(pin.side_mask, cell.sites_per_edge);
          txn.assign_pin_to_site(
              local, legal[static_cast<std::size_t>(rng.uniform_int(
                         0, static_cast<std::int64_t>(legal.size()) - 1))]);
        }
        opened = true;
        break;
      }
      case 6: {  // environment change: expansions / core (outside any txn)
        if (!cfg.env_changes) break;
        if (cfg.dynamic_engine || rng.bernoulli(0.4)) {
          // Grow the core a little (stage 2 does this when the channel
          // estimate changes). Border overlap changes; resync below.
          core = Rect{core.xlo - 2, core.ylo - 2, core.xhi + 2, core.yhi + 2};
          ov->set_core(core);
          if (cfg.dynamic_engine) {
            // Changing the estimator's core re-modulates every cell's
            // expansion, so the engine's caches must be re-derived before
            // any transaction snapshots them (stage 1 sets the core once,
            // before annealing, for exactly this reason).
            est.set_core(core);
            ov->refresh_all();
          }
        } else {
          const Coord e = rng.uniform_int(0, 8);
          ov->set_expansions(i, {e, e, e, e});
        }
        running = model.full();
        break;
      }
      default: {  // direct mutator + refresh (checkpoint-restore path)
        if (!cfg.env_changes) break;
        p.set_center(i, Point{rng.uniform_int(core.xlo, core.xhi),
                              rng.uniform_int(core.ylo, core.yhi)});
        ov->refresh(i);
        running = model.full();
        break;
      }
    }

    if (opened) {
      const double delta = txn.evaluate();
      EXPECT_TRUE(std::isfinite(delta));
      if (rng.bernoulli(0.5)) {
        txn.commit(running);
      } else {
        txn.revert();
        ASSERT_TRUE(same_view(before, p)) << "revert at step " << step;
      }
      EXPECT_FALSE(txn.active());
    }

    // --- the three exactness invariants, after *every* step ---------------
    ASSERT_EQ(ov->total_overlap(), ov->total_overlap_naive())
        << "spatial index drifted at step " << step;
    const std::string drift = p.net_bounds_drift();
    ASSERT_TRUE(drift.empty()) << "step " << step << ": " << drift;
    expect_terms_match(running, model.full(), step);
  }
}

Netlist fuzz_circuit(int cells, std::uint64_t seed, int hub_nets = 0) {
  CircuitSpec spec;
  spec.name = "eval_fuzz";
  spec.num_cells = cells;
  spec.num_nets = cells * 4;
  spec.num_pins = cells * 16;
  spec.mean_cell_dim = 60.0;
  spec.hub_nets = hub_nets;
  spec.seed = seed;
  return generate_circuit(spec);
}

TEST(EvalIncremental, StaticEngineSmallCircuit) {
  run_fuzz(fuzz_circuit(12, 7), {.dynamic_engine = false,
                                 .env_changes = false,
                                 .seed = 101,
                                 .moves = 1500});
}

TEST(EvalIncremental, StaticEngineWithEnvironmentChanges) {
  run_fuzz(fuzz_circuit(16, 11), {.dynamic_engine = false,
                                  .env_changes = true,
                                  .seed = 202,
                                  .moves = 1200});
}

TEST(EvalIncremental, DynamicEngineSmallCircuit) {
  run_fuzz(fuzz_circuit(12, 13), {.dynamic_engine = true,
                                  .env_changes = false,
                                  .seed = 303,
                                  .moves = 1500});
}

TEST(EvalIncremental, DynamicEngineMediumCircuit) {
  run_fuzz(fuzz_circuit(32, 17), {.dynamic_engine = true,
                                  .env_changes = true,
                                  .seed = 404,
                                  .moves = 900});
}

// SoC-scale exactness: above 1024 cells the overlap engine switches to a
// size-scaled bin grid (see max_bins_per_axis in overlap.cpp); the
// indexed-vs-naive and incremental-vs-full invariants must hold across
// that policy boundary too. Few moves — the naive O(n^2) cross-check
// dominates the cost at this size.
TEST(EvalIncremental, DynamicEngineSocScaleCircuit) {
  run_fuzz(fuzz_circuit(1500, 19), {.dynamic_engine = true,
                                    .env_changes = false,
                                    .seed = 505,
                                    .moves = 30});
}

// Small steps put pins exactly on, just inside and just outside the old
// net boundaries, where the staged bounds decide between a re-supported
// boundary and a rescan.
TEST(EvalIncremental, SmallStepsStaticEngine) {
  run_fuzz(fuzz_circuit(12, 29), {.dynamic_engine = false,
                                  .small_steps = true,
                                  .seed = 606,
                                  .moves = 1500});
}

TEST(EvalIncremental, SmallStepsDynamicEngine) {
  run_fuzz(fuzz_circuit(32, 31), {.dynamic_engine = true,
                                  .env_changes = true,
                                  .small_steps = true,
                                  .seed = 707,
                                  .moves = 1200});
}

// Hub nets (clock/reset-like fan-out to a fifth of the cells) are staged
// by almost every move and rescanned whenever a move takes their unique
// boundary pin inward.
TEST(EvalIncremental, HubNetCircuit) {
  run_fuzz(fuzz_circuit(40, 37, 2), {.dynamic_engine = true,
                                     .env_changes = true,
                                     .seed = 808,
                                     .moves = 900});
}

TEST(EvalIncremental, HubNetCircuitSmallSteps) {
  run_fuzz(fuzz_circuit(40, 41, 2), {.dynamic_engine = false,
                                     .small_steps = true,
                                     .seed = 909,
                                     .moves = 1200});
}

// ---------------------------------------------------------------------------
// The unique boundary supporter of a 2-pin and a 3-pin net
// ---------------------------------------------------------------------------

/// `cells` 10x10 macros, each with one pin at its center on every net.
Netlist center_pin_circuit(int cells, int nets) {
  Netlist nl;
  std::vector<NetId> ns;
  for (int n = 0; n < nets; ++n) ns.push_back(nl.add_net("n" + std::to_string(n)));
  for (int c = 0; c < cells; ++c) {
    const CellId id = nl.add_macro("c" + std::to_string(c), {Rect{0, 0, 10, 10}});
    for (const NetId n : ns)
      nl.add_fixed_pin(id, "p" + std::to_string(n), n, Point{5, 5});
  }
  return nl;
}

/// Moves cell 0 (placed at `centers[0]`, the unique supporter of its
/// nets' low boundaries) to `to` once reverted and once committed. The
/// revert must leave every bbox and pin position as before; the commit
/// must leave `want` as every net's bbox, priced by the staged after-term.
void move_supporter(int cells, const std::vector<Point>& centers, Point to,
                    Rect want) {
  const Netlist nl = center_pin_circuit(cells, 2);
  Placement p(nl);
  for (CellId c = 0; c < cells; ++c)
    p.set_center(c, centers[static_cast<std::size_t>(c)]);
  OverlapEngine ov(p, Rect{-500, -500, 500, 500}, {});
  CostModel model(p, ov);
  MoveTxn txn(p, ov, model);
  CostTerms running = model.full();
  const NetView before(p);
  const double want_c1 = 2.0 * static_cast<double>(want.half_perimeter());

  txn.begin(0);
  txn.set_center(0, to);
  txn.evaluate();
  // The move is priced on a stage: the live cache still holds the
  // before-state until a commit writes the stage into it.
  EXPECT_EQ(txn.before().c1, p.teic());
  EXPECT_EQ(txn.after().c1, want_c1);
  txn.revert();
  EXPECT_TRUE(same_view(before, p));
  EXPECT_EQ(p.net_bounds_drift(), "");

  txn.begin(0);
  txn.set_center(0, to);
  txn.evaluate();
  txn.commit(running);
  for (NetId n = 0; n < 2; ++n) EXPECT_EQ(p.net_bbox(n), want) << "net " << n;
  EXPECT_EQ(p.net_bounds_drift(), "");
  EXPECT_EQ(running.c1, want_c1);
  EXPECT_EQ(p.teic(), want_c1);
}

TEST(EvalIncremental, TwoPinSupporterMovesOutward) {
  move_supporter(2, {{0, 0}, {100, 40}}, {-7, -3}, Rect{-7, -3, 100, 40});
}

TEST(EvalIncremental, TwoPinSupporterMovesInward) {
  move_supporter(2, {{0, 0}, {100, 40}}, {60, 30}, Rect{60, 30, 100, 40});
}

TEST(EvalIncremental, TwoPinSupporterMovesPastTheOtherPin) {
  move_supporter(2, {{0, 0}, {100, 40}}, {120, 50}, Rect{100, 40, 120, 50});
}

TEST(EvalIncremental, TwoPinSupporterMovesOntoItsOldBoundary) {
  move_supporter(2, {{0, 0}, {100, 40}}, {0, 10}, Rect{0, 10, 100, 40});
}

TEST(EvalIncremental, ThreePinSupporterMovesOutward) {
  move_supporter(3, {{0, 0}, {100, 40}, {50, 20}}, {-1, -2},
                 Rect{-1, -2, 100, 40});
}

TEST(EvalIncremental, ThreePinSupporterMovesInward) {
  // Past the middle pin: the low boundaries pass to cell 2.
  move_supporter(3, {{0, 0}, {100, 40}, {50, 20}}, {70, 30},
                 Rect{50, 20, 100, 40});
}

TEST(EvalIncremental, ThreePinSupporterMovesOntoTheMiddlePin) {
  // Onto the middle pin's coordinates: two supporters afterwards.
  move_supporter(3, {{0, 0}, {100, 40}, {50, 20}}, {50, 20},
                 Rect{50, 20, 100, 40});
}

TEST(EvalIncremental, ThreePinSupporterMovesOntoItsOldBoundary) {
  // x stays on the old low boundary, y moves inward just short of the
  // middle pin.
  move_supporter(3, {{0, 0}, {100, 40}, {50, 20}}, {0, 19},
                 Rect{0, 19, 100, 40});
}

TEST(EvalIncremental, ThreePinSharedBoundaryLosesOneSupporter) {
  // Cells 0 and 2 share the low x boundary; cell 0 moving inward leaves
  // it supported by cell 2 alone.
  move_supporter(3, {{0, 0}, {100, 40}, {0, 20}}, {30, 10},
                 Rect{0, 10, 100, 40});
}

// A committed transaction must leave the mutation standing; a reverted one
// must restore the exact prior state (byte-level via the snapshot).
TEST(EvalIncremental, CommitAndRevertSemantics) {
  const Netlist nl = fuzz_circuit(8, 23);
  Placement p(nl);
  Rng rng(5);
  DynamicAreaEstimator est(nl);
  const Rect core = est.compute_initial_core(1.0);
  OverlapEngine ov(p, core, {});
  p.randomize(rng, core);
  ov.refresh_all();
  CostModel model(p, ov);
  MoveTxn txn(p, ov, model);
  CostTerms running = model.full();

  const Point before = p.state(0).center;
  txn.begin(0);
  txn.set_center(0, Point{before.x + 11, before.y - 7});
  const double delta = txn.evaluate();
  txn.revert();
  EXPECT_EQ(p.state(0).center.x, before.x);
  EXPECT_EQ(p.state(0).center.y, before.y);
  expect_terms_match(running, model.full(), -1);

  txn.begin(0);
  txn.set_center(0, Point{before.x + 11, before.y - 7});
  EXPECT_NEAR(txn.evaluate(), delta, 1e-9 * std::max(1.0, std::abs(delta)));
  txn.commit(running);
  EXPECT_EQ(p.state(0).center.x, before.x + 11);
  expect_terms_match(running, model.full(), -2);
}

}  // namespace
}  // namespace tw
