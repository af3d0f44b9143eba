// Tests for the correctness tooling layer: contract macros, domain
// validators, the CostAudit drift checker, and seed derivation.
#include <gtest/gtest.h>

#include "check/contracts.hpp"
#include "check/cost_audit.hpp"
#include "check/validate.hpp"
#include "estimator/area_estimator.hpp"
#include "place/cost.hpp"
#include "place/overlap.hpp"
#include "place/placement.hpp"
#include "route/interchange.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

// ---------------------------------------------------------------------------
// Contract machinery. check::fail is always compiled (it backs the runtime
// checkers like CostAudit), so the trap tests below run at every
// TW_CHECK_LEVEL; the macro-specific ones are gated on the level the test
// binary was built at.

TEST(Contracts, TrapTurnsFailureIntoException) {
  check::ScopedContractTrap trap;
  EXPECT_THROW(check::fail("CostAudit", "", "f.cpp", 12, "C2 drifted"),
               check::ContractViolation);
}

TEST(Contracts, ViolationCarriesAllFields) {
  check::ScopedContractTrap trap;
  try {
    check::fail("TW_REQUIRE", "site >= 0", "placement.cpp", 42, "site=-3");
    FAIL() << "fail() returned";
  } catch (const check::ContractViolation& e) {
    EXPECT_STREQ(e.violation.kind, "TW_REQUIRE");
    EXPECT_STREQ(e.violation.expr, "site >= 0");
    EXPECT_EQ(e.violation.line, 42);
    EXPECT_NE(std::string(e.what()).find("site=-3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("placement.cpp"), std::string::npos);
  }
}

TEST(Contracts, TrapRestoresPreviousHandlerOnExit) {
  {
    check::ScopedContractTrap outer;
    {
      check::ScopedContractTrap inner;
      EXPECT_THROW(check::fail("TW_ASSERT", "x", "f", 1, ""),
                   check::ContractViolation);
    }
    // Outer trap is back in force.
    EXPECT_THROW(check::fail("TW_ASSERT", "x", "f", 2, ""),
                 check::ContractViolation);
  }
}

#if TW_CHECK_LEVEL >= 1
TEST(Contracts, MacroPrintsOffendingValues) {
  check::ScopedContractTrap trap;
  const int site = -3;
  const int n = 8;
  try {
    TW_ASSERT(site >= 0 && site < n, "site=", site, " n=", n);
    FAIL() << "contract did not fire";
  } catch (const check::ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("site=-3"), std::string::npos) << what;
    EXPECT_NE(what.find("n=8"), std::string::npos) << what;
    EXPECT_NE(what.find("site >= 0"), std::string::npos) << what;
  }
}

TEST(Contracts, PassingConditionIsSilent) {
  check::ScopedContractTrap trap;
  EXPECT_NO_THROW(TW_ASSERT(2 + 2 == 4, "arithmetic broke"));
  EXPECT_NO_THROW(TW_REQUIRE(true));
  EXPECT_NO_THROW(TW_ENSURE(1 < 2, "x=", 1));
}
#endif

// ---------------------------------------------------------------------------
// Netlist validator.

TEST(ValidateNetlist, GeneratedCircuitIsClean) {
  const Netlist nl = generate_circuit(tiny_circuit(11));
  const ValidationReport r = validate_netlist(nl);
  EXPECT_TRUE(r.ok()) << r.str();
  EXPECT_EQ(r.str(), "ok");
}

TEST(ValidateNetlist, DetectsDegreeOneNet) {
  Netlist nl;
  const NetId n = nl.add_net("lonely");
  const CellId c = nl.add_macro("m", {Rect{0, 0, 10, 10}});
  nl.add_fixed_pin(c, "p", n, Point{0, 0});
  const ValidationReport r = validate_netlist(nl);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.str().find("lonely"), std::string::npos) << r.str();
}

TEST(ValidateNetlist, AcceptsMinimalTwoPinCircuit) {
  Netlist nl;
  const NetId n = nl.add_net("n0");
  const CellId a = nl.add_macro("a", {Rect{0, 0, 10, 10}});
  const CellId b = nl.add_macro("b", {Rect{0, 0, 6, 8}});
  nl.add_fixed_pin(a, "pa", n, Point{0, 0});
  nl.add_fixed_pin(b, "pb", n, Point{0, 0});
  const ValidationReport r = validate_netlist(nl);
  EXPECT_TRUE(r.ok()) << r.str();
}

// ---------------------------------------------------------------------------
// Placement validator.

struct PlacementFixture {
  Netlist nl;
  Rect core;

  PlacementFixture() : nl(generate_circuit(tiny_circuit(5))) {
    DynamicAreaEstimator est(nl);
    core = est.compute_initial_core();
  }
};

TEST(ValidatePlacement, CleanAfterRandomize) {
  PlacementFixture f;
  Placement p(f.nl);
  Rng rng(7);
  p.randomize(rng, f.core);
  const ValidationReport r = validate_placement(p, {.core = f.core});
  EXPECT_TRUE(r.ok()) << r.str();
}

TEST(ValidatePlacement, DetectsCenterOutsideCore) {
  PlacementFixture f;
  Placement p(f.nl);
  Rng rng(7);
  p.randomize(rng, f.core);
  p.set_center(0, Point{f.core.xhi + 100000, f.core.yhi + 100000});
  const ValidationReport r = validate_placement(p, {.core = f.core});
  EXPECT_FALSE(r.ok());
  // Without the core option the same state is legal.
  EXPECT_TRUE(validate_placement(p).ok());
}

TEST(ValidatePlacement, DetectsCorruptOrientation) {
  PlacementFixture f;
  Placement p(f.nl);
  Rng rng(7);
  p.randomize(rng, f.core);
  CellState s = p.snapshot(0);
  s.orient = static_cast<Orient>(9);
  p.restore(0, std::move(s));
  const ValidationReport r = validate_placement(p);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.str().find("orient"), std::string::npos) << r.str();
}

TEST(ValidatePlacement, DetectsCorruptPinSiteAssignment) {
  PlacementFixture f;
  Placement p(f.nl);
  Rng rng(7);
  p.randomize(rng, f.core);
  // Find a custom cell with at least one sited pin and corrupt the
  // assignment to a nonexistent site index.
  bool corrupted = false;
  for (const auto& cell : f.nl.cells()) {
    if (!cell.is_custom()) continue;
    CellState s = p.snapshot(cell.id);
    for (std::size_t k = 0; k < s.pin_site.size(); ++k) {
      if (s.pin_site[k] >= 0) {
        s.pin_site[k] = static_cast<int>(s.sites.size()) + 1000;
        p.restore(cell.id, std::move(s));
        corrupted = true;
        break;
      }
    }
    if (corrupted) break;
  }
  ASSERT_TRUE(corrupted) << "workload produced no sited pins";
  EXPECT_FALSE(validate_placement(p).ok());
}

// ---------------------------------------------------------------------------
// Routing validator.

struct RoutingFixture {
  RoutingGraph g;
  std::vector<NetTargets> nets;
  GlobalRouteResult result;

  RoutingFixture() {
    // A 2x3 grid of nodes; unit capacities.
    for (int y = 0; y < 2; ++y)
      for (int x = 0; x < 3; ++x) g.add_node({x * 10, y * 10});
    auto at = [](int x, int y) { return static_cast<NodeId>(y * 3 + x); };
    for (int y = 0; y < 2; ++y)
      for (int x = 0; x < 2; ++x)
        g.add_edge(at(x, y), at(x + 1, y), 10.0, 2);
    for (int x = 0; x < 3; ++x) g.add_edge(at(x, 0), at(x, 1), 10.0, 2);
    nets.push_back({{{at(0, 0)}, {at(2, 0)}}});
    nets.push_back({{{at(0, 1)}, {at(2, 1)}}});
    result = GlobalRouter(g, {{4}, 3}).route(nets);
  }
};

TEST(ValidateRouting, CleanRouterOutputPasses) {
  RoutingFixture f;
  ASSERT_EQ(f.result.unrouted_nets, 0);
  const ValidationReport r = validate_routing(f.g, f.nets, f.result);
  EXPECT_TRUE(r.ok()) << r.str();
}

TEST(ValidateRouting, DetectsUsageDesync) {
  RoutingFixture f;
  f.result.edge_usage[0] += 1;
  EXPECT_FALSE(validate_routing(f.g, f.nets, f.result).ok());
}

TEST(ValidateRouting, DetectsWrongTotalLength) {
  RoutingFixture f;
  f.result.total_length += 5.0;
  const ValidationReport r = validate_routing(f.g, f.nets, f.result);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.str().find("length"), std::string::npos) << r.str();
}

TEST(ValidateRouting, DetectsChoiceOutOfRange) {
  RoutingFixture f;
  f.result.choice[0] =
      static_cast<int>(f.result.alternatives[0].size()) + 5;
  EXPECT_FALSE(validate_routing(f.g, f.nets, f.result).ok());
}

TEST(ValidateRouting, DetectsDisconnectedRoute) {
  RoutingFixture f;
  ASSERT_GE(f.result.choice[0], 0);
  // Gut the selected route's edges: still sorted/valid edges, no longer
  // connecting the net.
  auto& route = f.result.alternatives[0][static_cast<std::size_t>(
      f.result.choice[0])];
  ASSERT_FALSE(route.edges.empty());
  const EdgeId kept = route.edges.front();
  // Recompute the bookkeeping the corruption would otherwise desync, so
  // the *connectivity* check is what fires.
  f.result.total_length -= route.length - f.g.edge(kept).length;
  for (std::size_t i = 1; i < route.edges.size(); ++i)
    --f.result.edge_usage[static_cast<std::size_t>(route.edges[i])];
  route.edges = {kept};
  route.length = f.g.edge(kept).length;
  f.result.total_overflow = total_overflow(f.g, f.result.edge_usage);
  const ValidationReport r = validate_routing(f.g, f.nets, f.result);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.str().find("connect"), std::string::npos) << r.str();
}

// ---------------------------------------------------------------------------
// CostAudit: the incremental-cost drift checker.

struct AuditFixture {
  Netlist nl;
  Rect core;
  Placement p;
  OverlapEngine ov;
  CostModel model;
  CostTerms truth;

  AuditFixture()
      : nl(generate_circuit(tiny_circuit(9))),
        core(DynamicAreaEstimator(nl).compute_initial_core()),
        p(nl),
        ov(p, core, {}),
        model(p, ov) {
    Rng rng(13);
    p.randomize(rng, core);
    ov.refresh_all();
    truth = model.full();
  }
};

TEST(CostAudit, NoDriftOnConsistentTotals) {
  AuditFixture f;
  CostAudit audit(f.model);
  const CostDriftReport r = audit.compare(f.truth);
  EXPECT_FALSE(r.any()) << r.str();
}

TEST(CostAudit, NamesExactlyTheDriftedTerm) {
  AuditFixture f;
  CostAudit audit(f.model);

  CostTerms bad_c1 = f.truth;
  bad_c1.c1 += 100.0;
  CostDriftReport r = audit.compare(bad_c1);
  EXPECT_TRUE(r.c1_drifted);
  EXPECT_FALSE(r.c2_drifted);
  EXPECT_FALSE(r.c3_drifted);
  EXPECT_NE(r.str().find("C1"), std::string::npos) << r.str();
  EXPECT_EQ(r.str().find("C2"), std::string::npos) << r.str();

  CostTerms bad_c2 = f.truth;
  bad_c2.c2_raw += 100.0;
  r = audit.compare(bad_c2);
  EXPECT_FALSE(r.c1_drifted);
  EXPECT_TRUE(r.c2_drifted);
  EXPECT_FALSE(r.c3_drifted);
  EXPECT_NE(r.str().find("C2"), std::string::npos) << r.str();

  CostTerms bad_c3 = f.truth;
  bad_c3.c3 += 100.0;
  r = audit.compare(bad_c3);
  EXPECT_FALSE(r.c1_drifted);
  EXPECT_FALSE(r.c2_drifted);
  EXPECT_TRUE(r.c3_drifted);
  EXPECT_NE(r.str().find("C3"), std::string::npos) << r.str();
}

TEST(CostAudit, ToleratesFloatNoiseWithinEpsilon) {
  AuditFixture f;
  CostAudit audit(f.model);
  CostTerms wiggled = f.truth;
  wiggled.c1 += 1e-9 * (std::abs(wiggled.c1) + 1.0);
  EXPECT_FALSE(audit.compare(wiggled).any());
}

TEST(CostAudit, CorruptedIncrementalStateRaisesNamedViolation) {
  // The satellite scenario: the annealer's running totals desync (here,
  // by simulated partial-evaluation bug in C2); the accept-interval
  // checkpoint must raise a contract violation naming C2 and only C2.
  AuditFixture f;
  CostAuditParams ap;
  ap.every_accepts = 1;
  CostAudit audit(f.model, ap);

  CostTerms drifted = f.truth;
  drifted.c2_raw += 42.0;

  check::ScopedContractTrap trap;
  try {
    audit.on_accept(drifted, "test move");
    FAIL() << "drift was not caught";
  } catch (const check::ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_STREQ(e.violation.kind, "CostAudit");
    EXPECT_NE(what.find("C2"), std::string::npos) << what;
    EXPECT_EQ(what.find("C1"), std::string::npos) << what;
    EXPECT_NE(what.find("test move"), std::string::npos) << what;
  }
}

TEST(CostAudit, AcceptIntervalControlsCheckpointCadence) {
  AuditFixture f;
  CostAuditParams ap;
  ap.every_accepts = 3;
  ap.at_temperature_steps = false;
  CostAudit audit(f.model, ap);
  for (int i = 0; i < 9; ++i) audit.on_accept(f.truth, "move");
  EXPECT_EQ(audit.checks_run(), 3);
  audit.on_temperature_step(f.truth, "step");
  EXPECT_EQ(audit.checks_run(), 3);  // disabled at temperature steps
}

TEST(CostAudit, TemperatureStepCheckpointRuns) {
  AuditFixture f;
  CostAuditParams ap;
  ap.at_temperature_steps = true;
  CostAudit audit(f.model, ap);
  audit.on_temperature_step(f.truth, "step");
  EXPECT_EQ(audit.checks_run(), 1);
}

// ---------------------------------------------------------------------------
// Seed derivation.

TEST(DeriveSeed, DeterministicAndStreamSensitive) {
  EXPECT_EQ(derive_seed(1, "stage1"), derive_seed(1, "stage1"));
  EXPECT_NE(derive_seed(1, "stage1"), derive_seed(1, "stage2"));
  EXPECT_NE(derive_seed(1, "stage1"), derive_seed(2, "stage1"));
  // A derived seed never collides with the master passed straight through
  // for these streams (regression against identity mixing).
  EXPECT_NE(derive_seed(1, "stage1"), 1u);
}

}  // namespace
}  // namespace tw
