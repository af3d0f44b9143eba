// Tests for the YAL (MCNC macro benchmark format) reader/writer.
#include <gtest/gtest.h>

#include "flow/timberwolf.hpp"
#include "netlist/yal.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

const char* kSample = R"(
/* A minimal apte-style example. */
MODULE alu;
  TYPE GENERAL;
  DIMENSIONS 0 0 100 0 100 60 0 60;
  IOLIST;
    a B 0 30 1 PDIFF;
    b B 100 30 1 PDIFF;
    ck I 50 0 1 METAL1;
    vdd PWR 50 60 4 METAL2;
  ENDIOLIST;
ENDMODULE;

MODULE ram;
  TYPE GENERAL;
  DIMENSIONS 0 0 80 0 80 80 40 80 40 120 0 120;
  IOLIST;
    d B 80 40;
    ck I 40 0;
  ENDIOLIST;
ENDMODULE;

MODULE chip;
  TYPE PARENT;
  DIMENSIONS 0 0 500 0 500 500 0 500;
  IOLIST;
  ENDIOLIST;
  NETWORK;
    u_alu0 alu busA busB clk VDD;
    u_alu1 alu busB busA clk VDD;
    u_ram0 ram busA clk;
  ENDNETWORK;
ENDMODULE;
)";

TEST(Yal, ParsesSample) {
  const Netlist nl = parse_yal_string(kSample);
  EXPECT_EQ(nl.num_cells(), 3u);
  // Nets: busA (3 pins), busB (2), clk (3); VDD filtered as power.
  EXPECT_EQ(nl.num_nets(), 3u);
  EXPECT_EQ(nl.num_pins(), 8u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Yal, RectilinearOutlineDecomposed) {
  const Netlist nl = parse_yal_string(kSample);
  // u_ram0 is the L-shaped module: area 80*80 + 40*40.
  bool found = false;
  for (const auto& c : nl.cells())
    if (c.name == "u_ram0") {
      found = true;
      EXPECT_EQ(c.instances.front().area(), 80 * 80 + 40 * 40);
      EXPECT_GT(c.instances.front().tiles.size(), 1u);
    }
  EXPECT_TRUE(found);
}

TEST(Yal, PinPositionsPreserved) {
  const Netlist nl = parse_yal_string(kSample);
  for (const auto& c : nl.cells()) {
    if (c.name != "u_alu0") continue;
    const CellInstance& inst = c.instances.front();
    ASSERT_EQ(c.pins.size(), 3u);  // a, b, ck (vdd filtered)
    EXPECT_EQ(inst.pin_offsets[0], (Point{0, 30}));
    EXPECT_EQ(inst.pin_offsets[1], (Point{100, 30}));
    EXPECT_EQ(inst.pin_offsets[2], (Point{50, 0}));
  }
}

TEST(Yal, PositionalSignalBinding) {
  const Netlist nl = parse_yal_string(kSample);
  // u_alu1 binds busB to terminal 'a' and busA to 'b' (swapped).
  for (const auto& c : nl.cells()) {
    if (c.name != "u_alu1") continue;
    const Pin& a = nl.pin(c.pins[0]);
    EXPECT_EQ(a.name, "a");
    EXPECT_EQ(nl.net(a.net).name, "busB");
  }
}

TEST(Yal, SingletonNetsDropped) {
  const char* text = R"(
MODULE m; TYPE GENERAL;
  DIMENSIONS 0 0 10 0 10 10 0 10;
  IOLIST; p B 5 0; q B 5 10; ENDIOLIST;
ENDMODULE;
MODULE chip; TYPE PARENT;
  DIMENSIONS 0 0 99 0 99 99 0 99;
  IOLIST; ENDIOLIST;
  NETWORK;
    u0 m shared lonely;
    u1 m shared other;
    u2 m other dangling;
  ENDNETWORK;
ENDMODULE;
)";
  const Netlist nl = parse_yal_string(text);
  // "lonely" and "dangling" have fanout 1 and are dropped.
  EXPECT_EQ(nl.num_nets(), 2u);
  EXPECT_EQ(nl.num_pins(), 4u);
}

TEST(Yal, ErrorsCarryLineNumbers) {
  try {
    parse_yal_string("MODULE m;\n  TYPE GENERAL;\n  BOGUS;\nENDMODULE;\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(Yal, RejectsStructuralErrors) {
  EXPECT_THROW(parse_yal_string("MODULE m; TYPE GENERAL; ENDMODULE;"),
               std::runtime_error);  // no PARENT
  EXPECT_THROW(parse_yal_string(R"(
MODULE chip; TYPE PARENT;
  NETWORK; u0 missing a b; ENDNETWORK;
ENDMODULE;)"),
               std::runtime_error);  // unknown module
  EXPECT_THROW(parse_yal_string(R"(
MODULE m; TYPE GENERAL;
  DIMENSIONS 0 0 10 0 10 10 0 10;
  IOLIST; p B 5 0; ENDIOLIST;
ENDMODULE;
MODULE chip; TYPE PARENT;
  DIMENSIONS 0 0 9 0 9 9 0 9;
  IOLIST; ENDIOLIST;
  NETWORK; u0 m a b c; ENDNETWORK;
ENDMODULE;)"),
               std::runtime_error);  // arity mismatch
}

TEST(Yal, CommentsSkipped) {
  const Netlist nl = parse_yal_string(kSample);  // kSample starts with one
  EXPECT_EQ(nl.num_cells(), 3u);
}

TEST(Yal, WriterRoundTrip) {
  const Netlist original = generate_circuit(tiny_circuit(9));
  const std::string yal = write_yal(original, "tiny");
  const Netlist back = parse_yal_string(yal);
  EXPECT_EQ(back.num_cells(), original.num_cells());
  EXPECT_EQ(back.num_nets(), original.num_nets());
  EXPECT_EQ(back.num_pins(), original.num_pins());
  // Per-cell bounding boxes survive (custom cells realized at their
  // initial geometry).
  for (std::size_t c = 0; c < original.num_cells(); ++c) {
    const CellInstance& a = original.cell(static_cast<CellId>(c)).instances.front();
    const CellInstance& b = back.cell(static_cast<CellId>(c)).instances.front();
    EXPECT_EQ(a.width, b.width) << c;
    EXPECT_EQ(a.height, b.height) << c;
  }
}

TEST(Yal, ParsedCircuitRunsThroughTheFlow) {
  const Netlist nl = parse_yal_string(kSample);
  FlowParams params;
  params.stage1.attempts_per_cell = 20;
  params.stage1.p2_samples = 6;
  params.stage2.attempts_per_cell = 8;
  params.stage2.router.steiner.m = 3;
  TimberWolfMC flow(nl, params);
  Placement placement(nl);
  const FlowResult r = flow.run(placement);
  EXPECT_GT(r.final_teil, 0.0);
  EXPECT_GT(r.final_chip_area, 0);
}

}  // namespace
}  // namespace tw
