// YAL — the MCNC macro-cell benchmark format.
//
// The public macro-cell benchmarks of the era (apte, xerox, hp, ami33,
// ami49) are distributed in YAL ("Yet Another Language"); this module
// reads the subset those benchmarks use and maps it onto tw::Netlist:
//
//   MODULE <name>;
//     TYPE <GENERAL|STANDARD|PAD|PARENT>;
//     DIMENSIONS x1 y1 x2 y2 ... ;          rectilinear outline
//     IOLIST;
//       <term> <dir> <x> <y> [<width> [<layer>]];
//     ENDIOLIST;
//     [NETWORK;                              (PARENT module only)
//       <instance> <module> <signal> ... ;
//     ENDNETWORK;]
//   ENDMODULE;
//
// Mapping rules:
//  * every non-PARENT module becomes a cell *prototype*; each NETWORK
//    instantiation creates one macro cell with the module's outline and
//    one fixed pin per IOLIST terminal (signals bind positionally);
//  * power and ground signals (VDD, VSS, GND, in upper or lower case) are
//    skipped — the paper handles power/ground specially (Section 5 assumes
//    they run in every channel) and they would otherwise appear as giant
//    nets;
//  * signals connected to fewer than two remaining pins are dropped;
//  * PAD modules are instantiated like any other cell (TimberWolfMC does
//    not model a fixed pad ring; callers may pin them after parsing);
//  * the PARENT module's own IOLIST (the chip's external pads) is ignored.
//
// The writer emits one MODULE per cell (our cells are unique instances)
// plus a PARENT NETWORK, realizing custom cells at their *current initial*
// geometry — YAL has no soft-cell concept, so the round trip fixes their
// shape.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "netlist/netlist.hpp"
#include "netlist/parse_report.hpp"

namespace tw {

/// Parses the YAL subset above, collecting every diagnostic it can
/// localize into `report` instead of stopping at the first: a malformed
/// module is recorded and parsing resynchronizes at the next MODULE
/// keyword. Returns the netlist — checked by validate_netlist — when
/// `report.ok()`, nullopt otherwise.
std::optional<Netlist> parse_yal(std::istream& in, ParseReport& report);
std::optional<Netlist> parse_yal_string(const std::string& text,
                                        ParseReport& report);
std::optional<Netlist> parse_yal_file(const std::string& path,
                                      ParseReport& report);

/// Throwing conveniences: as above, but a non-ok report becomes a
/// ParseError carrying all diagnostics.
Netlist parse_yal_string(const std::string& text);
Netlist parse_yal_file(const std::string& path);

/// Serializes a netlist to YAL (one module per cell + PARENT network).
std::string write_yal(const Netlist& nl, const std::string& chip_name = "chip");

}  // namespace tw
