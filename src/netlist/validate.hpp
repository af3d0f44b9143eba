// Structural netlist validation.
//
// Lives in src/netlist (not src/check) because it needs nothing above the
// netlist model: the parser frontends run it right after parsing, and a
// validator in an upper layer would drag the placement/routing headers
// into the parsers (see DESIGN.md "Layering (normative)"). The
// placement/routing validators, which do need upper-layer types, remain
// in check/validate.hpp, which re-exports this header so existing callers
// keep a single include.
#pragma once

#include "check/validation_report.hpp"
#include "netlist/netlist.hpp"

namespace tw {

/// Structural netlist invariants: pin/net/cell cross-references are
/// mutually consistent, net degrees >= 2, every cell has at least one
/// instance with per-pin offsets, each instance's tiles are non-degenerate
/// and disjoint with their bounding box at the origin and every fixed pin
/// inside it, custom aspect-ratio ranges are sane, and per-cell pin-site
/// capacity can accommodate the uncommitted pins. Every violation is
/// reported, each naming its cell, pin or net. Netlist::validate() throws
/// this report; the parsers return it as a diagnostic.
ValidationReport validate_netlist(const Netlist& nl);

}  // namespace tw
