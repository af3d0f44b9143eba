// A small human-readable netlist format, so circuits can be stored on disk
// and the examples can ship self-contained inputs. Grammar (one directive
// per line, '#' comments):
//
//   tech track_separation <int>
//   tech modulation <Mmax> <Bmin>
//   net <name> [hweight <f>] [vweight <f>]          # optional pre-declare
//   macro <name>
//     rect <w> <h>
//     polygon <x> <y> <x> <y> ...                   # rectilinear outline
//     pin <name> net <net> at <x> <y>
//   end
//   custom <name> area <A> aspect <lo> <hi> [sites <k>]
//     aspects <a1> <a2> ...                         # discrete aspect set
//     pin <name> net <net> fixed <x> <y>
//     pin <name> net <net> edges <sides>            # sides in {L,R,B,T,*}
//     group <name> edges <sides> [seq]
//       pin <name> net <net>
//     endgroup
//   end
//   equiv <cell>.<pin> <cell>.<pin>
//
// Nets are created on first reference. Pin offsets for `at`/`fixed` are in
// the cell's local frame (bbox lower-left at origin).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "netlist/netlist.hpp"
#include "netlist/parse_report.hpp"

namespace tw {

/// Parses the format above, collecting every diagnostic it can localize
/// (line + column + message) into `report` instead of stopping at the
/// first: a malformed line is recorded and skipped, and scanning
/// continues. Returns the netlist — checked by validate_netlist — when
/// `report.ok()`, nullopt otherwise.
std::optional<Netlist> parse_netlist(std::istream& in, ParseReport& report);
std::optional<Netlist> parse_netlist_string(const std::string& text,
                                            ParseReport& report);
std::optional<Netlist> parse_netlist_file(const std::string& path,
                                          ParseReport& report);

/// Throwing conveniences: as above, but a non-ok report becomes a
/// ParseError carrying all diagnostics.
Netlist parse_netlist_string(const std::string& text);
Netlist parse_netlist_file(const std::string& path);

/// Serializes a netlist back to the same format (round-trippable).
std::string write_netlist(const Netlist& nl);
void write_netlist_file(const Netlist& nl, const std::string& path);

}  // namespace tw
