#include "netlist/parser.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "netlist/validate.hpp"

namespace tw {
namespace {

/// Thrown by ParseState::fail after recording a diagnostic: unwinds the
/// current line only — the caller recovers at the next one.
struct LineAbort {};

struct ParseState {
  Netlist nl;
  std::map<std::string, NetId> nets_by_name;
  std::map<std::string, CellId> cells_by_name;
  std::map<std::string, PinId> pins_by_qual_name;  // "cell.pin"
  int line_no = 0;
  ParseReport* report = nullptr;
  std::istringstream* cur = nullptr;  ///< line being tokenized

  /// 1-based column of the current stream position; after a failed
  /// extraction the stream position is lost, so point at end of line.
  int column() const {
    if (cur == nullptr) return 0;
    const auto pos = cur->tellg();
    return pos >= 0 ? static_cast<int>(pos) + 1
                    : static_cast<int>(cur->str().size()) + 1;
  }

  [[noreturn]] void fail(const std::string& msg) const {
    report->add(line_no, column(), msg);
    throw LineAbort{};
  }

  NetId net_id(const std::string& name) {
    auto it = nets_by_name.find(name);
    if (it != nets_by_name.end()) return it->second;
    const NetId id = nl.add_net(name);
    nets_by_name.emplace(name, id);
    return id;
  }
};

std::uint8_t parse_side_mask(ParseState& st, const std::string& s) {
  if (s == "*") return kSideAny;
  std::uint8_t mask = 0;
  for (char c : s) {
    switch (c) {
      case 'L': mask |= kSideLeft; break;
      case 'R': mask |= kSideRight; break;
      case 'B': mask |= kSideBottom; break;
      case 'T': mask |= kSideTop; break;
      default: st.fail(std::string("bad side character '") + c + "'");
    }
  }
  if (mask == 0) st.fail("empty side list");
  return mask;
}

template <typename T>
T read_or_fail(ParseState& st, std::istringstream& is, const char* what) {
  T v{};
  if (!(is >> v)) st.fail(std::string("expected ") + what);
  return v;
}

void register_pin(ParseState& st, const std::string& cell_name,
                  const std::string& pin_name, PinId id) {
  const std::string qual = cell_name + "." + pin_name;
  if (!st.pins_by_qual_name.emplace(qual, id).second)
    st.fail("duplicate pin name " + qual);
}

}  // namespace

std::optional<Netlist> parse_netlist(std::istream& in, ParseReport& report) {
  ParseState st;
  st.report = &report;

  std::string line;
  // Current cell context (empty name when at top level).
  std::string cell_name;
  CellId cell_id = kInvalidCell;
  bool cell_is_custom = false;
  GroupId group_id = kNoGroup;

  // One directive line. LineAbort (diagnostic already recorded) and the
  // Netlist builders' invalid_argument both unwind only this far, so a bad
  // line never stops the scan.
  auto dispatch = [&](std::istringstream& is, const std::string& tok) {
    if (tok == "tech") {
      std::string key = read_or_fail<std::string>(st, is, "tech key");
      if (key == "track_separation") {
        st.nl.tech().track_separation = read_or_fail<Coord>(st, is, "value");
      } else if (key == "modulation") {
        st.nl.tech().modulation_max = read_or_fail<double>(st, is, "Mmax");
        st.nl.tech().modulation_min = read_or_fail<double>(st, is, "Bmin");
      } else {
        st.fail("unknown tech key " + key);
      }
    } else if (tok == "net") {
      const auto name = read_or_fail<std::string>(st, is, "net name");
      const NetId id = st.net_id(name);
      double wh = st.nl.net(id).weight_h;
      double wv = st.nl.net(id).weight_v;
      std::string opt;
      while (is >> opt) {
        if (opt == "hweight")
          wh = read_or_fail<double>(st, is, "hweight value");
        else if (opt == "vweight")
          wv = read_or_fail<double>(st, is, "vweight value");
        else
          st.fail("unknown net option " + opt);
      }
      st.nl.set_net_weights(id, wh, wv);
    } else if (tok == "macro" || tok == "custom") {
      if (cell_id != kInvalidCell) st.fail("nested cell definition");
      cell_name = read_or_fail<std::string>(st, is, "cell name");
      if (st.cells_by_name.count(cell_name))
        st.fail("duplicate cell " + cell_name);
      cell_is_custom = (tok == "custom");
      if (cell_is_custom) {
        std::string kw = read_or_fail<std::string>(st, is, "'area'");
        if (kw != "area") st.fail("expected 'area'");
        const Coord area = read_or_fail<Coord>(st, is, "area value");
        kw = read_or_fail<std::string>(st, is, "'aspect'");
        if (kw != "aspect") st.fail("expected 'aspect'");
        const double lo = read_or_fail<double>(st, is, "aspect lo");
        const double hi = read_or_fail<double>(st, is, "aspect hi");
        int sites = 8;
        if (is >> kw) {
          if (kw != "sites") st.fail("expected 'sites'");
          sites = static_cast<int>(read_or_fail<Coord>(st, is, "site count"));
        }
        cell_id = st.nl.add_custom(cell_name, area, lo, hi, sites);
      } else {
        cell_id = kInvalidCell;  // created by first rect/polygon directive
      }
      st.cells_by_name.emplace(cell_name, cell_id);
    } else if (tok == "rect" || tok == "polygon") {
      if (cell_name.empty()) st.fail("geometry outside a cell block");
      if (cell_is_custom) st.fail("explicit geometry on a custom cell");
      if (cell_id != kInvalidCell)
        st.fail("cell " + cell_name + " already has geometry");
      if (tok == "rect") {
        const Coord w = read_or_fail<Coord>(st, is, "width");
        const Coord h = read_or_fail<Coord>(st, is, "height");
        cell_id = st.nl.add_macro(cell_name, {Rect{0, 0, w, h}});
      } else {
        std::vector<Point> verts;
        Coord x, y;
        while (is >> x >> y) verts.push_back({x, y});
        cell_id = st.nl.add_macro_polygon(cell_name, verts);
      }
      st.cells_by_name[cell_name] = cell_id;
    } else if (tok == "tiles") {
      if (cell_name.empty()) st.fail("geometry outside a cell block");
      if (cell_is_custom) st.fail("explicit geometry on a custom cell");
      if (cell_id != kInvalidCell)
        st.fail("cell " + cell_name + " already has geometry");
      std::vector<Rect> tiles;
      Coord xlo, ylo, xhi, yhi;
      while (is >> xlo >> ylo >> xhi >> yhi)
        tiles.push_back({xlo, ylo, xhi, yhi});
      if (tiles.empty()) st.fail("empty tile list");
      cell_id = st.nl.add_macro(cell_name, tiles);
      st.cells_by_name[cell_name] = cell_id;
    } else if (tok == "aspects") {
      if (cell_id == kInvalidCell || !cell_is_custom)
        st.fail("'aspects' outside a custom cell");
      std::vector<double> aspects;
      double a;
      while (is >> a) aspects.push_back(a);
      st.nl.set_discrete_aspects(cell_id, aspects);
    } else if (tok == "group") {
      if (cell_id == kInvalidCell || !cell_is_custom)
        st.fail("'group' outside a custom cell");
      const auto gname = read_or_fail<std::string>(st, is, "group name");
      std::string kw = read_or_fail<std::string>(st, is, "'edges'");
      if (kw != "edges") st.fail("expected 'edges'");
      const auto mask =
          parse_side_mask(st, read_or_fail<std::string>(st, is, "sides"));
      bool seq = false;
      if (is >> kw) {
        if (kw != "seq") st.fail("expected 'seq'");
        seq = true;
      }
      group_id = st.nl.add_group(cell_id, gname, mask, seq);
    } else if (tok == "endgroup") {
      if (group_id == kNoGroup) st.fail("'endgroup' without group");
      group_id = kNoGroup;
    } else if (tok == "pin") {
      if (cell_name.empty()) st.fail("pin outside a cell block");
      const auto pname = read_or_fail<std::string>(st, is, "pin name");
      std::string kw = read_or_fail<std::string>(st, is, "'net'");
      if (kw != "net") st.fail("expected 'net'");
      const NetId net =
          st.net_id(read_or_fail<std::string>(st, is, "net name"));
      if (group_id != kNoGroup) {
        register_pin(st, cell_name, pname,
                     st.nl.add_group_pin(cell_id, group_id, pname, net));
        return;
      }
      kw = read_or_fail<std::string>(st, is, "pin location kind");
      if (kw == "at" || kw == "fixed") {
        if (cell_id == kInvalidCell)
          st.fail("pin before cell geometry is defined");
        const Coord x = read_or_fail<Coord>(st, is, "x");
        const Coord y = read_or_fail<Coord>(st, is, "y");
        register_pin(st, cell_name, pname,
                     st.nl.add_fixed_pin(cell_id, pname, net, Point{x, y}));
      } else if (kw == "edges") {
        const auto mask =
            parse_side_mask(st, read_or_fail<std::string>(st, is, "sides"));
        register_pin(st, cell_name, pname,
                     st.nl.add_edge_pin(cell_id, pname, net, mask));
      } else {
        st.fail("unknown pin location kind " + kw);
      }
    } else if (tok == "end") {
      if (cell_name.empty()) st.fail("'end' without cell");
      if (group_id != kNoGroup) st.fail("'end' inside group");
      if (cell_id == kInvalidCell)
        st.fail("cell " + cell_name + " has no geometry");
      cell_name.clear();
      cell_id = kInvalidCell;
    } else if (tok == "equiv") {
      const auto qa = read_or_fail<std::string>(st, is, "pin name");
      const auto qb = read_or_fail<std::string>(st, is, "pin name");
      auto ita = st.pins_by_qual_name.find(qa);
      auto itb = st.pins_by_qual_name.find(qb);
      if (ita == st.pins_by_qual_name.end()) st.fail("unknown pin " + qa);
      if (itb == st.pins_by_qual_name.end()) st.fail("unknown pin " + qb);
      st.nl.set_equivalent(ita->second, itb->second);
    } else {
      st.fail("unknown directive " + tok);
    }
  };

  while (std::getline(in, line)) {
    ++st.line_no;
    // Past the diagnostic cap the scan continues: ParseReport::add only
    // counts (no detail, no memory growth), so the report can state how
    // many defects saturation suppressed instead of truncating silently.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream is(line);
    st.cur = &is;
    std::string tok;
    if (!(is >> tok)) continue;  // blank line
    try {
      dispatch(is, tok);
    } catch (const LineAbort&) {
      // diagnostic already recorded; resume at the next line
    } catch (const std::exception& e) {
      // a Netlist builder rejected the directive's values
      report.add(st.line_no, st.column(), e.what());
    }
    st.cur = nullptr;
  }
  st.cur = nullptr;
  if (!cell_name.empty())
    report.add(st.line_no, 0, "unterminated cell block " + cell_name);
  if (!report.ok()) return std::nullopt;

  // A clean scan still has to produce a coherent netlist: check every
  // structural invariant before handing it out.
  const ValidationReport vr = validate_netlist(st.nl);
  if (!vr.ok()) {
    report.add(0, 0, "netlist validation failed: " + vr.str());
    return std::nullopt;
  }
  return std::move(st.nl);
}

std::optional<Netlist> parse_netlist_string(const std::string& text,
                                            ParseReport& report) {
  std::istringstream is(text);
  return parse_netlist(is, report);
}

std::optional<Netlist> parse_netlist_file(const std::string& path,
                                          ParseReport& report) {
  std::ifstream in(path);
  if (!in) {
    report.add(0, 0, "cannot open netlist file " + path);
    return std::nullopt;
  }
  return parse_netlist(in, report);
}

Netlist parse_netlist_string(const std::string& text) {
  ParseReport report;
  std::optional<Netlist> nl = parse_netlist_string(text, report);
  if (!nl) throw ParseError(std::move(report));
  return std::move(*nl);
}

Netlist parse_netlist_file(const std::string& path) {
  ParseReport report;
  std::optional<Netlist> nl = parse_netlist_file(path, report);
  if (!nl) throw ParseError(std::move(report));
  return std::move(*nl);
}

std::string write_netlist(const Netlist& nl) {
  std::ostringstream os;
  os << "# TimberWolfMC netlist\n";
  os << "tech track_separation " << nl.tech().track_separation << "\n";
  os << "tech modulation " << nl.tech().modulation_max << " "
     << nl.tech().modulation_min << "\n";
  for (const auto& n : nl.nets()) {
    os << "net " << n.name;
    if (n.weight_h != 1.0) os << " hweight " << n.weight_h;
    if (n.weight_v != 1.0) os << " vweight " << n.weight_v;
    os << "\n";
  }
  auto mask_str = [](std::uint8_t mask) {
    if (mask == kSideAny) return std::string("*");
    std::string s;
    if (mask & kSideLeft) s += 'L';
    if (mask & kSideRight) s += 'R';
    if (mask & kSideBottom) s += 'B';
    if (mask & kSideTop) s += 'T';
    return s;
  };
  for (const auto& c : nl.cells()) {
    const CellInstance& inst = c.instances.front();
    if (c.is_custom()) {
      os << "custom " << c.name << " area " << c.target_area << " aspect "
         << c.aspect_lo << " " << c.aspect_hi << " sites " << c.sites_per_edge
         << "\n";
      if (!c.discrete_aspects.empty()) {
        os << "  aspects";
        for (double a : c.discrete_aspects) os << " " << a;
        os << "\n";
      }
    } else {
      os << "macro " << c.name << "\n";
      if (inst.tiles.size() == 1) {
        os << "  rect " << inst.width << " " << inst.height << "\n";
      } else {
        // Emit each tile as its own macro is lossy; instead store the tiles
        // verbatim via a polygon walk is complex. We serialize tiles as a
        // polygon only for single-tile cells; multi-tile cells round-trip
        // through an explicit tile list extension.
        os << "  tiles";
        for (const auto& t : inst.tiles)
          os << " " << t.xlo << " " << t.ylo << " " << t.xhi << " " << t.yhi;
        os << "\n";
      }
    }
    // Fixed pins first, then groups.
    for (std::size_t k = 0; k < c.pins.size(); ++k) {
      const Pin& p = nl.pin(c.pins[k]);
      if (p.group != kNoGroup) continue;
      if (p.commit == PinCommit::kFixed) {
        os << "  pin " << p.name << " net " << nl.net(p.net).name
           << (c.is_custom() ? " fixed " : " at ") << inst.pin_offsets[k].x
           << " " << inst.pin_offsets[k].y << "\n";
      } else {
        os << "  pin " << p.name << " net " << nl.net(p.net).name << " edges "
           << mask_str(p.side_mask) << "\n";
      }
    }
    for (const auto& g : c.groups) {
      os << "  group " << g.name << " edges " << mask_str(g.side_mask)
         << (g.sequenced ? " seq" : "") << "\n";
      for (PinId pid : g.pins) {
        const Pin& p = nl.pin(pid);
        os << "    pin " << p.name << " net " << nl.net(p.net).name << "\n";
      }
      os << "  endgroup\n";
    }
    os << "end\n";
  }
  // Equivalence classes.
  std::map<std::int32_t, std::vector<PinId>> classes;
  for (const auto& p : nl.pins())
    if (p.equiv_class != 0) classes[p.equiv_class].push_back(p.id);
  for (const auto& [cls, members] : classes) {
    (void)cls;
    for (std::size_t i = 1; i < members.size(); ++i) {
      const Pin& a = nl.pin(members[0]);
      const Pin& b = nl.pin(members[i]);
      os << "equiv " << nl.cell(a.cell).name << "." << a.name << " "
         << nl.cell(b.cell).name << "." << b.name << "\n";
    }
  }
  return os.str();
}

void write_netlist_file(const Netlist& nl, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write netlist file " + path);
  out << write_netlist(nl);
}

}  // namespace tw
