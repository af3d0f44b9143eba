#include "netlist/yal.hpp"

#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "netlist/validate.hpp"

namespace tw {
namespace {

/// Power and ground signals, skipped by the parser (see yal.hpp).
bool is_power_signal(const std::string& sig) {
  static const std::set<std::string> kPowerNames = {"VDD", "VSS", "GND",
                                                    "vdd", "vss", "gnd"};
  return kPowerNames.count(sig) != 0;
}

/// Thrown by Lexer::fail after recording a diagnostic: unwinds the module
/// being parsed — the caller recovers at the next MODULE keyword.
struct ModuleAbort {};

/// Tokenizer: YAL statements are ';'-terminated, whitespace-separated,
/// with '/* ... */' comments. Tracks line and column for diagnostics.
class Lexer {
public:
  Lexer(std::istream& in, ParseReport& report) : in_(in), report_(&report) {}

  /// Next token, or empty string at end of input. ';' is its own token.
  std::string next() {
    skip_space_and_comments();
    tok_col_ = col_;
    if (!in_.good()) return {};
    const int c = in_.peek();
    if (c == EOF) return {};
    if (c == ';') {
      get();
      return ";";
    }
    std::string tok;
    while (in_.good()) {
      const int ch = in_.peek();
      if (ch == EOF || std::isspace(ch) || ch == ';') break;
      tok.push_back(static_cast<char>(get()));
    }
    return tok;
  }

  int line() const { return line_; }
  /// 1-based column where the last token started.
  int column() const { return tok_col_; }

  /// Records the diagnostic and aborts the current module.
  [[noreturn]] void fail(const std::string& msg) const {
    report_->add(line_, tok_col_, msg);
    throw ModuleAbort{};
  }

private:
  int get() {
    const int c = in_.get();
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else if (c != EOF) {
      ++col_;
    }
    return c;
  }

  void skip_space_and_comments() {
    while (in_.good()) {
      int c = in_.peek();
      if (std::isspace(c)) {
        get();
      } else if (c == '/') {
        get();
        if (in_.peek() == '*') {
          get();
          int prev = 0;
          while (in_.good()) {
            c = get();
            if (prev == '*' && c == '/') break;
            prev = c;
          }
        } else {
          in_.unget();
          --col_;
          return;
        }
      } else {
        return;
      }
    }
  }

  std::istream& in_;
  ParseReport* report_;
  int line_ = 1;
  int col_ = 1;
  int tok_col_ = 1;
};

std::string upper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(c));
  return s;
}

struct YalTerminal {
  std::string name;
  Point at;
};

struct YalModule {
  std::string name;
  std::string type;                 ///< GENERAL / STANDARD / PAD / PARENT
  std::vector<Point> outline;       ///< DIMENSIONS vertices (raw coords)
  std::vector<YalTerminal> terminals;
  // PARENT only:
  struct Instance {
    std::string name;
    std::string module;
    std::vector<std::string> signals;
    int line = 0;  ///< source line, for instantiation diagnostics
  };
  std::vector<Instance> instances;
};

Coord parse_coord(Lexer& lex, const std::string& tok) {
  try {
    std::size_t used = 0;
    const double v = std::stod(tok, &used);
    if (used != tok.size()) lex.fail("bad number '" + tok + "'");
    return static_cast<Coord>(std::llround(v));
  } catch (const std::invalid_argument&) {
    lex.fail("bad number '" + tok + "'");
  } catch (const std::out_of_range&) {
    lex.fail("number out of range '" + tok + "'");
  }
}

bool is_number(const std::string& tok) {
  if (tok.empty()) return false;
  const char c = tok[0];
  return std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+' ||
         c == '.';
}

YalModule parse_module(Lexer& lex) {
  YalModule mod;
  mod.name = lex.next();
  if (mod.name.empty()) lex.fail("MODULE without a name");
  if (lex.next() != ";") lex.fail("expected ';' after module name");

  for (std::string tok = upper(lex.next()); tok != "ENDMODULE";
       tok = upper(lex.next())) {
    if (tok.empty()) lex.fail("unexpected end of input inside MODULE");
    if (tok == "TYPE") {
      mod.type = upper(lex.next());
      if (lex.next() != ";") lex.fail("expected ';' after TYPE");
    } else if (tok == "DIMENSIONS") {
      std::vector<Coord> coords;
      for (std::string t = lex.next(); t != ";"; t = lex.next()) {
        if (t.empty()) lex.fail("unexpected end of input in DIMENSIONS");
        coords.push_back(parse_coord(lex, t));
      }
      if (coords.size() % 2 != 0 || coords.size() < 8)
        lex.fail("DIMENSIONS needs an even number (>= 8) of coordinates");
      for (std::size_t i = 0; i + 1 < coords.size(); i += 2)
        mod.outline.push_back({coords[i], coords[i + 1]});
    } else if (tok == "IOLIST") {
      if (lex.next() != ";") lex.fail("expected ';' after IOLIST");
      for (std::string t = lex.next(); upper(t) != "ENDIOLIST";
           t = lex.next()) {
        if (t.empty()) lex.fail("unexpected end of input in IOLIST");
        // <term> <dir> <x> <y> [width [layer]] ;
        YalTerminal term;
        term.name = t;
        lex.next();  // direction (B/I/O/PI/PO/F/...) — unused
        term.at.x = parse_coord(lex, lex.next());
        term.at.y = parse_coord(lex, lex.next());
        // Optional width / layer trail up to ';'.
        for (std::string rest = lex.next(); rest != ";"; rest = lex.next()) {
          if (rest.empty()) lex.fail("unterminated IOLIST entry");
          if (!is_number(rest) && rest.size() > 8)
            lex.fail("unexpected token '" + rest + "' in IOLIST entry");
        }
        mod.terminals.push_back(std::move(term));
      }
      if (lex.next() != ";") lex.fail("expected ';' after ENDIOLIST");
    } else if (tok == "NETWORK") {
      if (lex.next() != ";") lex.fail("expected ';' after NETWORK");
      for (std::string t = lex.next(); upper(t) != "ENDNETWORK";
           t = lex.next()) {
        if (t.empty()) lex.fail("unexpected end of input in NETWORK");
        YalModule::Instance inst;
        inst.name = t;
        inst.line = lex.line();
        inst.module = lex.next();
        for (std::string sig = lex.next(); sig != ";"; sig = lex.next()) {
          if (sig.empty()) lex.fail("unterminated NETWORK entry");
          inst.signals.push_back(sig);
        }
        mod.instances.push_back(std::move(inst));
      }
      if (lex.next() != ";") lex.fail("expected ';' after ENDNETWORK");
    } else if (tok == "CURRENT" || tok == "VOLTAGE" || tok == "PROFILE") {
      // Electrical annotations: skip to ';'.
      for (std::string t = lex.next(); t != ";"; t = lex.next())
        if (t.empty()) lex.fail("unterminated statement");
    } else {
      lex.fail("unknown statement '" + tok + "'");
    }
  }
  if (lex.next() != ";") lex.fail("expected ';' after ENDMODULE");
  return mod;
}

}  // namespace

std::optional<Netlist> parse_yal(std::istream& in, ParseReport& report) {
  Lexer lex(in, report);
  std::map<std::string, YalModule> modules;
  const YalModule* parent = nullptr;

  // Recovery point: after any in-module failure, resync at the next
  // MODULE keyword so the rest of the file still gets checked.
  auto skip_to_module = [&](std::string tok) {
    while (!tok.empty() && upper(tok) != "MODULE") tok = lex.next();
    return tok;
  };

  std::string tok = lex.next();
  // The scan runs to end-of-input even once the report saturates: add()
  // then only counts the suppressed diagnostics, so the total defect
  // count is reported instead of the tail being truncated silently.
  while (!tok.empty()) {
    if (upper(tok) != "MODULE") {
      report.add(lex.line(), lex.column(),
                 "expected MODULE, got '" + tok + "'");
      tok = skip_to_module(lex.next());
      continue;
    }
    try {
      YalModule mod = parse_module(lex);
      const std::string name = mod.name;
      const int line = lex.line();
      auto [it, fresh] = modules.emplace(name, std::move(mod));
      if (!fresh) {
        report.add(line, 0, "duplicate module " + name);
      } else if (it->second.type == "PARENT") {
        if (parent)
          report.add(line, 0, "multiple PARENT modules");
        else
          parent = &it->second;
      }
      tok = lex.next();
    } catch (const ModuleAbort&) {
      tok = skip_to_module(lex.next());
    }
  }
  if (!parent) {
    report.add(0, 0, "no PARENT module found");
    return std::nullopt;
  }

  Netlist nl;
  std::map<std::string, NetId> nets;
  auto net_id = [&](const std::string& sig) {
    auto it = nets.find(sig);
    if (it != nets.end()) return it->second;
    const NetId id = nl.add_net(sig);
    nets.emplace(sig, id);
    return id;
  };

  // Instantiate cells; remember (cell, pin offset, signal) bindings and
  // attach pins afterwards so singleton/power nets can be filtered.
  struct Binding {
    CellId cell;
    std::string terminal;
    Point offset;
    std::string signal;
  };
  std::vector<Binding> bindings;

  for (const auto& inst : parent->instances) {
    const auto mit = modules.find(inst.module);
    if (mit == modules.end()) {
      report.add(inst.line, 0,
                 "instance " + inst.name + " references unknown module " +
                     inst.module);
      continue;
    }
    const YalModule& proto = mit->second;
    if (proto.type == "PARENT") {
      report.add(inst.line, 0, "cannot instantiate the PARENT module");
      continue;
    }
    if (proto.outline.empty()) {
      report.add(inst.line, 0, "module " + proto.name + " has no DIMENSIONS");
      continue;
    }
    if (inst.signals.size() != proto.terminals.size()) {
      report.add(inst.line, 0,
                 "instance " + inst.name + " binds " +
                     std::to_string(inst.signals.size()) +
                     " signals to module " + proto.name + " with " +
                     std::to_string(proto.terminals.size()) + " terminals");
      continue;
    }

    try {
      // Normalize outline to the origin; shift terminals identically.
      const CellId cell = nl.add_macro_polygon(inst.name, proto.outline);
      Coord min_x = proto.outline[0].x, min_y = proto.outline[0].y;
      for (const Point& v : proto.outline) {
        min_x = std::min(min_x, v.x);
        min_y = std::min(min_y, v.y);
      }
      for (std::size_t k = 0; k < proto.terminals.size(); ++k) {
        const std::string& sig = inst.signals[k];
        if (is_power_signal(sig)) continue;
        bindings.push_back({cell, proto.terminals[k].name,
                            proto.terminals[k].at - Point{min_x, min_y}, sig});
      }
    } catch (const std::exception& e) {
      report.add(inst.line, 0,
                 "instance " + inst.name + ": " + std::string(e.what()));
    }
  }
  if (!report.ok()) return std::nullopt;

  // Filter singleton signals, then attach pins.
  std::map<std::string, int> fanout;
  for (const auto& b : bindings) ++fanout[b.signal];
  std::map<std::string, int> pin_counter;
  for (const auto& b : bindings) {
    if (fanout[b.signal] < 2) continue;
    const int k = pin_counter[b.terminal + "@" +
                              std::to_string(b.cell)]++;
    nl.add_fixed_pin(b.cell, k == 0 ? b.terminal
                                    : b.terminal + "_" + std::to_string(k),
                     net_id(b.signal), b.offset);
  }

  const ValidationReport vr = validate_netlist(nl);
  if (!vr.ok()) {
    report.add(0, 0, "netlist validation failed: " + vr.str());
    return std::nullopt;
  }
  return nl;
}

std::optional<Netlist> parse_yal_string(const std::string& text,
                                        ParseReport& report) {
  std::istringstream is(text);
  return parse_yal(is, report);
}

std::optional<Netlist> parse_yal_file(const std::string& path,
                                      ParseReport& report) {
  std::ifstream in(path);
  if (!in) {
    report.add(0, 0, "cannot open YAL file " + path);
    return std::nullopt;
  }
  return parse_yal(in, report);
}

Netlist parse_yal_string(const std::string& text) {
  ParseReport report;
  std::optional<Netlist> nl = parse_yal_string(text, report);
  if (!nl) throw ParseError(std::move(report));
  return std::move(*nl);
}

Netlist parse_yal_file(const std::string& path) {
  ParseReport report;
  std::optional<Netlist> nl = parse_yal_file(path, report);
  if (!nl) throw ParseError(std::move(report));
  return std::move(*nl);
}

std::string write_yal(const Netlist& nl, const std::string& chip_name) {
  std::ostringstream os;
  for (const auto& cell : nl.cells()) {
    const CellInstance& inst = cell.instances.front();
    os << "MODULE " << cell.name << "_t;\n";
    os << "  TYPE GENERAL;\n";
    // Emit the bounding box as the outline (tile-exact outlines would need
    // a contour walk; the bbox is what the classic benchmarks use for
    // their mostly-rectangular macros).
    os << "  DIMENSIONS 0 0 " << inst.width << " 0 " << inst.width << " "
       << inst.height << " 0 " << inst.height << ";\n";
    os << "  IOLIST;\n";
    for (std::size_t k = 0; k < cell.pins.size(); ++k) {
      const Pin& p = nl.pin(cell.pins[k]);
      // Uncommitted pins are emitted at the bbox center (YAL has no
      // uncommitted-pin concept).
      const Point at = p.commit == PinCommit::kFixed ? inst.pin_offsets[k]
                                                     : Point{inst.width / 2,
                                                             inst.height / 2};
      os << "    " << p.name << " B " << at.x << " " << at.y << " 1 PDIFF;\n";
    }
    os << "  ENDIOLIST;\n";
    os << "ENDMODULE;\n\n";
  }

  os << "MODULE " << chip_name << ";\n";
  os << "  TYPE PARENT;\n";
  os << "  DIMENSIONS 0 0 1 0 1 1 0 1;\n";
  os << "  IOLIST;\n  ENDIOLIST;\n";
  os << "  NETWORK;\n";
  for (const auto& cell : nl.cells()) {
    os << "    " << cell.name << " " << cell.name << "_t";
    for (PinId pid : cell.pins) os << " " << nl.net(nl.pin(pid).net).name;
    os << ";\n";
  }
  os << "  ENDNETWORK;\n";
  os << "ENDMODULE;\n";
  return os.str();
}

}  // namespace tw
