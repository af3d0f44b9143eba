#include "netlist/validate.hpp"

#include <sstream>
#include <string>
#include <vector>

#include "netlist/pin_sites.hpp"

namespace tw {
namespace {

using check_detail::add_issue;

std::string cell_label(const Cell& c) {
  std::ostringstream os;
  os << "cell " << c.id << " '" << c.name << "'";
  return os.str();
}

/// "<kind> <index> '<name>'", e.g. "net 7 'clk'". Built only for an issue.
std::string label(const char* kind, std::size_t index,
                  const std::string& name) {
  return std::string(kind) + " " + std::to_string(index) + " '" + name + "'";
}

}  // namespace

ValidationReport validate_netlist(const Netlist& nl) {
  ValidationReport r;
  const auto num_cells = static_cast<std::size_t>(nl.num_cells());
  const auto num_nets = static_cast<std::size_t>(nl.num_nets());
  const auto num_pins = static_cast<std::size_t>(nl.num_pins());
  const auto pin_ok = [&](PinId pid) {
    return pid >= 0 && static_cast<std::size_t>(pid) < num_pins;
  };

  for (std::size_t ci = 0; ci < num_cells; ++ci) {
    const Cell& c = nl.cells()[ci];
    if (c.id != static_cast<CellId>(ci))
      add_issue(r, cell_label(c), "id ", c.id, " != index ", ci);
    if (c.instances.empty()) {
      add_issue(r, cell_label(c), "no instances");
      continue;
    }
    for (std::size_t k = 0; k < c.instances.size(); ++k) {
      const CellInstance& inst = c.instances[k];
      if (inst.pin_offsets.size() != c.pins.size())
        add_issue(r, cell_label(c), "instance ", k, " has ",
                  inst.pin_offsets.size(), " pin offsets for ",
                  c.pins.size(), " pins");
      if (inst.tiles.empty()) {
        add_issue(r, cell_label(c), "instance ", k, " has no tiles");
        continue;
      }
      for (std::size_t i = 0; i < inst.tiles.size(); ++i) {
        const Rect& ti = inst.tiles[i];
        if (!ti.valid() || ti.area() == 0)
          add_issue(r, cell_label(c), "instance ", k, " tile ", i,
                    " is degenerate: ", ti.str());
        for (std::size_t j = i + 1; j < inst.tiles.size(); ++j)
          if (ti.overlaps(inst.tiles[j]))
            add_issue(r, cell_label(c), "instance ", k, " tiles ", i, " and ",
                      j, " overlap: ", ti.str(), " vs ",
                      inst.tiles[j].str());
      }
      const Rect bb = bounding_box(inst.tiles);
      if (bb.xlo != 0 || bb.ylo != 0)
        add_issue(r, cell_label(c), "instance ", k, " bbox ", bb.str(),
                  " is not at the origin");
      if (inst.pin_offsets.size() != c.pins.size()) continue;
      for (std::size_t slot = 0; slot < c.pins.size(); ++slot) {
        const PinId pid = c.pins[slot];
        if (!pin_ok(pid) || nl.pin(pid).commit != PinCommit::kFixed) continue;
        const Point off = inst.pin_offsets[slot];
        if (!bb.contains(off))
          add_issue(r, cell_label(c), "instance ", k, " fixed pin ", pid,
                    " '", nl.pin(pid).name, "' at (", off.x, ", ", off.y,
                    ") outside bbox ", bb.str());
      }
    }
    for (PinId pid : c.pins) {
      if (!pin_ok(pid)) {
        add_issue(r, cell_label(c), "pin id ", pid, " out of range");
        continue;
      }
      if (nl.pin(pid).cell != c.id)
        add_issue(r, cell_label(c), "pin ", pid, " claims cell ",
                  nl.pin(pid).cell);
    }
    for (std::size_t gi = 0; gi < c.groups.size(); ++gi) {
      const PinGroup& g = c.groups[gi];
      if (g.side_mask == 0)
        add_issue(r, cell_label(c), "group ", gi, " has empty side mask");
      for (PinId pid : g.pins) {
        if (!pin_ok(pid) || nl.pin(pid).cell != c.id)
          add_issue(r, cell_label(c), "group ", gi, " member pin ", pid,
                    " is not a pin of this cell");
        else if (nl.pin(pid).group != static_cast<GroupId>(gi))
          add_issue(r, cell_label(c), "group ", gi, " member pin ", pid,
                    " claims group ", nl.pin(pid).group);
      }
    }
    if (c.is_custom()) {
      if (c.aspect_lo <= 0.0 || c.aspect_hi < c.aspect_lo)
        add_issue(r, cell_label(c), "bad aspect range [", c.aspect_lo, ", ",
                  c.aspect_hi, "]");
      for (double a : c.discrete_aspects)
        if (a <= 0.0)
          add_issue(r, cell_label(c), "non-positive discrete aspect ", a);
      if (c.sites_per_edge < 1)
        add_issue(r, cell_label(c), "sites_per_edge=", c.sites_per_edge);
      // Pin-site capacity: the initial realization's sites must be able to
      // hold every uncommitted pin (otherwise C3 can never reach zero).
      int uncommitted = 0;
      for (PinId pid : c.pins)
        if (pin_ok(pid) && !nl.pin(pid).committed()) ++uncommitted;
      if (uncommitted > 0 && c.sites_per_edge >= 1) {
        const auto sites =
            make_pin_sites(c.instances.front(), c.sites_per_edge,
                           nl.tech().track_separation);
        long long capacity = 0;
        for (const PinSite& s : sites) capacity += s.capacity;
        if (capacity < uncommitted)
          add_issue(r, cell_label(c), "pin-site capacity ", capacity,
                    " cannot hold ", uncommitted, " uncommitted pins");
      }
    }
  }

  // Whether each pin is listed by the cell and the net it names, from one
  // pass over every list: searching the lists per pin would cost d^2 on a
  // hub net of degree d, and hub nets list thousands of pins.
  std::vector<char> in_cell(num_pins, 0);
  std::vector<char> in_net(num_pins, 0);
  for (std::size_t ci = 0; ci < num_cells; ++ci)
    for (PinId pid : nl.cells()[ci].pins)
      if (pin_ok(pid) && nl.pin(pid).cell == static_cast<CellId>(ci))
        in_cell[static_cast<std::size_t>(pid)] = 1;
  for (std::size_t ni = 0; ni < num_nets; ++ni)
    for (PinId pid : nl.nets()[ni].pins)
      if (pin_ok(pid) && nl.pin(pid).net == static_cast<NetId>(ni))
        in_net[static_cast<std::size_t>(pid)] = 1;

  for (std::size_t pi = 0; pi < num_pins; ++pi) {
    const Pin& p = nl.pins()[pi];
    if (p.id != static_cast<PinId>(pi))
      add_issue(r, label("pin", pi, p.name), "id ", p.id, " != index ", pi);
    if (p.cell < 0 || static_cast<std::size_t>(p.cell) >= num_cells)
      add_issue(r, label("pin", pi, p.name), "cell ", p.cell,
                " out of range");
    else if (in_cell[pi] == 0)
      add_issue(r, label("pin", pi, p.name), "not listed by its cell ",
                p.cell);
    if (p.net < 0 || static_cast<std::size_t>(p.net) >= num_nets)
      add_issue(r, label("pin", pi, p.name), "net ", p.net, " out of range");
    else if (in_net[pi] == 0)
      add_issue(r, label("pin", pi, p.name), "not listed by its net ", p.net);
    if (p.commit != PinCommit::kFixed && p.side_mask == 0)
      add_issue(r, label("pin", pi, p.name),
                "uncommitted pin with empty side mask");
  }

  for (std::size_t ni = 0; ni < num_nets; ++ni) {
    const Net& n = nl.nets()[ni];
    if (n.id != static_cast<NetId>(ni))
      add_issue(r, label("net", ni, n.name), "id ", n.id, " != index ", ni);
    if (n.degree() < 2)
      add_issue(r, label("net", ni, n.name), "degree ", n.degree(), " < 2");
    if (n.weight_h < 0.0 || n.weight_v < 0.0)
      add_issue(r, label("net", ni, n.name), "negative weight h=", n.weight_h,
                " v=", n.weight_v);
    for (PinId pid : n.pins)
      if (!pin_ok(pid) || nl.pin(pid).net != n.id)
        add_issue(r, label("net", ni, n.name), "member pin ", pid,
                  " does not reference this net");
  }
  return r;
}

}  // namespace tw
