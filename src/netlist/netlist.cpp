#include "netlist/netlist.hpp"

#include <cmath>
#include <stdexcept>

#include "netlist/validate.hpp"

namespace tw {
namespace {

/// Translates tiles so the collective bbox's lower-left corner is at the
/// origin; returns the translation applied.
Point normalize_tiles(std::vector<Rect>& tiles) {
  if (tiles.empty()) throw std::invalid_argument("cell with no tiles");
  const Rect bb = bounding_box(tiles);
  const Point shift{-bb.xlo, -bb.ylo};
  for (auto& t : tiles) t = t.translated(shift);
  return shift;
}

}  // namespace

NetId Netlist::add_net(const std::string& name, double weight_h,
                       double weight_v) {
  Net n;
  n.id = static_cast<NetId>(nets_.size());
  n.name = name;
  n.weight_h = weight_h;
  n.weight_v = weight_v;
  nets_.push_back(std::move(n));
  return nets_.back().id;
}

void Netlist::set_net_weights(NetId net, double weight_h, double weight_v) {
  if (net < 0 || static_cast<std::size_t>(net) >= nets_.size())
    throw std::invalid_argument("set_net_weights: unknown net");
  nets_[static_cast<std::size_t>(net)].weight_h = weight_h;
  nets_[static_cast<std::size_t>(net)].weight_v = weight_v;
}

CellId Netlist::add_macro(const std::string& name, std::vector<Rect> tiles) {
  normalize_tiles(tiles);
  Cell c;
  c.id = static_cast<CellId>(cells_.size());
  c.name = name;
  c.kind = CellKind::kMacro;
  CellInstance inst;
  const Rect bb = bounding_box(tiles);
  inst.tiles = std::move(tiles);
  inst.width = bb.width();
  inst.height = bb.height();
  c.instances.push_back(std::move(inst));
  cells_.push_back(std::move(c));
  return cells_.back().id;
}

CellId Netlist::add_macro_polygon(const std::string& name,
                                  const std::vector<Point>& vertices) {
  return add_macro(name, decompose_rectilinear(vertices));
}

CellId Netlist::add_custom(const std::string& name, Coord target_area,
                           double aspect_lo, double aspect_hi,
                           int sites_per_edge) {
  if (aspect_lo <= 0.0 || aspect_hi < aspect_lo)
    throw std::invalid_argument("add_custom: bad aspect range");
  if (sites_per_edge < 1)
    throw std::invalid_argument("add_custom: need >= 1 pin site per edge");
  Cell c;
  c.id = static_cast<CellId>(cells_.size());
  c.name = name;
  c.kind = CellKind::kCustom;
  c.target_area = target_area;
  c.aspect_lo = aspect_lo;
  c.aspect_hi = aspect_hi;
  c.sites_per_edge = sites_per_edge;
  c.instances.push_back(
      Cell::realize_custom(target_area, std::sqrt(aspect_lo * aspect_hi)));
  cells_.push_back(std::move(c));
  return cells_.back().id;
}

void Netlist::set_discrete_aspects(CellId cell, std::vector<double> aspects) {
  if (aspects.empty())
    throw std::invalid_argument("set_discrete_aspects: empty list");
  Cell& c = mutable_cell(cell);
  if (!c.is_custom())
    throw std::invalid_argument("set_discrete_aspects: not a custom cell");
  c.discrete_aspects = std::move(aspects);
}

InstanceId Netlist::add_instance(CellId cell, std::vector<Rect> tiles,
                                 std::vector<Point> pin_offsets) {
  Cell& c = mutable_cell(cell);
  if (pin_offsets.size() != c.pins.size())
    throw std::invalid_argument(
        "add_instance: need one pin offset per existing pin");
  const Point shift = normalize_tiles(tiles);
  for (auto& p : pin_offsets) p = p + shift;
  CellInstance inst;
  const Rect bb = bounding_box(tiles);
  inst.tiles = std::move(tiles);
  inst.width = bb.width();
  inst.height = bb.height();
  inst.pin_offsets = std::move(pin_offsets);
  c.instances.push_back(std::move(inst));
  return static_cast<InstanceId>(c.instances.size() - 1);
}

PinId Netlist::new_pin(CellId cell, const std::string& name, NetId net) {
  Cell& c = mutable_cell(cell);
  if (net < 0 || static_cast<std::size_t>(net) >= nets_.size())
    throw std::invalid_argument("pin references unknown net");
  Pin p;
  p.id = static_cast<PinId>(pins_.size());
  p.name = name;
  p.cell = cell;
  p.net = net;
  pins_.push_back(p);
  c.pins.push_back(p.id);
  nets_[static_cast<std::size_t>(net)].pins.push_back(p.id);
  return p.id;
}

PinId Netlist::add_fixed_pin(CellId cell, const std::string& name, NetId net,
                             std::vector<Point> offsets_per_instance) {
  Cell& c = mutable_cell(cell);
  if (offsets_per_instance.size() == 1 && c.instances.size() > 1)
    offsets_per_instance.resize(c.instances.size(), offsets_per_instance[0]);
  if (offsets_per_instance.size() != c.instances.size())
    throw std::invalid_argument(
        "add_fixed_pin: need one offset per instance of the cell");
  const PinId id = new_pin(cell, name, net);
  pins_[static_cast<std::size_t>(id)].commit = PinCommit::kFixed;
  for (std::size_t k = 0; k < c.instances.size(); ++k)
    c.instances[k].pin_offsets.push_back(offsets_per_instance[k]);
  return id;
}

PinId Netlist::add_fixed_pin(CellId cell, const std::string& name, NetId net,
                             Point offset) {
  return add_fixed_pin(cell, name, net, std::vector<Point>{offset});
}

PinId Netlist::add_edge_pin(CellId cell, const std::string& name, NetId net,
                            std::uint8_t mask) {
  Cell& c = mutable_cell(cell);
  if (!c.is_custom())
    throw std::invalid_argument("add_edge_pin: uncommitted pins require a custom cell");
  if (mask == 0) throw std::invalid_argument("add_edge_pin: empty side mask");
  const PinId id = new_pin(cell, name, net);
  Pin& p = pins_[static_cast<std::size_t>(id)];
  p.commit = PinCommit::kEdge;
  p.side_mask = mask;
  for (auto& inst : c.instances) inst.pin_offsets.push_back(Point{0, 0});
  return id;
}

GroupId Netlist::add_group(CellId cell, const std::string& name,
                           std::uint8_t mask, bool sequenced) {
  Cell& c = mutable_cell(cell);
  if (!c.is_custom())
    throw std::invalid_argument("add_group: pin groups require a custom cell");
  if (mask == 0) throw std::invalid_argument("add_group: empty side mask");
  PinGroup g;
  g.name = name;
  g.side_mask = mask;
  g.sequenced = sequenced;
  c.groups.push_back(std::move(g));
  return static_cast<GroupId>(c.groups.size() - 1);
}

PinId Netlist::add_group_pin(CellId cell, GroupId group,
                             const std::string& name, NetId net) {
  Cell& c = mutable_cell(cell);
  if (group < 0 || static_cast<std::size_t>(group) >= c.groups.size())
    throw std::invalid_argument("add_group_pin: unknown group");
  PinGroup& g = c.groups[static_cast<std::size_t>(group)];
  const PinId id = new_pin(cell, name, net);
  Pin& p = pins_[static_cast<std::size_t>(id)];
  p.commit = g.sequenced ? PinCommit::kSequenced : PinCommit::kGrouped;
  p.side_mask = g.side_mask;
  p.group = group;
  g.pins.push_back(id);
  for (auto& inst : c.instances) inst.pin_offsets.push_back(Point{0, 0});
  return id;
}

void Netlist::set_equivalent(PinId a, PinId b) {
  Pin& pa = pins_.at(static_cast<std::size_t>(a));
  Pin& pb = pins_.at(static_cast<std::size_t>(b));
  if (pa.net != pb.net)
    throw std::invalid_argument("set_equivalent: pins on different nets");
  if (pa.equiv_class == 0 && pb.equiv_class == 0) {
    pa.equiv_class = pb.equiv_class = next_equiv_class_++;
  } else if (pa.equiv_class == 0) {
    pa.equiv_class = pb.equiv_class;
  } else if (pb.equiv_class == 0) {
    pb.equiv_class = pa.equiv_class;
  } else if (pa.equiv_class != pb.equiv_class) {
    // Merge the two classes.
    const std::int32_t victim = pb.equiv_class;
    for (auto& p : pins_)
      if (p.equiv_class == victim) p.equiv_class = pa.equiv_class;
  }
}

Cell& Netlist::mutable_cell(CellId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= cells_.size())
    throw std::invalid_argument("unknown cell id");
  return cells_[static_cast<std::size_t>(id)];
}

Coord Netlist::total_cell_area() const {
  Coord a = 0;
  for (const auto& c : cells_) a += c.instances.front().area();
  return a;
}

Coord Netlist::total_cell_perimeter() const {
  Coord p = 0;
  for (const auto& c : cells_)
    p += exposed_perimeter(c.instances.front().tiles);
  return p;
}

double Netlist::average_pin_density() const {
  const Coord perim = total_cell_perimeter();
  if (perim == 0) return 0.0;
  return static_cast<double>(pins_.size()) / static_cast<double>(perim);
}

void Netlist::validate() const {
  const ValidationReport r = validate_netlist(*this);
  if (!r.ok()) throw std::runtime_error(r.str());
}

}  // namespace tw
