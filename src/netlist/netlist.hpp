// The Netlist: an immutable-after-construction description of the circuit
// to be placed — cells (macro and custom), nets, pins, and the technology
// parameters TimberWolfMC needs (track separation, channel-width modulation
// bounds). All placement state lives in tw::Placement, never here.
#pragma once

#include <string>
#include <vector>

#include "netlist/net.hpp"

namespace tw {

/// Technology / methodology parameters (Section 2.2).
struct TechParams {
  Coord track_separation = 1;  ///< t_s: center-to-center wiring pitch
  double modulation_max = 2.0; ///< M_x = M_y: channel-width factor at core center
  double modulation_min = 1.0; ///< B_x = B_y: factor at the core corners
};

class Netlist {
public:
  // --- construction -------------------------------------------------------

  /// Adds a net; returns its id.
  NetId add_net(const std::string& name, double weight_h = 1.0,
                double weight_v = 1.0);

  /// Sets the per-direction weighting factors h(n), v(n) of a net.
  void set_net_weights(NetId net, double weight_h, double weight_v);

  /// Adds a macro cell with one instance of the given non-overlapping
  /// tiles (local frame; the bbox is normalized to the origin internally).
  CellId add_macro(const std::string& name, std::vector<Rect> tiles);

  /// Adds a macro cell whose outline is a rectilinear polygon.
  CellId add_macro_polygon(const std::string& name,
                           const std::vector<Point>& vertices);

  /// Adds a custom cell with estimated area and a continuous aspect-ratio
  /// range [aspect_lo, aspect_hi] (aspect = height/width). The initial
  /// instance realizes the geometric mean of the range.
  CellId add_custom(const std::string& name, Coord target_area,
                    double aspect_lo, double aspect_hi,
                    int sites_per_edge = 8);

  /// Restricts a custom cell to discrete aspect ratios.
  void set_discrete_aspects(CellId cell, std::vector<double> aspects);

  /// Adds an alternative instance to a macro cell. `pin_offsets` must list
  /// one offset per pin already added to the cell; pins added later must
  /// supply offsets for every instance.
  InstanceId add_instance(CellId cell, std::vector<Rect> tiles,
                          std::vector<Point> pin_offsets);

  /// Adds a fixed-location pin (macro pins; custom case 1). One offset per
  /// existing instance of the cell (a single offset is broadcast).
  PinId add_fixed_pin(CellId cell, const std::string& name, NetId net,
                      std::vector<Point> offsets_per_instance);
  PinId add_fixed_pin(CellId cell, const std::string& name, NetId net,
                      Point offset);

  /// Adds an uncommitted pin restricted to the sides in `mask` (case 2).
  PinId add_edge_pin(CellId cell, const std::string& name, NetId net,
                     std::uint8_t mask = kSideAny);

  /// Creates an (optionally sequenced) pin group on a custom cell (cases
  /// 3-4); pins are then attached with add_group_pin.
  GroupId add_group(CellId cell, const std::string& name, std::uint8_t mask,
                    bool sequenced);
  PinId add_group_pin(CellId cell, GroupId group, const std::string& name,
                      NetId net);

  /// Marks two pins of the same net as electrically equivalent (they join
  /// the same equivalence class, creating one if neither has a class yet).
  void set_equivalent(PinId a, PinId b);

  // --- access --------------------------------------------------------------

  const std::vector<Cell>& cells() const { return cells_; }
  const std::vector<Net>& nets() const { return nets_; }
  const std::vector<Pin>& pins() const { return pins_; }
  const Cell& cell(CellId id) const { return cells_.at(static_cast<std::size_t>(id)); }
  const Net& net(NetId id) const { return nets_.at(static_cast<std::size_t>(id)); }
  const Pin& pin(PinId id) const { return pins_.at(static_cast<std::size_t>(id)); }

  std::size_t num_cells() const { return cells_.size(); }
  std::size_t num_nets() const { return nets_.size(); }
  std::size_t num_pins() const { return pins_.size(); }

  TechParams& tech() { return tech_; }
  const TechParams& tech() const { return tech_; }

  // --- circuit statistics (used by the area estimator) ---------------------

  /// Total cell area over initial instances.
  Coord total_cell_area() const;

  /// Sum of exposed perimeters of all cells (initial instances).
  Coord total_cell_perimeter() const;

  /// Average pin density D_p = (total pins) / (sum of perimeters).
  double average_pin_density() const;

  /// Checks the structural invariants of validate_netlist (tile overlap,
  /// pin offsets inside the bbox, group membership, net degrees, ...).
  /// Throws std::runtime_error carrying its whole report; returns normally
  /// when valid.
  void validate() const;

private:
  Cell& mutable_cell(CellId id);
  PinId new_pin(CellId cell, const std::string& name, NetId net);

  std::vector<Cell> cells_;
  std::vector<Net> nets_;
  std::vector<Pin> pins_;
  TechParams tech_;
  std::int32_t next_equiv_class_ = 1;
};

}  // namespace tw
