// The dynamic interconnect-area estimator (Section 2.2).
//
// TimberWolfMC maintains sufficient interconnect space between cells by
// appending a border around each cell's contour whose thickness is the
// product of three factors:
//   (1) the expected average channel width C_W (Eqn 1, see WireEstimator);
//   (2) a position modulation f_x(x) * f_y(y) — channels near the core
//       center are wider than channels near the corners (Figure 1);
//   (3) the relative pin density f_rp(i) of the cell edge.
//
// The per-edge expansion is (Eqn 2)
//
//     e_w^i = 0.5 * (C_W / alpha) * f_x(x_i) * f_y(y_i) * f_rp(i)
//
// where alpha is the mean of f_x * f_y over the core (Eqn 3; closed form
// ((M+B)/2)^2 in the symmetric case, Eqn 4) so that the *expected*
// expansion is 0.5 C_W.  (The paper's Eqn 2 prints the normalization as a
// multiplication; dividing is the only reading consistent with the stated
// requirement E[e_w] = 0.5 C_W, and is what we implement.)
//
// The expansion is *dynamic*: it depends on where the edge currently sits,
// so cells effectively grow when moved toward the core center and shrink
// when moved toward a corner.
#pragma once

#include <array>

#include "estimator/wire_estimator.hpp"
#include "geom/polygon.hpp"
#include "netlist/netlist.hpp"

namespace tw {

/// Position-dependent channel-width modulation (Section 2.2, factor (2)).
struct Modulation {
  double mx = 2.0;  ///< M_x: factor at the core's vertical centerline
  double bx = 1.0;  ///< B_x: factor at the left/right core edges
  double my = 2.0;
  double by = 1.0;
  Rect core;        ///< current core region (chip coordinates)

  /// f_x evaluated at chip coordinate x (clamped to the core span).
  double fx(Coord x) const;
  /// f_y evaluated at chip coordinate y.
  double fy(Coord y) const;
  /// Mean of f_x * f_y over the core area (Eqns 3-4).
  double alpha() const { return 0.25 * (mx + bx) * (my + by); }
};

class DynamicAreaEstimator {
public:
  explicit DynamicAreaEstimator(const Netlist& nl);

  /// Determines the target core region (Section 2.2, "Determining the Core
  /// Area"): iterates Eqn 5 — cell areas inflated by the maximum-modulation
  /// expansion — until the total effective area is self-consistent with the
  /// channel-width estimate, then divides by the 0.85 packing efficiency
  /// (DESIGN.md section 4 item 7: heterogeneous rectangles never pack
  /// perfectly; without this slack the target core cannot hold an
  /// overlap-free placement at all). The core is a square centered at the
  /// origin. Also installs the result via set_core().
  Rect compute_initial_core();

  /// Installs a core region: updates the modulation extents and C_W.
  void set_core(const Rect& core);
  const Rect& core() const { return mod_.core; }
  const Modulation& modulation() const { return mod_; }
  double channel_width() const { return cw_; }

  /// f_rp (factor (3)) for a local side of a cell instance.
  double pin_density_factor(CellId c, InstanceId k, Side local_side) const;

  /// Expansion e_w for the given *oriented* side of a cell whose side
  /// midpoint currently sits at `mid` (chip coordinates). Rounded up to the
  /// integer grid so the allotted space is never under-counted.
  Coord edge_expansion(CellId c, InstanceId k, Orient o, Side oriented_side,
                       Point mid) const;

  /// Per-side expansions (kLeft, kRight, kBottom, kTop order) for the
  /// oriented bounding box of cell `c` centered at `center`.
  std::array<Coord, 4> side_expansions(CellId c, InstanceId k, Orient o,
                                       Point center) const;

  /// The maximum-modulation expansion of Eqn 5 (used for initial core
  /// sizing, where edge positions are not yet known).
  double nominal_expansion() const;

private:
  /// Fraction of the cell's pins attributed to each local side, divided by
  /// the side length: the edge pin density d_p^i.
  double local_pin_density(CellId c, InstanceId k, Side side) const;

  const Netlist& nl_;
  WireEstimator wire_;
  Modulation mod_;
  double cw_ = 0.0;
  double avg_pin_density_ = 0.0;  ///< D_p
  /// pin-count attributed to each local side, per cell (instance-independent:
  /// computed from the initial instance's geometry and side masks).
  std::vector<std::array<double, 4>> side_pin_count_;
};

}  // namespace tw
