// A-priori interconnect statistics (Section 2.2, factor (1)).
//
// The expected average channel width (Eqn 1)
//
//     C_W = (N_L / C_L) * t_s
//
// requires an estimate N_L of the final total interconnect length and an
// estimate C_L of the total channel length before any placement exists.
//
//  * N_L follows Sechen's average-interconnection-length model for
//    *optimized* placements (ICCAD'87 / dissertation ch. 5): the expected
//    bounding-box length of a net grows with the core dimension and, for
//    multi-pin nets, sub-linearly with the net degree. We use
//        l(n) = kappa * sqrt(A_core / N_c) * (d(n) - 1)^p
//    with p = 0.75 and kappa = 2 (calibrated, DESIGN.md section 4 item 9;
//    both constants are in wire_estimator.cpp). The exact constants only
//    scale C_W, and the dynamic estimator's accuracy is measured
//    end-to-end by the Table 3 experiment.
//  * C_L: every routing channel is bordered by exactly two cell edges (or
//    one cell edge and the core boundary), so the total channel length is
//    approximately half the total exposed cell perimeter plus half the
//    core perimeter.
#pragma once

#include "netlist/netlist.hpp"

namespace tw {

class WireEstimator {
public:
  explicit WireEstimator(const Netlist& nl);

  /// Expected final total interconnect length N_L for a core of the given
  /// area.
  double total_length(double core_area) const;

  /// Expected total channel length C_L for a core of the given dimensions.
  double total_channel_length(Coord core_w, Coord core_h) const;

  /// Expected average channel width C_W (Eqn 1).
  double channel_width(Coord core_w, Coord core_h) const;

private:
  const Netlist& nl_;
  double degree_sum_ = 0.0;    ///< sum over nets of (d-1)^p
  Coord cell_perimeter_ = 0;   ///< total exposed cell perimeter
};

}  // namespace tw
