#include "estimator/wire_estimator.hpp"

#include <cmath>

namespace tw {
namespace {

/// Length-model prefactor kappa (DESIGN.md section 4 item 9). C_W must
/// anticipate the *routed* net length (global-route detours included),
/// which runs about twice the bounding-box lower bound; kappa = 2 makes
/// the end-of-stage-1 chip area match the post-refinement area across the
/// nine reproduction circuits (the Table 3 criterion).
constexpr double kLengthKappa = 2.0;

/// p in (d - 1)^p: multi-pin nets grow sub-linearly with their degree
/// (Sechen's average-interconnection-length model).
constexpr double kDegreeExponent = 0.75;

}  // namespace

WireEstimator::WireEstimator(const Netlist& nl) : nl_(nl) {
  for (const auto& n : nl.nets()) {
    const double d = static_cast<double>(n.degree());
    if (d >= 2.0) degree_sum_ += std::pow(d - 1.0, kDegreeExponent);
  }
  cell_perimeter_ = nl.total_cell_perimeter();
}

double WireEstimator::total_length(double core_area) const {
  const double nc = static_cast<double>(nl_.num_cells());
  if (nc == 0.0) return 0.0;
  const double pitch_len = std::sqrt(core_area / nc);
  return kLengthKappa * pitch_len * degree_sum_;
}

double WireEstimator::total_channel_length(Coord core_w, Coord core_h) const {
  const double cell_part = 0.5 * static_cast<double>(cell_perimeter_);
  const double core_part = static_cast<double>(core_w + core_h);
  return cell_part + core_part;
}

double WireEstimator::channel_width(Coord core_w, Coord core_h) const {
  const double cl = total_channel_length(core_w, core_h);
  if (cl <= 0.0) return 0.0;
  const double nl = total_length(static_cast<double>(core_w) *
                                 static_cast<double>(core_h));
  return nl / cl * static_cast<double>(nl_.tech().track_separation);
}

}  // namespace tw
