#include "estimator/area_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tw {
namespace {

Point outward_normal(Side s) {
  switch (s) {
    case Side::kLeft: return {-1, 0};
    case Side::kRight: return {1, 0};
    case Side::kBottom: return {0, -1};
    case Side::kTop: return {0, 1};
  }
  throw std::logic_error("bad side");
}

Side side_from_normal(Point n) {
  if (n.x < 0) return Side::kLeft;
  if (n.x > 0) return Side::kRight;
  if (n.y < 0) return Side::kBottom;
  return Side::kTop;
}

/// The local side that faces in direction `oriented_side` once the cell is
/// placed with orientation `o`.
Side local_side_of(Orient o, Side oriented_side) {
  const Point n = apply_orient_vec(inverse_orient(o), outward_normal(oriented_side));
  return side_from_normal(n);
}

}  // namespace

double Modulation::fx(Coord x) const {
  const double w = static_cast<double>(core.width());
  if (w <= 0.0) return mx;
  const double cx = 0.5 * static_cast<double>(core.xlo + core.xhi);
  const double rel = std::min(std::abs(static_cast<double>(x) - cx), 0.5 * w);
  return mx - rel * (mx - bx) / (0.5 * w);
}

double Modulation::fy(Coord y) const {
  const double h = static_cast<double>(core.height());
  if (h <= 0.0) return my;
  const double cy = 0.5 * static_cast<double>(core.ylo + core.yhi);
  const double rel = std::min(std::abs(static_cast<double>(y) - cy), 0.5 * h);
  return my - rel * (my - by) / (0.5 * h);
}

DynamicAreaEstimator::DynamicAreaEstimator(const Netlist& nl)
    : nl_(nl), wire_(nl) {
  mod_.mx = mod_.my = nl.tech().modulation_max;
  mod_.bx = mod_.by = nl.tech().modulation_min;
  avg_pin_density_ = nl.average_pin_density();

  // Attribute each cell's pins to local bbox sides.
  side_pin_count_.assign(nl.num_cells(), {0.0, 0.0, 0.0, 0.0});
  for (const auto& c : nl.cells()) {
    auto& counts = side_pin_count_[static_cast<std::size_t>(c.id)];
    const CellInstance& inst = c.instances.front();
    for (std::size_t k = 0; k < c.pins.size(); ++k) {
      const Pin& p = nl.pin(c.pins[k]);
      if (p.commit == PinCommit::kFixed) {
        // Nearest bbox side.
        const Point off = inst.pin_offsets[k];
        const Coord dl = off.x;
        const Coord dr = inst.width - off.x;
        const Coord db = off.y;
        const Coord dt = inst.height - off.y;
        const Coord dmin = std::min({dl, dr, db, dt});
        if (dmin == dl) counts[0] += 1.0;
        else if (dmin == dr) counts[1] += 1.0;
        else if (dmin == db) counts[2] += 1.0;
        else counts[3] += 1.0;
      } else {
        // Uncommitted: spread over the allowed sides (locations only
        // approximately known, Section 2.4).
        const auto sides = sides_in_mask(p.side_mask);
        const double share = 1.0 / static_cast<double>(sides.size());
        for (Side s : sides) counts[static_cast<std::size_t>(side_index(s))] += share;
      }
    }
  }
}

Rect DynamicAreaEstimator::compute_initial_core() {
  // Share of the core the cells can fill (DESIGN.md section 4 item 7).
  constexpr double kPackingEfficiency = 0.85;
  const double cell_area = static_cast<double>(nl_.total_cell_area());
  double area = cell_area * 1.5;  // starting guess; iteration refines it

  Coord w = 1, h = 1;
  for (int iter = 0; iter < 12; ++iter) {
    w = std::max<Coord>(1, static_cast<Coord>(std::llround(std::sqrt(area))));
    h = std::max<Coord>(1, static_cast<Coord>(std::llround(area / static_cast<double>(w))));
    const double cw = wire_.channel_width(w, h);
    // Eqn 5: maximum modulation, unity pin-density factor.
    const double e0 = 0.5 * cw / mod_.alpha() * mod_.mx * mod_.my;
    double eff = 0.0;
    for (const auto& c : nl_.cells()) {
      const CellInstance& inst = c.instances.front();
      eff += (static_cast<double>(inst.width) + 2.0 * e0) *
             (static_cast<double>(inst.height) + 2.0 * e0);
    }
    eff /= kPackingEfficiency;
    if (std::abs(eff - area) < 0.001 * area) {
      area = eff;
      break;
    }
    area = eff;
  }
  w = std::max<Coord>(1, static_cast<Coord>(std::llround(std::sqrt(area))));
  h = std::max<Coord>(1, static_cast<Coord>(std::llround(area / static_cast<double>(w))));

  const Rect core{-w / 2, -h / 2, -w / 2 + w, -h / 2 + h};
  set_core(core);
  return core;
}

void DynamicAreaEstimator::set_core(const Rect& core) {
  if (!core.valid() || core.area() == 0)
    throw std::invalid_argument("set_core: degenerate core");
  mod_.core = core;
  cw_ = wire_.channel_width(core.width(), core.height());
}

double DynamicAreaEstimator::pin_density_factor(CellId c, InstanceId k,
                                                Side local_side) const {
  if (avg_pin_density_ <= 0.0) return 1.0;
  const double d_rp = local_pin_density(c, k, local_side) / avg_pin_density_;
  return std::max(1.0, d_rp);  // f_rp >= 1: every edge gets some space
}

double DynamicAreaEstimator::local_pin_density(CellId c, InstanceId k,
                                               Side side) const {
  const Cell& cell = nl_.cell(c);
  const CellInstance& inst = cell.instances.at(static_cast<std::size_t>(k));
  const Coord len = is_vertical(side) ? inst.height : inst.width;
  if (len <= 0) return 0.0;
  const double count =
      side_pin_count_[static_cast<std::size_t>(c)][static_cast<std::size_t>(side_index(side))];
  return count / static_cast<double>(len);
}

Coord DynamicAreaEstimator::edge_expansion(CellId c, InstanceId k, Orient o,
                                           Side oriented_side,
                                           Point mid) const {
  const Side local = local_side_of(o, oriented_side);
  const double frp = pin_density_factor(c, k, local);
  const double e = 0.5 * cw_ / mod_.alpha() * mod_.fx(mid.x) * mod_.fy(mid.y) * frp;
  return static_cast<Coord>(std::ceil(std::max(0.0, e)));
}

std::array<Coord, 4> DynamicAreaEstimator::side_expansions(CellId c,
                                                           InstanceId k,
                                                           Orient o,
                                                           Point center) const {
  const Cell& cell = nl_.cell(c);
  const CellInstance& inst = cell.instances.at(static_cast<std::size_t>(k));
  const Coord ow = oriented_width(o, inst.width, inst.height);
  const Coord oh = oriented_height(o, inst.width, inst.height);
  const Coord xlo = center.x - ow / 2;
  const Coord ylo = center.y - oh / 2;
  const Point mid_l{xlo, ylo + oh / 2};
  const Point mid_r{xlo + ow, ylo + oh / 2};
  const Point mid_b{xlo + ow / 2, ylo};
  const Point mid_t{xlo + ow / 2, ylo + oh};
  return {edge_expansion(c, k, o, Side::kLeft, mid_l),
          edge_expansion(c, k, o, Side::kRight, mid_r),
          edge_expansion(c, k, o, Side::kBottom, mid_b),
          edge_expansion(c, k, o, Side::kTop, mid_t)};
}

double DynamicAreaEstimator::nominal_expansion() const {
  return 0.5 * cw_ / mod_.alpha() * mod_.mx * mod_.my;
}

}  // namespace tw
