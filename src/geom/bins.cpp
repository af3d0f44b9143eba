#include "geom/bins.hpp"

#include <algorithm>

namespace tw {

BinGrid BinGrid::make(const Rect& extent, Coord target_bin, int max_per_axis) {
  BinGrid g;
  g.extent = extent;
  max_per_axis = std::max(1, max_per_axis);
  target_bin = std::max<Coord>(1, target_bin);

  const Coord w = extent.width();
  const Coord h = extent.height();
  g.nx = static_cast<int>(
      std::clamp<Coord>(w / target_bin, 1, static_cast<Coord>(max_per_axis)));
  g.ny = static_cast<int>(
      std::clamp<Coord>(h / target_bin, 1, static_cast<Coord>(max_per_axis)));
  // ceil(span / n), floored at 1 so index math never divides by zero.
  g.bin_w = std::max<Coord>(1, (w + g.nx - 1) / g.nx);
  g.bin_h = std::max<Coord>(1, (h + g.ny - 1) / g.ny);
  return g;
}

int BinGrid::x_of(Coord x) const {
  if (x <= extent.xlo) return 0;
  const Coord k = (x - extent.xlo) / bin_w;
  return static_cast<int>(std::min<Coord>(k, nx - 1));
}

int BinGrid::y_of(Coord y) const {
  if (y <= extent.ylo) return 0;
  const Coord k = (y - extent.ylo) / bin_h;
  return static_cast<int>(std::min<Coord>(k, ny - 1));
}

BinGrid::Range BinGrid::range(const Rect& r) const {
  Range out;
  out.x0 = x_of(r.xlo);
  out.y0 = y_of(r.ylo);
  if (!r.valid()) {
    out.x1 = out.x0;
    out.y1 = out.y0;
    return out;
  }
  out.x1 = x_of(r.xhi);
  out.y1 = y_of(r.yhi);
  return out;
}

}  // namespace tw
