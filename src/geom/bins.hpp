// Uniform-grid binning over the integer layout grid.
//
// The overlap engine's spatial index (src/place/overlap.*) hashes each
// cell's expanded-tile bounding box into the grid bins it covers, so a
// pairwise-overlap query only visits cells sharing a bin. The bin math
// lives here because it is pure integer geometry: coordinates outside the
// grid extent clamp into the boundary bins, which keeps every query
// conservative (a clamped cell is seen by *more* candidates, never
// fewer), so pruning by bins is exact for any cell position.
#pragma once

#include "geom/rect.hpp"

namespace tw {

/// A fixed uniform grid of nx * ny bins tiling `extent`. Bin (0, 0) is the
/// lower-left; all lookups clamp, so any Coord maps to a valid bin.
struct BinGrid {
  Rect extent;       ///< region tiled by the bins
  Coord bin_w = 1;   ///< bin width  (>= 1)
  Coord bin_h = 1;   ///< bin height (>= 1)
  int nx = 1;        ///< bins along x (>= 1)
  int ny = 1;        ///< bins along y (>= 1)

  /// Inclusive bin-index ranges covered by a rectangle (clamped).
  struct Range {
    int x0 = 0;
    int x1 = 0;
    int y0 = 0;
    int y1 = 0;

    friend bool operator==(const Range&, const Range&) = default;
  };

  /// Builds a grid over `extent` with bins of roughly `target_bin` span
  /// per axis, capped at `max_per_axis` bins per axis. Degenerate extents
  /// and non-positive targets yield a single bin.
  static BinGrid make(const Rect& extent, Coord target_bin, int max_per_axis);

  /// Bin column of `x`, clamped to [0, nx).
  int x_of(Coord x) const;

  /// Bin row of `y`, clamped to [0, ny).
  int y_of(Coord y) const;

  /// Bins covered by `r` (clamped). An invalid rectangle maps to the
  /// single bin of its (xlo, ylo) corner.
  Range range(const Rect& r) const;

  int index(int bx, int by) const { return by * nx + bx; }
  int num_bins() const { return nx * ny; }
};

}  // namespace tw
