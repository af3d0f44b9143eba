// Rectilinear polygons and tile-set boundary analysis.
//
// TimberWolfMC accepts cells of any rectilinear shape and represents each
// as a union of non-overlapping rectangular tiles. This module provides
//   * the polygon -> tile decomposition used when reading cell geometry,
//   * extraction of the *exposed* boundary edges of a tile set (the cell
//     contour), which both the interconnect-area estimator (pin density per
//     edge, Section 2.2) and the channel-definition algorithm (Section 4.1)
//     operate on.
#pragma once

#include <vector>

#include "geom/point.hpp"
#include "geom/rect.hpp"

namespace tw {

/// Which direction the outward normal of a boundary edge points.
enum class Side : std::uint8_t { kLeft, kRight, kBottom, kTop };

/// 0..3 in declaration order: the index of per-side arrays (L, R, B, T).
inline int side_index(Side s) { return static_cast<int>(s); }

inline bool is_vertical(Side s) { return s == Side::kLeft || s == Side::kRight; }
const char* to_string(Side s);
/// The side facing this one (kLeft <-> kRight, kBottom <-> kTop).
Side opposite(Side s);

/// One maximal exposed edge segment of a tile set.
/// For a vertical edge (kLeft/kRight) `pos` is the x coordinate and `span`
/// the y extent; for a horizontal edge (kBottom/kTop) `pos` is the y
/// coordinate and `span` the x extent.
struct BoundaryEdge {
  Side side;
  Coord pos;
  Span span;

  friend bool operator==(const BoundaryEdge&, const BoundaryEdge&) = default;

  Coord length() const { return span.length(); }
  /// Midpoint of the edge segment.
  Point midpoint() const {
    const Coord m = (span.lo + span.hi) / 2;
    return is_vertical(side) ? Point{pos, m} : Point{m, pos};
  }
};

/// Decomposes a simple rectilinear polygon (vertex list, either winding
/// direction, no self-intersections, axis-parallel edges only) into
/// non-overlapping tiles using horizontal slab decomposition, then merges
/// vertically stackable tiles. Throws std::invalid_argument on degenerate
/// input (fewer than 4 vertices or a non-rectilinear edge).
std::vector<Rect> decompose_rectilinear(const std::vector<Point>& vertices);

/// Subtracts `covers` from `base`, returning the uncovered sub-spans in
/// ascending order. Zero-length results are dropped.
std::vector<Span> subtract_spans(const Span& base,
                                 const std::vector<Span>& covers);

/// Computes the exposed boundary edges of a set of non-overlapping tiles:
/// each tile side is reported minus the portions where another tile of the
/// same set abuts it. Adjacent collinear segments are merged.
std::vector<BoundaryEdge> exposed_edges(const std::vector<Rect>& tiles);

/// Total exposed boundary length (the cell perimeter used to compute the
/// average pin density D_p in Section 2.2).
Coord exposed_perimeter(const std::vector<Rect>& tiles);

}  // namespace tw
