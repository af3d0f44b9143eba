#include "place/legalize.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

namespace tw {

namespace {

/// Every cell's absolute tiles, stored flat, and their bounding box, for
/// one legalizer call. Legalization moves only centers, so a cell's tile
/// shapes stay fixed for the call and a move translates its entry by the
/// center's delta: exactly what Placement::absolute_tiles would return,
/// without a fresh heap vector per query.
class TileCache {
public:
  explicit TileCache(const Placement& placement) {
    const std::size_t n = placement.netlist().num_cells();
    first_.reserve(n + 1);
    bound_.reserve(n);
    first_.push_back(0);
    for (CellId c = 0; static_cast<std::size_t>(c) < n; ++c) {
      const std::vector<Rect> t = placement.absolute_tiles(c);
      tiles_.insert(tiles_.end(), t.begin(), t.end());
      first_.push_back(tiles_.size());
      bound_.push_back(bounding_box(t));
    }
  }

  CellId size() const { return static_cast<CellId>(bound_.size()); }

  std::span<const Rect> tiles(CellId c) const {
    const auto i = static_cast<std::size_t>(c);
    return {tiles_.data() + first_[i], first_[i + 1] - first_[i]};
  }

  /// Bounding box of the cell's tiles. A tile inflated by m lies inside
  /// its cell's bound inflated by m, so two cells whose inflated bounds do
  /// not overlap have no tile pair that does: the loops below skip them,
  /// and every tile test skipped would have returned 0 or false.
  const Rect& bound(CellId c) const {
    return bound_[static_cast<std::size_t>(c)];
  }

  /// Moves cell `c` by `d`, and its cached tiles with it.
  void shift(Placement& placement, CellId c, Point d) {
    placement.set_center(c, placement.state(c).center + d);
    const auto i = static_cast<std::size_t>(c);
    for (std::size_t k = first_[i]; k < first_[i + 1]; ++k)
      tiles_[k] = tiles_[k].translated(d);
    bound_[i] = bound_[i].translated(d);
  }

private:
  std::vector<std::size_t> first_;  ///< cell c: tiles_[first_[c], first_[c+1])
  std::vector<Rect> tiles_;
  std::vector<Rect> bound_;
};

/// Pairwise tile overlap with every tile inflated by `m` (0: the bare
/// overlap).
Coord pair_overlap_sum(const TileCache& cache, Coord m) {
  const CellId n = cache.size();
  Coord sum = 0;
  for (CellId i = 0; i < n; ++i)
    for (CellId j = static_cast<CellId>(i + 1); j < n; ++j) {
      if (!cache.bound(i).inflated(m).overlaps(cache.bound(j).inflated(m)))
        continue;
      for (const Rect& a : cache.tiles(i))
        for (const Rect& b : cache.tiles(j))
          sum += a.inflated(m).overlap_area(b.inflated(m));
    }
  return sum;
}

bool relocate_overlapping(TileCache& cache, Placement& placement,
                          const Rect& core, Coord margin) {
  const CellId n = cache.size();

  auto cell_overlap = [&](CellId c) {
    Coord sum = 0;
    for (CellId o = 0; o < n; ++o) {
      if (o == c || !cache.bound(c).overlaps(cache.bound(o))) continue;
      for (const Rect& a : cache.tiles(c))
        for (const Rect& b : cache.tiles(o)) sum += a.overlap_area(b);
    }
    return sum;
  };

  /// Would cell `c` centered at `pos` sit margin-clear of every other cell
  /// and inside the core?
  auto fits_at = [&](CellId c, Point pos) {
    const Point d = pos - placement.state(c).center;
    for (const Rect& t : cache.tiles(c))
      if (!core.contains(t.translated(d))) return false;
    const Rect moved = cache.bound(c).translated(d).inflated(margin);
    for (CellId o = 0; o < n; ++o) {
      if (o == c || !moved.overlaps(cache.bound(o))) continue;
      for (const Rect& t : cache.tiles(c)) {
        const Rect tm = t.translated(d).inflated(margin);
        for (const Rect& ot : cache.tiles(o))
          if (tm.overlaps(ot)) return false;
      }
    }
    return true;
  };

  bool all_fixed = true;
  for (CellId c = 0; c < n; ++c) {
    if (cell_overlap(c) == 0) continue;
    const Point cur = placement.state(c).center;
    const Rect bb = placement.bbox(c);

    // Candidate scan, nearest fitting position wins. Three passes bound
    // the work on large cores: a fine lattice near the cell (pockets just
    // big enough are pitch-sensitive), then coarse and half-coarse
    // lattices over the whole core.
    const Coord fine = std::max<Coord>(
        {Coord{1}, margin, std::min(bb.width(), bb.height()) / 16});
    const Coord coarse =
        std::max<Coord>(2 * fine, std::min(bb.width(), bb.height()) / 4);
    const Rect local{cur.x - 2 * bb.width(), cur.y - 2 * bb.height(),
                     cur.x + 2 * bb.width(), cur.y + 2 * bb.height()};
    struct Scan {
      Rect area;
      Coord step;
    };
    const Scan scans[] = {{local.intersect(core), fine},
                          {core, coarse},
                          {core, std::max<Coord>(fine, coarse / 2)}};

    bool placed = false;
    for (const Scan& scan : scans) {
      if (!scan.area.valid()) continue;
      Point best = cur;
      Coord best_dist = -1;
      for (Coord cx = scan.area.xlo; cx <= scan.area.xhi; cx += scan.step) {
        for (Coord cy = scan.area.ylo; cy <= scan.area.yhi; cy += scan.step) {
          const Point cand{cx, cy};
          const Coord d = manhattan(cur, cand);
          if (best_dist >= 0 && d >= best_dist) continue;
          if (fits_at(c, cand)) {
            best = cand;
            best_dist = d;
          }
        }
      }
      if (best_dist >= 0) {
        cache.shift(placement, c, best - cur);
        placed = true;
        break;
      }
    }
    if (!placed) all_fixed = false;
  }
  return all_fixed && pair_overlap_sum(cache, 0) == 0;
}

}  // namespace

Coord bare_overlap(const Placement& placement) {
  return pair_overlap_sum(TileCache(placement), 0);
}

LegalizeResult legalize_spread(Placement& placement, const Rect& core,
                               Coord margin) {
  // At most this many sweeps; a spread that stops making progress ends
  // sooner (the stall test below).
  constexpr int kMaxSweeps = 300;
  TileCache cache(placement);
  LegalizeResult result;
  result.initial_overlap = pair_overlap_sum(cache, 0);

  const CellId n = cache.size();
  const Coord m2 = (margin + 1) / 2;  // per-cell share of the margin

  // Progress is measured on the quantity the sweeps actually optimize:
  // overlap of the margin-inflated tiles.
  Coord best_seen = pair_overlap_sum(cache, m2);
  int stalled = 0;
  for (int iter = 0; iter < kMaxSweeps; ++iter) {
    // Stop early when the sweeps cycle without progress — continuing only
    // random-walks the cells and degrades the wirelength.
    if (iter % 5 == 4) {
      const Coord now = pair_overlap_sum(cache, m2);
      if (now == 0) break;
      if (now < best_seen) {
        best_seen = now;
        stalled = 0;
      } else if (++stalled >= 3) {
        break;
      }
    }
    bool moved = false;

    // Clamp into the (margin-shrunk) core first so separations push
    // against a fixed wall.
    const Rect wall = core.inflated(-m2);
    for (CellId c = 0; c < n; ++c) {
      const Rect bb = placement.bbox(c);
      Coord dx = 0, dy = 0;
      if (bb.xlo < wall.xlo) dx = wall.xlo - bb.xlo;
      if (bb.xhi > wall.xhi) dx = wall.xhi - bb.xhi;
      if (bb.ylo < wall.ylo) dy = wall.ylo - bb.ylo;
      if (bb.yhi > wall.yhi) dy = wall.yhi - bb.yhi;
      if (dx != 0 || dy != 0) {
        cache.shift(placement, c, {dx, dy});
        moved = true;
      }
    }

    // Pairs go in index order and each separation moves its cells before
    // the next pair is tested, so the order is part of the result.
    for (CellId i = 0; i < n; ++i) {
      for (CellId j = static_cast<CellId>(i + 1); j < n; ++j) {
        if (!cache.bound(i).inflated(m2).overlaps(cache.bound(j).inflated(m2)))
          continue;
        // Deepest colliding tile pair (with the margin applied), measured
        // by the smaller of its two axis penetrations. Tile-level
        // penetration keeps moves small for rectilinear cells, whose
        // bounding boxes can overlap legally.
        Coord sep_x = 0, sep_y = 0;
        for (const Rect& ta : cache.tiles(i)) {
          const Rect am = ta.inflated(m2);
          for (const Rect& tb : cache.tiles(j)) {
            const Rect bm = tb.inflated(m2);
            const Coord px = std::min(am.xhi, bm.xhi) - std::max(am.xlo, bm.xlo);
            const Coord py = std::min(am.yhi, bm.yhi) - std::max(am.ylo, bm.ylo);
            if (px <= 0 || py <= 0) continue;
            if (px <= py) {
              sep_x = std::max(sep_x, px);
            } else {
              sep_y = std::max(sep_y, py);
            }
          }
        }
        if (sep_x == 0 && sep_y == 0) continue;

        moved = true;
        const Rect a = placement.bbox(i);
        const Rect b = placement.bbox(j);
        // Separate along the axis needing the smaller nonzero move.
        if (sep_x != 0 && (sep_y == 0 || sep_x <= sep_y)) {
          const Coord half = (sep_x + 1) / 2;
          const Coord dir = a.center().x <= b.center().x ? 1 : -1;
          cache.shift(placement, i, {-dir * half, 0});
          cache.shift(placement, j, {dir * (sep_x - half), 0});
        } else {
          const Coord half = (sep_y + 1) / 2;
          const Coord dir = a.center().y <= b.center().y ? 1 : -1;
          cache.shift(placement, i, {0, -dir * half});
          cache.shift(placement, j, {0, dir * (sep_y - half)});
        }
      }
    }

    ++result.iterations;
    if (!moved) break;
  }
  result.final_overlap = pair_overlap_sum(cache, 0);

  if (result.final_overlap > 0) {
    // The spreading pass can cycle in tightly packed clusters (a cell
    // squeezed wall-to-wall between neighbors). Escalate gently: move each
    // still-overlapping cell to the nearest free pocket that fits it.
    relocate_overlapping(cache, placement, core, margin);
    result.final_overlap = pair_overlap_sum(cache, 0);
  }
  // The row repack is destructive (it rebuilds the whole arrangement), so
  // it is reserved for substantial failures; sliver overlaps — well under
  // the area a detailed router absorbs in one channel — are tolerated.
  const Coord tolerance =
      std::max<Coord>(1, placement.netlist().total_cell_area() / 50);
  if (result.final_overlap > tolerance) {
    legalize_repack(placement, core, margin);
    result.repacked = true;
    result.final_overlap = bare_overlap(placement);
  }
  return result;
}

bool relocate_overlapping(Placement& placement, const Rect& core,
                          Coord margin) {
  TileCache cache(placement);
  return relocate_overlapping(cache, placement, core, margin);
}
void legalize_repack(Placement& placement, const Rect& core, Coord margin) {
  const auto n = placement.netlist().num_cells();
  if (n == 0) return;

  std::vector<CellId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](CellId a, CellId b) {
    const Point ca = placement.state(a).center;
    const Point cb = placement.state(b).center;
    if (ca.y != cb.y) return ca.y < cb.y;
    return ca.x < cb.x;
  });
  const auto rows = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(std::sqrt(static_cast<double>(n)))));
  const std::size_t per_row = (n + rows - 1) / rows;

  Coord y = core.ylo + margin;
  for (std::size_t r = 0; r * per_row < n; ++r) {
    const std::size_t lo = r * per_row;
    const std::size_t hi = std::min(n, (r + 1) * per_row);
    std::sort(order.begin() + static_cast<std::ptrdiff_t>(lo),
              order.begin() + static_cast<std::ptrdiff_t>(hi),
              [&](CellId a, CellId b) {
                return placement.state(a).center.x < placement.state(b).center.x;
              });
    Coord x = core.xlo + margin;
    Coord row_h = 0;
    for (std::size_t k = lo; k < hi; ++k) {
      const CellId c = order[k];
      const CellInstance& g = placement.geometry(c);
      const CellState& st = placement.state(c);
      const Coord w = oriented_width(st.orient, g.width, g.height);
      const Coord h = oriented_height(st.orient, g.width, g.height);
      placement.set_center(c, Point{x + w / 2, y + h / 2});
      x += w + margin;
      row_h = std::max(row_h, h);
    }
    y += row_h + margin;
  }
}

}  // namespace tw
