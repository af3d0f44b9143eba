// The overlap penalty engine (Section 3.1.2, Eqns 7-8).
//
// A rectilinear cell is a union of non-overlapping rectangular tiles;
// O(i, j) is the total common area of the tiles of cells i and j, where
// each tile has first been expanded outward by the interconnect-area
// estimate for its cell's sides. Keeping the expanded tiles cached per
// cell makes each pairwise evaluation a handful of rectangle
// intersections.
//
// Core containment (footnote 16) is handled by four conceptual dummy
// cells extending outward from the core sides: a cell's "border overlap"
// is the area of its expanded tiles lying outside the core rectangle.
//
// A uniform-grid spatial index (src/geom/bins.hpp) prunes the pairwise
// work: each cell's expanded-tile bounding box is hashed into the bins it
// covers, and cell_overlap/total_overlap only visit candidate cells that
// share a bin and whose bounding boxes intersect. Pruned pairs have zero
// overlap area by construction, and C2 sums are order-independent
// integers, so the indexed results equal the naive all-pairs scan
// exactly (total_overlap_naive; asserted at full check level).
#pragma once

#include <array>
#include <optional>

#include "estimator/area_estimator.hpp"
#include "geom/bins.hpp"
#include "place/placement.hpp"

namespace tw {

class OverlapEngine {
public:
  /// Dynamic mode (stage 1): expansions come from the estimator and are
  /// refreshed whenever a cell participates in a move.
  OverlapEngine(const Placement& placement, const DynamicAreaEstimator& est);

  /// Static mode (stage 2) or no-expansion mode: per-cell side expansions
  /// fixed by the caller (empty vector -> all zero).
  OverlapEngine(const Placement& placement, Rect core,
                std::vector<std::array<Coord, 4>> static_expansions);

  void set_core(Rect core) { core_ = core; }
  const Rect& core() const { return core_; }

  /// Re-derives cell `c`'s expansion (dynamic mode), re-caches its
  /// expanded absolute tiles, and updates the spatial index. Must be
  /// called after any mutation of the cell's placement state.
  void refresh(CellId c);

  /// Refreshes every cell and rebuilds the index grid from the current
  /// spread of cells (after randomize() or a bulk restore).
  void refresh_all();

  /// O(i, j): overlap area between the expanded tiles of two cells.
  Coord pair_overlap(CellId i, CellId j) const;

  /// Area of cell `c`'s expanded tiles outside the core (the dummy-cell
  /// overlap of footnote 16).
  Coord border_overlap(CellId c) const;

  /// Sum of O(c, j) over all j != c, plus border overlap. Visits only
  /// bin-index candidates; exact (pruned pairs contribute zero).
  Coord cell_overlap(CellId c) const;

  /// Sum over unordered pairs of O(i, j) plus all border overlaps: the raw
  /// (unnormalized) value inside Eqn 7. Indexed; exact.
  Coord total_overlap() const;

  /// Reference all-pairs recomputation of total_overlap(), bypassing the
  /// spatial index. Used by CostAudit checkpoints, the calibration's
  /// first-sample guard, and the equivalence fuzz to prove the index
  /// never prunes a real overlap.
  Coord total_overlap_naive() const;

  /// The expanded tiles currently cached for a cell.
  const std::vector<Rect>& expanded_tiles(CellId c) const {
    return tiles_[static_cast<std::size_t>(c)];
  }

  /// Bounding box of every cell's expanded tiles: the chip the cells and
  /// their interconnect allowances span.
  Rect expanded_chip_bbox() const;

  /// The per-side expansions currently applied to a cell (L, R, B, T).
  const std::array<Coord, 4>& expansions(CellId c) const {
    return expansion_[static_cast<std::size_t>(c)];
  }

  /// Overrides the expansions for one cell (used by stage 2 when channel
  /// densities prescribe the spacing).
  void set_expansions(CellId c, std::array<Coord, 4> e);

  /// Checkpoint of one cell's cached view (expansion, expanded tiles,
  /// bbox). A rejected move rolls the engine back by write-back instead
  /// of re-deriving the estimator expansion and the tile geometry —
  /// valid only when the cell's placement state has been restored to
  /// what it was at save time (MoveTxn's revert contract). The buffer is
  /// caller-owned and reused across moves.
  struct CellCkpt {
    std::array<Coord, 4> expansion{};
    std::vector<Rect> tiles;
    Rect bbox;
  };
  void save_cell(CellId c, CellCkpt& out) const;
  void rollback_cell(CellId c, const CellCkpt& ckpt);

private:
  void recache_tiles(CellId c);
  /// Moves `c` to the bins of its current bbox (after recache_tiles or a
  /// rollback); a no-op when the bin range is unchanged.
  void rebin(CellId c);
  void rebuild_index();
  void bins_insert(CellId c);
  void bins_remove(CellId c);
  /// Collects into cand_ the distinct cells sharing a bin with `c` whose
  /// expanded bboxes intersect c's (excluding c itself).
  void gather_candidates(CellId c) const;

  const Placement* placement_;
  const DynamicAreaEstimator* estimator_ = nullptr;  ///< null in static mode
  Rect core_;
  std::vector<std::array<Coord, 4>> expansion_;
  std::vector<std::vector<Rect>> tiles_;  ///< expanded absolute tiles
  std::vector<Rect> bbox_;                ///< bbox of the expanded tiles

  // --- spatial index ---------------------------------------------------------
  BinGrid grid_;
  std::vector<std::vector<CellId>> bins_;   ///< cells per bin
  std::vector<BinGrid::Range> bin_range_;   ///< bins each cell occupies
  /// Cells whose expanded bbox covers a large fraction of the grid live
  /// in this flat list instead of the bins: at high temperature the
  /// interconnect expansions are fat enough that such a cell would
  /// occupy most bins, making per-bin insert/remove/dedup slower than a
  /// straight scan. Exactness is preserved — normal/normal pairs meet in
  /// the bins, every other pair meets through this list.
  std::vector<CellId> oversize_;
  std::vector<int> oversize_pos_;           ///< index in oversize_, or -1
  mutable std::vector<std::uint32_t> mark_; ///< candidate dedup stamps
  mutable std::uint32_t epoch_ = 0;
  mutable std::vector<CellId> cand_;        ///< candidate scratch
  /// Bbox overlap area per candidate (parallel to cand_). For a pair of
  /// single-tile cells the expanded-tile overlap IS the bbox overlap, so
  /// the area the gather already computed is the final answer.
  mutable std::vector<Coord> cand_area_;
};

}  // namespace tw
