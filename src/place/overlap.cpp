#include "place/overlap.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "check/contracts.hpp"

namespace tw {

namespace {

/// Bin-axis cap as a function of circuit size. 64x64 = 4096 bins keeps
/// the index footprint small with single-digit candidates per bin up to
/// ~1k cells; past that a fixed cap would pack ~n/4096 cells into every
/// bin and the candidate sweep would degrade toward quadratic. Scaling
/// the cap with 2*sqrt(n) holds per-bin occupancy roughly constant
/// through the SoC tiers (1k-10k cells), with a 256 ceiling bounding the
/// grid at 64k bins. Circuits at or below 1024 cells get the historic 64,
/// so existing placements and fingerprints are untouched.
int max_bins_per_axis(std::size_t num_cells) {
  const double want = 2.0 * std::sqrt(static_cast<double>(num_cells));
  return std::clamp(static_cast<int>(want), 64, 256);
}

}  // namespace

OverlapEngine::OverlapEngine(const Placement& placement,
                             const DynamicAreaEstimator& est)
    : placement_(&placement), estimator_(&est), core_(est.core()) {
  const std::size_t n = placement.netlist().num_cells();
  expansion_.assign(n, {0, 0, 0, 0});
  tiles_.resize(n);
  bbox_.assign(n, Rect{});
  refresh_all();
}

OverlapEngine::OverlapEngine(const Placement& placement, Rect core,
                             std::vector<std::array<Coord, 4>> static_expansions)
    : placement_(&placement), core_(core) {
  const std::size_t n = placement.netlist().num_cells();
  if (static_expansions.empty()) static_expansions.assign(n, {0, 0, 0, 0});
  if (static_expansions.size() != n)
    throw std::invalid_argument("OverlapEngine: expansion count mismatch");
  expansion_ = std::move(static_expansions);
  tiles_.resize(n);
  bbox_.assign(n, Rect{});
  refresh_all();
}

void OverlapEngine::refresh(CellId c) {
  TW_ASSERT(c >= 0 && static_cast<std::size_t>(c) < tiles_.size(),
            "cell=", c, " of ", tiles_.size());
  if (estimator_) {
    const CellState& st = placement_->state(c);
    expansion_[static_cast<std::size_t>(c)] = estimator_->side_expansions(
        c, st.instance, st.orient, st.center);
  }
  recache_tiles(c);
  rebin(c);
}

void OverlapEngine::refresh_all() {
  const auto n = static_cast<CellId>(placement_->netlist().num_cells());
  bins_.clear();  // suspend incremental maintenance during the sweep
  for (CellId c = 0; c < n; ++c) refresh(c);
  rebuild_index();
}

void OverlapEngine::recache_tiles(CellId c) {
  const auto k = static_cast<std::size_t>(c);
  const auto& e = expansion_[k];
  TW_ASSERT(e[0] >= 0 && e[1] >= 0 && e[2] >= 0 && e[3] >= 0,
            "cell=", c, " negative expansion (", e[0], ", ", e[1], ", ",
            e[2], ", ", e[3], ")");
  // Placement::absolute_tiles, inflated, written into the cell's own
  // buffer (no allocation once it has grown to the cell's tile count).
  const CellInstance& g = placement_->geometry(c);
  const Orient o = placement_->state(c).orient;
  const Point origin = placement_->origin(c);
  std::vector<Rect>& tiles = tiles_[k];
  tiles.resize(g.tiles.size());
  for (std::size_t t = 0; t < g.tiles.size(); ++t)
    tiles[t] = apply_orient(o, g.tiles[t], g.width, g.height)
                   .translated(origin)
                   .inflated(e[0], e[1], e[2], e[3]);
  // Default Rect{} is the valid degenerate point (0,0), which would leak
  // the origin into every union — seed with an explicitly empty rect.
  Rect box{0, 0, -1, -1};
  for (const auto& t : tiles) {
    if (!box.valid()) {
      box = t;
    } else {
      box.xlo = std::min(box.xlo, t.xlo);
      box.xhi = std::max(box.xhi, t.xhi);
      box.ylo = std::min(box.ylo, t.ylo);
      box.yhi = std::max(box.yhi, t.yhi);
    }
  }
  bbox_[k] = box;
}

void OverlapEngine::rebin(CellId c) {
  if (bins_.empty()) return;  // index suspended (refresh_all's sweep)
  // A cell whose new bbox maps to the same bin range stays where it is:
  // the range alone decides its bins and its oversize status. Only the
  // order of cells inside a bin could differ, and C2 sums are integers.
  if (grid_.range(bbox_[static_cast<std::size_t>(c)]) ==
      bin_range_[static_cast<std::size_t>(c)])
    return;
  bins_remove(c);
  bins_insert(c);
}

void OverlapEngine::set_expansions(CellId c, std::array<Coord, 4> e) {
  TW_REQUIRE(c >= 0 && static_cast<std::size_t>(c) < expansion_.size(),
             "cell=", c, " of ", expansion_.size());
  expansion_[static_cast<std::size_t>(c)] = e;
  recache_tiles(c);
  rebin(c);
}

void OverlapEngine::save_cell(CellId c, CellCkpt& out) const {
  const auto k = static_cast<std::size_t>(c);
  out.expansion = expansion_[k];
  out.tiles = tiles_[k];  // copy-assign: the checkpoint's capacity is reused
  out.bbox = bbox_[k];
}

void OverlapEngine::rollback_cell(CellId c, const CellCkpt& ckpt) {
  const auto k = static_cast<std::size_t>(c);
  expansion_[k] = ckpt.expansion;
  tiles_[k] = ckpt.tiles;
  bbox_[k] = ckpt.bbox;
  rebin(c);
}

void OverlapEngine::rebuild_index() {
  const std::size_t n = tiles_.size();
  // Grid extent: union of the current expanded bboxes (fall back to the
  // core). Cells that later drift outside clamp into the boundary bins,
  // which is conservative, never wrong.
  Rect extent{0, 0, -1, -1};  // empty, not the degenerate origin point
  Coord dim_sum = 0;
  std::size_t dim_count = 0;
  for (const Rect& b : bbox_) {
    if (!b.valid()) continue;
    if (!extent.valid()) {
      extent = b;
    } else {
      extent.xlo = std::min(extent.xlo, b.xlo);
      extent.xhi = std::max(extent.xhi, b.xhi);
      extent.ylo = std::min(extent.ylo, b.ylo);
      extent.yhi = std::max(extent.yhi, b.yhi);
    }
    dim_sum += b.width() + b.height();
    dim_count += 2;
  }
  if (!extent.valid()) extent = core_;
  // Bins of roughly one average cell span keep per-bin occupancy low
  // without exploding the number of bins a moving cell straddles.
  const Coord target = dim_count > 0
                           ? std::max<Coord>(1, dim_sum / static_cast<Coord>(dim_count))
                           : Coord{1};
  grid_ = BinGrid::make(extent, target, max_bins_per_axis(n));
  bins_.assign(static_cast<std::size_t>(grid_.num_bins()), {});
  bin_range_.assign(n, BinGrid::Range{});
  oversize_.clear();
  oversize_pos_.assign(n, -1);
  mark_.assign(n, 0);
  epoch_ = 0;
  for (CellId c = 0; c < static_cast<CellId>(n); ++c) bins_insert(c);
}

void OverlapEngine::bins_insert(CellId c) {
  const BinGrid::Range r = grid_.range(bbox_[static_cast<std::size_t>(c)]);
  bin_range_[static_cast<std::size_t>(c)] = r;
  const long covered = static_cast<long>(r.x1 - r.x0 + 1) *
                       static_cast<long>(r.y1 - r.y0 + 1);
  if (covered * 4 >= static_cast<long>(grid_.num_bins())) {
    oversize_pos_[static_cast<std::size_t>(c)] =
        static_cast<int>(oversize_.size());
    oversize_.push_back(c);
    return;
  }
  for (int by = r.y0; by <= r.y1; ++by)
    for (int bx = r.x0; bx <= r.x1; ++bx)
      bins_[static_cast<std::size_t>(grid_.index(bx, by))].push_back(c);
}

void OverlapEngine::bins_remove(CellId c) {
  const int pos = oversize_pos_[static_cast<std::size_t>(c)];
  if (pos >= 0) {
    oversize_[static_cast<std::size_t>(pos)] = oversize_.back();
    oversize_pos_[static_cast<std::size_t>(oversize_.back())] = pos;
    oversize_.pop_back();
    oversize_pos_[static_cast<std::size_t>(c)] = -1;
    return;
  }
  const BinGrid::Range r = bin_range_[static_cast<std::size_t>(c)];
  for (int by = r.y0; by <= r.y1; ++by)
    for (int bx = r.x0; bx <= r.x1; ++bx) {
      auto& bin = bins_[static_cast<std::size_t>(grid_.index(bx, by))];
      const auto it = std::find(bin.begin(), bin.end(), c);
      TW_ASSERT(it != bin.end(), "cell=", c, " missing from bin (", bx, ", ",
                by, ")");
      *it = bin.back();
      bin.pop_back();
    }
}

void OverlapEngine::gather_candidates(CellId c) const {
  cand_.clear();
  cand_area_.clear();
  const Rect& box = bbox_[static_cast<std::size_t>(c)];
  if (oversize_pos_[static_cast<std::size_t>(c)] >= 0) {
    // An oversize cell would visit nearly every bin; a flat sweep over
    // all cells is cheaper and trivially complete.
    const auto n = static_cast<CellId>(tiles_.size());
    for (CellId j = 0; j < n; ++j) {
      if (j == c) continue;
      const Coord a = box.overlap_area(bbox_[static_cast<std::size_t>(j)]);
      if (a > 0) {
        cand_.push_back(j);
        cand_area_.push_back(a);
      }
    }
    return;
  }
  if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(mark_.begin(), mark_.end(), 0);
    epoch_ = 0;
  }
  ++epoch_;
  const BinGrid::Range r = bin_range_[static_cast<std::size_t>(c)];
  for (int by = r.y0; by <= r.y1; ++by)
    for (int bx = r.x0; bx <= r.x1; ++bx)
      for (const CellId j : bins_[static_cast<std::size_t>(grid_.index(bx, by))]) {
        if (j == c) continue;
        auto& m = mark_[static_cast<std::size_t>(j)];
        if (m == epoch_) continue;
        m = epoch_;
        // Pairs whose expanded bboxes share no positive area cannot have
        // positive tile overlap, so dropping them keeps the sum exact.
        const Coord a = box.overlap_area(bbox_[static_cast<std::size_t>(j)]);
        if (a > 0) {
          cand_.push_back(j);
          cand_area_.push_back(a);
        }
      }
  // Oversize cells are indexed in the flat list, not the bins; they are
  // distinct from the bin candidates by construction.
  for (const CellId j : oversize_) {
    if (j == c) continue;
    const Coord a = box.overlap_area(bbox_[static_cast<std::size_t>(j)]);
    if (a > 0) {
      cand_.push_back(j);
      cand_area_.push_back(a);
    }
  }
}

Coord OverlapEngine::pair_overlap(CellId i, CellId j) const {
  if (bbox_[static_cast<std::size_t>(i)].overlap_area(
          bbox_[static_cast<std::size_t>(j)]) <= 0)
    return 0;
  const auto& ti = tiles_[static_cast<std::size_t>(i)];
  const auto& tj = tiles_[static_cast<std::size_t>(j)];
  Coord sum = 0;
  for (const auto& a : ti)
    for (const auto& b : tj) sum += a.overlap_area(b);
  return sum;
}

Coord OverlapEngine::border_overlap(CellId c) const {
  Coord sum = 0;
  for (const auto& t : tiles_[static_cast<std::size_t>(c)])
    sum += t.area() - t.intersect(core_).area();
  return sum;
}

Coord OverlapEngine::cell_overlap(CellId c) const {
  gather_candidates(c);
  Coord sum = border_overlap(c);
  const auto& tc = tiles_[static_cast<std::size_t>(c)];
  const bool c1tile = tc.size() == 1;
  for (std::size_t k = 0; k < cand_.size(); ++k) {
    const CellId j = cand_[k];
    const auto& tj = tiles_[static_cast<std::size_t>(j)];
    if (c1tile && tj.size() == 1) {
      // Single tile each: the expanded tile is its own bbox, so the
      // overlap area the gather computed is already the pair overlap.
      sum += cand_area_[k];
    } else {
      for (const auto& a : tc)
        for (const auto& b : tj) sum += a.overlap_area(b);
    }
  }
  return sum;
}

Rect OverlapEngine::expanded_chip_bbox() const {
  Rect bb;
  bool first = true;
  for (const std::vector<Rect>& tiles : tiles_)
    for (const Rect& t : tiles) {
      bb = first ? t : bb.bounding_union(t);
      first = false;
    }
  return bb;
}

Coord OverlapEngine::total_overlap() const {
  const auto n = static_cast<CellId>(tiles_.size());
  Coord sum = 0;
  for (CellId i = 0; i < n; ++i) {
    sum += border_overlap(i);
    gather_candidates(i);
    const auto& ti = tiles_[static_cast<std::size_t>(i)];
    const bool i1tile = ti.size() == 1;
    for (std::size_t k = 0; k < cand_.size(); ++k) {
      const CellId j = cand_[k];
      if (j <= i) continue;
      const auto& tj = tiles_[static_cast<std::size_t>(j)];
      if (i1tile && tj.size() == 1) {
        sum += cand_area_[k];
      } else {
        for (const auto& a : ti)
          for (const auto& b : tj) sum += a.overlap_area(b);
      }
    }
  }
  return sum;
}

Coord OverlapEngine::total_overlap_naive() const {
  const auto n = static_cast<CellId>(tiles_.size());
  Coord sum = 0;
  for (CellId i = 0; i < n; ++i) {
    sum += border_overlap(i);
    const auto& ti = tiles_[static_cast<std::size_t>(i)];
    for (CellId j = i + 1; j < n; ++j) {
      const auto& tj = tiles_[static_cast<std::size_t>(j)];
      for (const auto& a : ti)
        for (const auto& b : tj) sum += a.overlap_area(b);
    }
  }
  return sum;
}

}  // namespace tw
