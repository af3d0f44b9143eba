#include "place/cost.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "check/contracts.hpp"

namespace tw {
namespace {

/// kappa of the pin-site penalty (Eqn 10): the paper's constant, which
/// drives the overloaded-site count to zero before stage 1 ends.
constexpr double kPinSiteKappa = 5.0;

}  // namespace

CostModel::CostModel(const Placement& placement, const OverlapEngine& overlap,
                     CostParams params)
    : placement_(&placement), overlap_(&overlap), params_(params),
      net_mark_(placement.netlist().num_nets(), 0) {}

double CostModel::calibrate_p2(Placement& placement, OverlapEngine& overlap,
                               const Rect& core, Rng& rng, int samples) {
  TW_REQUIRE(samples > 0, "samples=", samples);
  TW_REQUIRE(core.valid(), "core=", core.str());
  double sum_c1 = 0.0;
  double sum_c2 = 0.0;
  for (int s = 0; s < samples; ++s) {
    // Whole-placement resample during calibration, not a per-move
    // mutation; the refresh_all() below resyncs the overlap index.
    placement.randomize(rng, core);  // lint: allow(txn-reach)
    overlap.refresh_all();
    sum_c1 += placement.teic();
    const Coord c2 = overlap.total_overlap();
    if constexpr (check::kLevel >= check::kLevelFull) {
      // Guard the spatial index against silent pruning bugs: the very
      // first sample cross-checks it against the all-pairs reference.
      if (s == 0)
        TW_ASSERT_FULL(c2 == overlap.total_overlap_naive(),
                       "indexed total_overlap=", c2,
                       " naive=", overlap.total_overlap_naive());
    }
    sum_c2 += static_cast<double>(c2);
  }
  p2_ = sum_c2 > 0.0 ? params_.eta * sum_c1 / sum_c2 : 1.0;
  TW_ENSURE(p2_ > 0.0 && std::isfinite(p2_), "p2=", p2_,
            " sum_c1=", sum_c1, " sum_c2=", sum_c2);
  return p2_;
}

CostTerms CostModel::full() const {
  CostTerms t;
  t.c1 = placement_->teic();
  t.c2_raw = static_cast<double>(overlap_->total_overlap());
  for (const auto& cell : placement_->netlist().cells())
    if (cell.is_custom())
      t.c3 += placement_->site_penalty(cell.id, kPinSiteKappa);
  return t;
}

double CostModel::partial_c1(std::span<const CellId> cells) const {
  if (cells.size() == 1) {
    double sum = 0.0;
    for (NetId n : placement_->nets_of_cell(cells[0]))
      sum += placement_->net_cost(n);
    return sum;
  }
  // Deduplicate nets across the affected cells with an epoch stamp per
  // net: constant work per pin, no allocation on the hot path. Summation
  // order is the cells' own (sorted) net order, which is deterministic.
  if (net_epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(net_mark_.begin(), net_mark_.end(), 0);
    net_epoch_ = 0;
  }
  ++net_epoch_;
  double sum = 0.0;
  for (CellId c : cells) {
    for (NetId n : placement_->nets_of_cell(c)) {
      auto& m = net_mark_[static_cast<std::size_t>(n)];
      if (m == net_epoch_) continue;
      m = net_epoch_;
      sum += placement_->net_cost(n);
    }
  }
  return sum;
}

double CostModel::net_cost_sum(std::span<const NetId> nets) const {
  double sum = 0.0;
  for (NetId n : nets) sum += placement_->net_cost(n);
  return sum;
}

double CostModel::partial_c2_raw(std::span<const CellId> cells) const {
  Coord sum = 0;
  for (std::size_t a = 0; a < cells.size(); ++a) {
    sum += overlap_->cell_overlap(cells[a]);
    // cell_overlap(i) + cell_overlap(j) counts O(i,j) twice.
    for (std::size_t b = a + 1; b < cells.size(); ++b)
      sum -= overlap_->pair_overlap(cells[a], cells[b]);
  }
  return static_cast<double>(sum);
}

double CostModel::partial_c3(std::span<const CellId> cells) const {
  double sum = 0.0;
  for (CellId c : cells)
    if (placement_->netlist().cell(c).is_custom())
      sum += placement_->site_penalty(c, kPinSiteKappa);
  return sum;
}

}  // namespace tw
