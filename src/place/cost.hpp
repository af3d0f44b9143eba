// The stage-1 cost function (Section 3.1):
//
//   C = C1 + p2 * C2 + C3
//
//   C1 — the TEIC (Eqn 6): weighted net bounding-box spans.
//   C2 — the overlap penalty (Eqn 7): p2-normalized total tile overlap.
//        p2 is calibrated so that p2 * C2 ~= eta * C1 at T = T_inf
//        (Eqn 9, eta ~= 0.5): C1 scales linearly with the grid size and C2
//        quadratically, so without this normalization one term dominates.
//   C3 — the pin-site penalty (Eqns 10-11) with constant kappa = 5 driving
//        the overloaded-site count to zero before stage 1 ends.
//
// The model offers full recomputation (for initialization, verification and
// periodic resynchronization) and *partial* evaluation over an affected
// cell set (for O(1)-ish move deltas: only nets touching the moved cells
// and only those cells' overlap contributions are recomputed).
#pragma once

#include <cstdint>
#include <span>

#include "place/overlap.hpp"

namespace tw {

struct CostParams {
  double eta = 0.5;  ///< target p2*C2 / C1 ratio at T_inf (Eqn 9)
};

/// Value of the three cost terms; `c2_raw` is the un-normalized overlap.
struct CostTerms {
  double c1 = 0.0;
  double c2_raw = 0.0;
  double c3 = 0.0;

  double total(double p2) const { return c1 + p2 * c2_raw + c3; }
};

class CostModel {
public:
  CostModel(const Placement& placement, const OverlapEngine& overlap,
            CostParams params = {});

  const CostParams& params() const { return params_; }
  double p2() const { return p2_; }
  void set_p2(double p2) { p2_ = p2; }

  /// Calibrates p2 by sampling `samples` random configurations inside
  /// `core` (Eqn 9): p2 = eta * avg(C1) / avg(C2_raw). The placement is
  /// mutated during sampling and left in the last sampled state, so call
  /// this before (or as part of) generating the initial configuration.
  /// If the circuit produces no overlap in any sample (tiny circuits),
  /// p2 falls back to 1.
  double calibrate_p2(Placement& placement, OverlapEngine& overlap,
                      const Rect& core, Rng& rng, int samples = 24);

  /// Full recomputation of all three terms.
  CostTerms full() const;

  /// Total cost of `terms` under the current normalization.
  double total(const CostTerms& t) const { return t.total(p2_); }

  // --- partial evaluation ----------------------------------------------------
  // All three return the *current* contribution of the affected cell set;
  // evaluating before and after a mutation yields the move's delta.

  /// Sum of net costs over the distinct nets touching any cell in `cells`.
  double partial_c1(std::span<const CellId> cells) const;

  /// Sum of net costs over an explicit (deduplicated) net list — used for
  /// pin moves, which affect only the moved pins' nets, not the whole
  /// cell's.
  double net_cost_sum(std::span<const NetId> nets) const;

  /// Overlap contribution of `cells`: border overlap of each, pairwise
  /// overlap with every other cell, with pairs inside the set counted once.
  double partial_c2_raw(std::span<const CellId> cells) const;

  /// Site penalty of the cells in the set.
  double partial_c3(std::span<const CellId> cells) const;

  const Placement& placement() const { return *placement_; }
  const OverlapEngine& overlap() const { return *overlap_; }

private:
  const Placement* placement_;
  const OverlapEngine* overlap_;
  CostParams params_;
  double p2_ = 1.0;

  // Epoch-stamped dedup scratch for partial_c1: marking a net visited is
  // one store, so the hot path allocates nothing (the old sort+unique
  // built a fresh vector per move).
  mutable std::vector<std::uint32_t> net_mark_;
  mutable std::uint32_t net_epoch_ = 0;
};

}  // namespace tw
