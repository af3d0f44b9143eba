// The move-transaction layer: the single mutation path used by the
// annealers (stage 1 and stage 2).
//
// A transaction owns the whole snapshot / mutate / evaluate /
// commit-or-revert lifecycle of one attempted move:
//
//   txn.begin(i);                 // snapshot + before-terms
//   txn.set_center(i, target);    // forwarded mutation(s)
//   const double delta = txn.evaluate();   // refresh + after-terms
//   if (accept) txn.commit(running); else txn.revert();
//
// Two flavors exist. A *cell* transaction (begin with one or two cells)
// covers geometry changes — displacement, orientation, aspect, instance,
// interchange — and re-evaluates all three cost terms, keeping the
// overlap engine's spatial index in sync. A *pin* transaction
// (begin_pins) covers pin/pin-group site moves, which cannot change the
// cell outline: only the moved pins' nets (C1) and the cell's site
// penalty (C3) are re-evaluated, and the overlap engine is never touched.
//
// All snapshot and net-list storage is owned by the transaction and
// reused across moves, so the hot path performs no heap allocation once
// the buffers have warmed up. The annealers' invariant (enforced by
// tools/lint.py rule `txn-mutation`): every placement mutation inside
// stage1.cpp / stage2.cpp goes through a MoveTxn.
#pragma once

#include <array>
#include <span>

#include "place/cost.hpp"
#include "place/overlap.hpp"

namespace tw {

class MoveTxn {
public:
  MoveTxn(Placement& placement, OverlapEngine& overlap, CostModel& model)
      : placement_(&placement), overlap_(&overlap), model_(&model) {}

  /// Opens a cell transaction on one cell / a pair of cells (interchange):
  /// snapshots them and records the before-cost of the affected set.
  void begin(CellId a);
  void begin(CellId a, CellId b);

  /// Opens a pin transaction on `c`: only `nets` (the moved pins' nets,
  /// deduplicated) and the cell's site penalty are evaluated. The net list
  /// is copied into transaction-owned storage, so `nets` may alias
  /// scratch_nets().
  void begin_pins(CellId c, std::span<const NetId> nets);

  // --- forwarded mutators (cell transactions) --------------------------------
  void set_center(CellId c, Point center);
  void set_orient(CellId c, Orient o);
  void set_aspect(CellId c, double aspect);
  void set_instance(CellId c, InstanceId k);

  // --- forwarded mutators (pin transactions) ---------------------------------
  void assign_pin_to_site(int local_pin, int site);
  void assign_group(GroupId g, Side side, int start_site);

  /// Refreshes the overlap engine for the transaction's cells (cell
  /// transactions), computes the after-terms, and returns the total-cost
  /// delta under the model's current p2.
  double evaluate();

  /// Folds the evaluated delta into the annealer's running totals and
  /// closes the transaction (the mutation stands).
  void commit(CostTerms& running);

  /// Restores the snapshots (and the overlap engine's view of them) and
  /// closes the transaction.
  void revert();

  const CostTerms& before() const { return before_; }
  const CostTerms& after() const { return after_; }
  bool active() const { return active_; }

  /// Reusable scratch buffers for callers assembling a pin move (the
  /// loose-pin list and the affected-net list); cleared by the caller,
  /// never by the transaction.
  std::vector<int>& scratch_ints() { return scratch_ints_; }
  std::vector<NetId>& scratch_nets() { return scratch_nets_; }

private:
  void open(std::span<const CellId> cells);
  bool owns(CellId c) const {
    return (num_cells_ > 0 && cells_[0] == c) ||
           (num_cells_ > 1 && cells_[1] == c);
  }

  Placement* placement_;
  OverlapEngine* overlap_;
  CostModel* model_;

  std::array<CellId, 2> cells_{};
  std::size_t num_cells_ = 0;
  std::array<CellState, 2> saved_;  ///< reused capacity across moves
  /// Overlap-engine view of the cells at begin() time; written back on
  /// revert instead of re-deriving expansions and tile geometry.
  std::array<OverlapEngine::CellCkpt, 2> ov_saved_;
  std::vector<NetId> nets_;         ///< pin transactions: affected nets
  bool pin_mode_ = false;
  bool active_ = false;
  bool evaluated_ = false;
  /// Cell transactions hold one Placement bounds bracket from begin()
  /// until evaluate() (or revert(), when evaluate was never reached).
  bool bounds_open_ = false;
  CostTerms before_;
  CostTerms after_;

  std::vector<int> scratch_ints_;
  std::vector<NetId> scratch_nets_;
};

}  // namespace tw
