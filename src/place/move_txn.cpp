#include "place/move_txn.hpp"

#include <algorithm>

#include "check/contracts.hpp"

namespace tw {

void MoveTxn::open(std::span<const CellId> cells) {
  TW_ASSERT(!active_, "MoveTxn::begin while a transaction is open");
  TW_ASSERT(cells.size() >= 1 && cells.size() <= 2, "cells=", cells.size());
  num_cells_ = cells.size();
  for (std::size_t k = 0; k < num_cells_; ++k) {
    cells_[k] = cells[k];
    saved_[k] = placement_->state(cells[k]);  // copy-assign: reuses buffers
  }
  active_ = true;
  evaluated_ = false;
  after_ = CostTerms{};
}

void MoveTxn::begin(CellId a) {
  const CellId cells[] = {a};
  open(cells);
  pin_mode_ = false;
  before_.c1 = model_->partial_c1(cells);
  before_.c2_raw = model_->partial_c2_raw(cells);
  before_.c3 = model_->partial_c3(cells);
  overlap_->save_cell(a, ov_saved_[0]);
  // One maintenance bracket for the whole transaction (the before-terms
  // above read the cache while it is still consistent).
  placement_->bounds_open(cells);
  bounds_open_ = true;
}

void MoveTxn::begin(CellId a, CellId b) {
  TW_ASSERT(a != b, "interchange of cell ", a, " with itself");
  const CellId cells[] = {a, b};
  open(cells);
  pin_mode_ = false;
  before_.c1 = model_->partial_c1(cells);
  before_.c2_raw = model_->partial_c2_raw(cells);
  before_.c3 = model_->partial_c3(cells);
  overlap_->save_cell(a, ov_saved_[0]);
  overlap_->save_cell(b, ov_saved_[1]);
  placement_->bounds_open(cells);
  bounds_open_ = true;
}

void MoveTxn::begin_pins(CellId c, std::span<const NetId> nets) {
  const CellId cells[] = {c};
  open(cells);
  pin_mode_ = true;
  nets_.assign(nets.begin(), nets.end());
  before_.c1 = model_->net_cost_sum(nets_);
  before_.c2_raw = 0.0;  // a pin move cannot change the cell outline
  before_.c3 = model_->partial_c3(cells);
}

void MoveTxn::set_center(CellId c, Point center) {
  TW_ASSERT(active_ && !pin_mode_ && owns(c), "cell=", c);
  placement_->set_center(c, center);
}

void MoveTxn::set_orient(CellId c, Orient o) {
  TW_ASSERT(active_ && !pin_mode_ && owns(c), "cell=", c);
  placement_->set_orient(c, o);
}

void MoveTxn::set_aspect(CellId c, double aspect) {
  TW_ASSERT(active_ && !pin_mode_ && owns(c), "cell=", c);
  placement_->set_aspect(c, aspect);
}

void MoveTxn::set_instance(CellId c, InstanceId k) {
  TW_ASSERT(active_ && !pin_mode_ && owns(c), "cell=", c);
  placement_->set_instance(c, k);
}

void MoveTxn::assign_pin_to_site(int local_pin, int site) {
  TW_ASSERT(active_ && pin_mode_, "pin mutation outside a pin transaction");
  placement_->assign_pin_to_site(cells_[0], local_pin, site);
}

void MoveTxn::assign_group(GroupId g, Side side, int start_site) {
  TW_ASSERT(active_ && pin_mode_, "pin mutation outside a pin transaction");
  placement_->assign_group(cells_[0], g, side, start_site);
}

double MoveTxn::evaluate() {
  TW_ASSERT(active_, "MoveTxn::evaluate without begin");
  const std::span<const CellId> cells(cells_.data(), num_cells_);
  if (pin_mode_) {
    after_.c1 = model_->net_cost_sum(nets_);
    after_.c2_raw = 0.0;
    after_.c3 = model_->partial_c3(cells);
  } else {
    // Close the bounds bracket first (Phase B/C for every mutation in one
    // sweep) so the after-terms read a consistent cache.
    if (bounds_open_) {
      placement_->bounds_close();
      bounds_open_ = false;
    }
    for (std::size_t k = 0; k < num_cells_; ++k) overlap_->refresh(cells_[k]);
    after_.c1 = model_->partial_c1(cells);
    after_.c2_raw = model_->partial_c2_raw(cells);
    after_.c3 = model_->partial_c3(cells);
  }
  evaluated_ = true;
  return model_->total(after_) - model_->total(before_);
}

void MoveTxn::commit(CostTerms& running) {
  TW_ASSERT(active_ && evaluated_, "MoveTxn::commit without evaluate");
  running.c1 += after_.c1 - before_.c1;
  running.c2_raw += after_.c2_raw - before_.c2_raw;
  running.c3 += after_.c3 - before_.c3;
  active_ = false;
}

void MoveTxn::revert() {
  TW_ASSERT(active_, "MoveTxn::revert without begin");
  if (pin_mode_) {
    for (std::size_t k = 0; k < num_cells_; ++k)
      placement_->restore(cells_[k], saved_[k]);
  } else {
    // The restores put the cells back into their exact begin()-time
    // state, so instead of re-deriving the net-bound cache the bracket is
    // rolled back: the bounds and pin positions checkpointed by
    // bounds_open are written back verbatim. The restores run with
    // maintenance suppressed (inside the still-open bracket, or inside
    // the explicit rollback bracket when evaluate() already closed it).
    if (!bounds_open_) placement_->bounds_rollback_begin();
    for (std::size_t k = 0; k < num_cells_; ++k)
      placement_->restore(cells_[k], saved_[k]);
    placement_->bounds_rollback_end();
    bounds_open_ = false;
    for (std::size_t k = 0; k < num_cells_; ++k)
      overlap_->rollback_cell(cells_[k], ov_saved_[k]);
  }
  active_ = false;
}

}  // namespace tw
