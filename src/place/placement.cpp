#include "place/placement.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "check/contracts.hpp"

namespace tw {
namespace {

[[maybe_unused]] bool valid_orient(Orient o) {
  const auto raw = static_cast<int>(o);
  return raw >= 0 && raw < 8;
}

/// apply_orient(o, ., w, h) followed by the translation to `origin`, as
/// one affine map resolved once per cell: a pin then costs two
/// multiply-adds per axis with coefficients in {-1, 0, 1} (exact integer
/// arithmetic, so the positions equal the per-pin apply_orient's).
struct PinFrame {
  Point t, ex, ey;

  PinFrame(Orient o, Coord w, Coord h, Point origin) {
    const Point o0 = apply_orient(o, Point{0, 0}, w, h);
    ex = apply_orient(o, Point{1, 0}, w, h) - o0;
    ey = apply_orient(o, Point{0, 1}, w, h) - o0;
    t = o0 + origin;
  }
  Point operator()(Point p) const {
    return {t.x + ex.x * p.x + ey.x * p.y, t.y + ex.y * p.x + ey.y * p.y};
  }
};

}  // namespace

Placement::Placement(const Netlist& nl) : nl_(&nl) {
  const std::size_t num_cells = nl.num_cells();
  const std::size_t num_nets = nl.num_nets();
  states_.resize(num_cells);
  cell_nets_.resize(num_cells);
  local_index_.assign(nl.num_pins(), -1);
  pin_pos_ok_.assign(num_cells, 0);
  sound_.assign(num_cells, 0);

  // Net-major position slots, in Net::pins order, and the net weights.
  pin_slot_.assign(nl.num_pins(), -1);
  net_pin_begin_.reserve(num_nets + 1);
  net_weight_.reserve(num_nets);
  std::int32_t slot = 0;
  for (const auto& net : nl.nets()) {
    net_pin_begin_.push_back(slot);
    net_weight_.push_back({net.weight_h, net.weight_v});
    for (const PinId pid : net.pins)
      pin_slot_[static_cast<std::size_t>(pid)] = slot++;
  }
  net_pin_begin_.push_back(slot);
  net_pos_.assign(static_cast<std::size_t>(slot), Point{});

  // Cell-major pin records, in Cell::pins order.
  cell_pin_begin_.reserve(num_cells + 1);
  pin_recs_.reserve(nl.num_pins());
  for (const auto& c : nl.cells()) {
    const auto ci = static_cast<std::size_t>(c.id);
    states_[ci].pin_site.assign(c.pins.size(), -1);
    for (std::size_t k = 0; k < c.pins.size(); ++k)
      local_index_[static_cast<std::size_t>(c.pins[k])] = static_cast<int>(k);

    std::vector<NetId>& nets = cell_nets_[ci];
    for (PinId pid : c.pins) nets.push_back(nl.pin(pid).net);
    std::sort(nets.begin(), nets.end());
    nets.erase(std::unique(nets.begin(), nets.end()), nets.end());

    cell_pin_begin_.push_back(static_cast<std::int32_t>(pin_recs_.size()));
    for (const PinId pid : c.pins) {
      const Pin& pin = nl.pin(pid);
      const auto at = std::lower_bound(nets.begin(), nets.end(), pin.net);
      pin_recs_.push_back({pid, pin.net,
                           pin_slot_[static_cast<std::size_t>(pid)],
                           static_cast<std::int32_t>(at - nets.begin()),
                           pin.commit == PinCommit::kFixed});
    }
  }
  cell_pin_begin_.push_back(static_cast<std::int32_t>(pin_recs_.size()));

  for (const auto& c : nl.cells()) {
    if (!c.is_custom()) continue;
    CellState& st = states_[static_cast<std::size_t>(c.id)];
    st.aspect = c.clamp_aspect(std::sqrt(c.aspect_lo * c.aspect_hi));
    realize_custom_state(c.id, st.aspect);
    // Deterministic initial pin-site assignment: groups on their first
    // allowed side, loose pins round-robin over their allowed sites.
    for (std::size_t g = 0; g < c.groups.size(); ++g) {
      const Side side = sides_in_mask(c.groups[g].side_mask).front();
      assign_group(c.id, static_cast<GroupId>(g), side, 0);
    }
    int rr = 0;
    for (std::size_t k = 0; k < c.pins.size(); ++k) {
      const Pin& p = nl.pin(c.pins[k]);
      if (p.commit != PinCommit::kEdge) continue;
      const auto legal = sites_in_mask(p.side_mask, c.sites_per_edge);
      assign_pin_to_site(c.id, static_cast<int>(k),
                         legal[static_cast<std::size_t>(rr++) % legal.size()]);
    }
  }
  // The mutator calls above ran with an empty cache (maintenance skipped);
  // build the net bounds now that every cell state is realized.
  resync_net_bounds();
}

const CellInstance& Placement::geometry(CellId c) const {
  const Cell& cell = nl_->cell(c);
  const CellState& st = state(c);
  if (cell.is_custom()) return st.realized;
  return cell.instances.at(static_cast<std::size_t>(st.instance));
}

Rect Placement::bbox(CellId c) const {
  const CellInstance& g = geometry(c);
  const CellState& st = state(c);
  const Coord w = oriented_width(st.orient, g.width, g.height);
  const Coord h = oriented_height(st.orient, g.width, g.height);
  return Rect::from_center(st.center, w, h);
}

Point Placement::origin(CellId c) const {
  const Rect bb = bbox(c);
  return {bb.xlo, bb.ylo};
}

std::vector<Rect> Placement::absolute_tiles(CellId c) const {
  const CellInstance& g = geometry(c);
  const CellState& st = state(c);
  const Point o = origin(c);
  std::vector<Rect> out;
  out.reserve(g.tiles.size());
  for (const auto& t : g.tiles)
    out.push_back(apply_orient(st.orient, t, g.width, g.height).translated(o));
  return out;
}

Point Placement::pin_position(PinId p) const {
  const CellId c = nl_->pin(p).cell;
  if (!pin_pos_ok_[static_cast<std::size_t>(c)]) {
    if (!bounds_computable(c)) return pin_position_uncached(p);
    refresh_pin_positions(c);
  }
  const std::int32_t slot = pin_slot_[static_cast<std::size_t>(p)];
  return net_pos_[static_cast<std::size_t>(slot)];
}

void Placement::refresh_pin_positions(CellId c) const {
  const CellState& st = state(c);
  const CellInstance& g = geometry(c);
  const PinFrame frame(st.orient, g.width, g.height, origin(c));
  const std::span<const PinRec> recs = pin_recs(c);
  for (std::size_t k = 0; k < recs.size(); ++k) {
    const Point local =
        recs[k].fixed
            ? g.pin_offsets[k]
            : st.sites[static_cast<std::size_t>(st.pin_site[k])].offset;
    net_pos_[static_cast<std::size_t>(recs[k].slot)] = frame(local);
  }
  pin_pos_ok_[static_cast<std::size_t>(c)] = 1;
}

Point Placement::pin_position_uncached(PinId p) const {
  const Pin& pin = nl_->pin(p);
  const CellState& st = state(pin.cell);
  const CellInstance& g = geometry(pin.cell);
  const int k = local_index_[static_cast<std::size_t>(p)];

  Point local;
  if (pin.commit == PinCommit::kFixed) {
    local = g.pin_offsets[static_cast<std::size_t>(k)];
  } else {
    const int site = st.pin_site[static_cast<std::size_t>(k)];
    local = st.sites.at(static_cast<std::size_t>(site)).offset;
  }
  return apply_orient(st.orient, local, g.width, g.height) + origin(pin.cell);
}

Rect Placement::net_bbox(NetId n) const {
  if (!net_bounds_.empty())
    return net_bounds_[static_cast<std::size_t>(n)].box();
  return net_bbox_scan(n);
}

Rect Placement::net_bbox_scan(NetId n) const {
  const Net& net = nl_->net(n);
  Coord xlo = std::numeric_limits<Coord>::max();
  Coord xhi = std::numeric_limits<Coord>::min();
  Coord ylo = xlo, yhi = xhi;
  for (PinId p : net.pins) {
    const Point pos = pin_position(p);
    xlo = std::min(xlo, pos.x);
    xhi = std::max(xhi, pos.x);
    ylo = std::min(ylo, pos.y);
    yhi = std::max(yhi, pos.y);
  }
  return {xlo, ylo, xhi, yhi};
}

double Placement::net_cost(NetId n) const { return cost_of(n, net_bbox(n)); }

double Placement::teic() const {
  double sum = 0.0;
  for (const auto& n : nl_->nets()) sum += net_cost(n.id);
  return sum;
}

double Placement::teil() const {
  double sum = 0.0;
  for (const auto& n : nl_->nets()) {
    const Rect bb = net_bbox(n.id);
    sum += static_cast<double>(bb.width() + bb.height());
  }
  return sum;
}

void Placement::set_center(CellId c, Point center) {
  TW_ASSERT(c >= 0 && static_cast<std::size_t>(c) < states_.size(),
            "cell=", c, " of ", states_.size());
  BoundsScope scope(*this, c);
  states_[static_cast<std::size_t>(c)].center = center;
  invalidate_pin_positions(c);
}

void Placement::set_orient(CellId c, Orient o) {
  TW_ASSERT(c >= 0 && static_cast<std::size_t>(c) < states_.size(),
            "cell=", c, " of ", states_.size());
  TW_ASSERT(valid_orient(o), "orient=", static_cast<int>(o));
  BoundsScope scope(*this, c);
  states_[static_cast<std::size_t>(c)].orient = o;
  invalidate_pin_positions(c);
}

void Placement::set_instance(CellId c, InstanceId k) {
  const Cell& cell = nl_->cell(c);
  if (k < 0 || static_cast<std::size_t>(k) >= cell.instances.size())
    throw std::invalid_argument("set_instance: unknown instance");
  BoundsScope scope(*this, c);
  states_[static_cast<std::size_t>(c)].instance = k;
  invalidate_pin_positions(c);
}

void Placement::realize_custom_state(CellId c, double aspect) {
  const Cell& cell = nl_->cell(c);
  CellState& st = states_[static_cast<std::size_t>(c)];
  st.aspect = aspect;
  st.realized = Cell::realize_custom(cell.target_area, aspect);

  // Fixed pins on custom cells scale proportionally with the realization.
  const CellInstance& base = cell.instances.front();
  st.realized.pin_offsets.resize(cell.pins.size(), Point{0, 0});
  for (std::size_t k = 0; k < cell.pins.size(); ++k) {
    if (nl_->pin(cell.pins[k]).commit != PinCommit::kFixed) continue;
    const Point off = base.pin_offsets[k];
    st.realized.pin_offsets[k] = {
        base.width > 0 ? off.x * st.realized.width / base.width : 0,
        base.height > 0 ? off.y * st.realized.height / base.height : 0};
  }

  st.sites = make_pin_sites(st.realized, cell.sites_per_edge,
                            nl_->tech().track_separation);
  st.site_occupancy.assign(st.sites.size(), 0);
  rebuild_occupancy(c);
  invalidate_pin_positions(c);
}

void Placement::rebuild_occupancy(CellId c) {
  CellState& st = states_[static_cast<std::size_t>(c)];
  std::fill(st.site_occupancy.begin(), st.site_occupancy.end(), 0);
  for (std::size_t k = 0; k < st.pin_site.size(); ++k) {
    const int s = st.pin_site[k];
    if (s >= 0) ++st.site_occupancy[static_cast<std::size_t>(s)];
  }
}

void Placement::set_aspect(CellId c, double aspect) {
  const Cell& cell = nl_->cell(c);
  if (!cell.is_custom())
    throw std::invalid_argument("set_aspect: not a custom cell");
  BoundsScope scope(*this, c);
  realize_custom_state(c, cell.clamp_aspect(aspect));
}

void Placement::assign_pin_to_site(CellId c, int local_pin, int site) {
  CellState& st = states_[static_cast<std::size_t>(c)];
  if (site < 0 || static_cast<std::size_t>(site) >= st.sites.size())
    throw std::invalid_argument("assign_pin_to_site: bad site");
  TW_REQUIRE(local_pin >= 0 &&
                 static_cast<std::size_t>(local_pin) < st.pin_site.size(),
             "cell=", c, " local_pin=", local_pin, " of ",
             st.pin_site.size());
  TW_REQUIRE(!pin_recs(c)[static_cast<std::size_t>(local_pin)].fixed,
             "cell=", c, " local_pin=", local_pin, " is a fixed pin");

  // Fast path: a top-level single-pin move only touches one net, so the
  // whole-cell bracket of BoundsScope would be wasted work. The net is
  // staged and committed the same way, for this one pin.
  const PinRec& rec = pin_recs(c)[static_cast<std::size_t>(local_pin)];
  const bool track = bounds_depth_ == 0 && !net_bounds_.empty();
  NetBounds staged;
  if (track) {
    staged = net_bounds_[static_cast<std::size_t>(rec.net)];
    staged.remove(pin_position(rec.pin));
  }

  int& cur = st.pin_site[static_cast<std::size_t>(local_pin)];
  if (cur >= 0) --st.site_occupancy[static_cast<std::size_t>(cur)];
  cur = site;
  ++st.site_occupancy[static_cast<std::size_t>(site)];
  // A site change moves exactly one pin and cannot affect structural
  // soundness (the site was range-checked above), so instead of dropping
  // the whole cell's pin-position cache, patch the one entry in place.
  if (pin_pos_ok_[static_cast<std::size_t>(c)]) {
    const CellInstance& g = geometry(c);
    net_pos_[static_cast<std::size_t>(rec.slot)] =
        apply_orient(st.orient, st.sites[static_cast<std::size_t>(site)].offset,
                     g.width, g.height) +
        origin(c);
  }

  if (track) {
    staged.add(pin_position(rec.pin));
    if (staged.unsupported()) staged = rescan(rec.net);
    net_bounds_[static_cast<std::size_t>(rec.net)] = staged;
  }
}

void Placement::assign_group(CellId c, GroupId g, Side side, int start_site) {
  const Cell& cell = nl_->cell(c);
  const PinGroup& group = cell.groups.at(static_cast<std::size_t>(g));
  if (!(group.side_mask & side_to_mask(side)))
    throw std::invalid_argument("assign_group: side not allowed for group");
  BoundsScope scope(*this, c);
  const int spe = cell.sites_per_edge;
  start_site = std::clamp(start_site, 0, spe - 1);
  for (std::size_t i = 0; i < group.pins.size(); ++i) {
    // Sequenced groups advance monotonically (clamped at the edge end, so
    // trailing pins can share the last site); unsequenced wrap cyclically.
    const int k = group.sequenced
                      ? std::min<int>(start_site + static_cast<int>(i), spe - 1)
                      : (start_site + static_cast<int>(i)) % spe;
    const int site = site_index_of(side, k, spe);
    const int local = local_index_[static_cast<std::size_t>(group.pins[i])];
    assign_pin_to_site(c, local, site);
  }
}

void Placement::restore(CellId c, const CellState& s) {
  TW_ASSERT(c >= 0 && static_cast<std::size_t>(c) < states_.size(),
            "cell=", c, " of ", states_.size());
  TW_ASSERT_FULL(s.pin_site.size() == nl_->cell(c).pins.size(),
                 "cell=", c, " snapshot pin_site=", s.pin_site.size(),
                 " pins=", nl_->cell(c).pins.size());
  BoundsScope scope(*this, c);
  states_[static_cast<std::size_t>(c)] = s;
  invalidate_pin_positions(c);
}

void Placement::restore_cell(CellId c, Point center, Orient o,
                             InstanceId instance, double aspect,
                             const std::vector<int>& pin_site) {
  const Cell& cell = nl_->cell(c);
  if (!valid_orient(o))
    throw std::invalid_argument("restore_cell: bad orientation");
  if (pin_site.size() != cell.pins.size())
    throw std::invalid_argument("restore_cell: pin_site size mismatch");

  BoundsScope scope(*this, c);
  if (cell.is_custom()) {
    // A legal stored aspect is a fixed point of clamp_aspect (inside the
    // continuous range, or exactly one of the discrete values).
    if (cell.clamp_aspect(aspect) != aspect)
      throw std::invalid_argument("restore_cell: aspect outside legal range");
    realize_custom_state(c, aspect);
  } else {
    set_instance(c, instance);  // throws on an unknown instance
  }
  set_center(c, center);
  set_orient(c, o);

  CellState& st = states_[static_cast<std::size_t>(c)];
  for (std::size_t k = 0; k < pin_site.size(); ++k) {
    const bool committed = nl_->pin(cell.pins[k]).committed();
    if (committed) {
      if (pin_site[k] != -1)
        throw std::invalid_argument("restore_cell: site on a fixed pin");
    } else if (pin_site[k] < 0 ||
               static_cast<std::size_t>(pin_site[k]) >= st.sites.size()) {
      throw std::invalid_argument("restore_cell: pin site out of range");
    }
  }
  st.pin_site = pin_site;
  rebuild_occupancy(c);
  invalidate_pin_positions(c);
}

void Placement::randomize(Rng& rng, const Rect& core) {
  for (const auto& cell : nl_->cells()) {
    set_center(cell.id, Point{rng.uniform_int(core.xlo, core.xhi),
                              rng.uniform_int(core.ylo, core.yhi)});
    set_orient(cell.id,
               kAllOrients[static_cast<std::size_t>(rng.uniform_int(0, 7))]);
    if (cell.is_custom()) {
      for (std::size_t g = 0; g < cell.groups.size(); ++g) {
        const auto sides = sides_in_mask(cell.groups[g].side_mask);
        const Side side =
            sides[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(sides.size()) - 1))];
        assign_group(cell.id, static_cast<GroupId>(g), side,
                     static_cast<int>(rng.uniform_int(0, cell.sites_per_edge - 1)));
      }
      for (std::size_t k = 0; k < cell.pins.size(); ++k) {
        const Pin& p = nl_->pin(cell.pins[k]);
        if (p.commit != PinCommit::kEdge) continue;
        const auto legal = sites_in_mask(p.side_mask, cell.sites_per_edge);
        assign_pin_to_site(
            cell.id, static_cast<int>(k),
            legal[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(legal.size()) - 1))]);
      }
    }
  }
}

double Placement::site_penalty(CellId c, double kappa) const {
  const CellState& st = state(c);
  TW_ASSERT(st.site_occupancy.size() == st.sites.size(),
            "cell=", c, " occupancy=", st.site_occupancy.size(),
            " sites=", st.sites.size());
  double sum = 0.0;
  for (std::size_t s = 0; s < st.sites.size(); ++s) {
    const int over = st.site_occupancy[s] - st.sites[s].capacity;
    if (over > 0) {
      const double e = static_cast<double>(over) + kappa;  // Eqn 10
      sum += e * e;                                        // Eqn 11
    }
  }
  return sum;
}

int Placement::overloaded_sites() const {
  int n = 0;
  for (const auto& cell : nl_->cells()) {
    if (!cell.is_custom()) continue;
    const CellState& st = state(cell.id);
    for (std::size_t s = 0; s < st.sites.size(); ++s)
      if (st.site_occupancy[s] > st.sites[s].capacity) ++n;
  }
  return n;
}

// --- incremental net-bound cache -------------------------------------------

void Placement::resync_net_bounds() {
  TW_ASSERT(bounds_depth_ == 0, "resync inside a mutator, depth=",
            bounds_depth_);
  net_bounds_.clear();
  for (CellId c = 0; c < static_cast<CellId>(states_.size()); ++c) {
    if (pin_pos_ok_[static_cast<std::size_t>(c)]) continue;
    if (!bounds_computable(c)) return;  // stays dropped: lazy scans
    refresh_pin_positions(c);
  }
  net_bounds_.resize(nl_->num_nets());
  for (NetId n = 0; n < static_cast<NetId>(net_bounds_.size()); ++n)
    net_bounds_[static_cast<std::size_t>(n)] = rescan(n);
}

void Placement::suspend_net_bounds() {
  TW_ASSERT(bounds_depth_ == 0, "suspend inside a mutator, depth=",
            bounds_depth_);
  net_bounds_.clear();
}

void Placement::bounds_open(std::span<const CellId> cells) {
  TW_ASSERT(bounds_depth_ == 0, "bounds_open inside a mutator, depth=",
            bounds_depth_);
  TW_ASSERT(cells.size() >= 1 && cells.size() <= open_cells_.size(),
            "bounds_open cells=", cells.size());
  ++bounds_depth_;  // enclosed mutator brackets nest-no-op from here on
  num_open_cells_ = cells.size();
  for (std::size_t i = 0; i < cells.size(); ++i) open_cells_[i] = cells[i];
  stage_open();
}

void Placement::bounds_close() {
  TW_ASSERT(bounds_depth_ == 1 && num_open_cells_ > 0,
            "unbalanced bounds_close, depth=", bounds_depth_);
  stage_close();
}

void Placement::bounds_commit() {
  TW_ASSERT(bounds_depth_ == 1 && num_open_cells_ > 0,
            "unbalanced bounds_commit, depth=", bounds_depth_);
  --bounds_depth_;
  stage_commit();
  num_open_cells_ = 0;
}

void Placement::bounds_revert() {
  TW_ASSERT(bounds_depth_ == 1 && num_open_cells_ > 0,
            "unbalanced bounds_revert, depth=", bounds_depth_);
  --bounds_depth_;
  if (tracked_) {
    // The cells are back in their bounds_open-time state, so the
    // positions checkpointed then are valid again (the restores
    // invalidated them).
    const Point* pos = pos_ckpt_.data();
    for (std::size_t i = 0; i < num_open_cells_; ++i) {
      for (const PinRec& r : pin_recs(open_cells_[i]))
        net_pos_[static_cast<std::size_t>(r.slot)] = *pos++;
      pin_pos_ok_[static_cast<std::size_t>(open_cells_[i])] = 1;
    }
  }
  tracked_ = false;
  num_open_cells_ = 0;
}

double Placement::bounds_c1() const {
  TW_ASSERT(bounds_depth_ == 1 && num_open_cells_ > 0,
            "bounds_c1 outside a bracket, depth=", bounds_depth_);
  double sum = 0.0;
  if (net_bounds_.empty()) {
    for (const StagedNet& s : stage_) sum += net_cost(s.net);  // lazy scans
  } else {
    for (const StagedNet& s : stage_) sum += cost_of(s.net, s.b.box());
  }
  return sum;
}

bool Placement::bounds_computable(CellId c) const {
  std::int8_t& memo = sound_[static_cast<std::size_t>(c)];
  if (memo != 0) return memo > 0;
  const Cell& cell = nl_->cell(c);
  const CellState& st = states_[static_cast<std::size_t>(c)];
  bool ok = static_cast<std::uint8_t>(st.orient) <= 7 && st.instance >= 0 &&
            static_cast<std::size_t>(st.instance) < cell.instances.size() &&
            st.pin_site.size() == cell.pins.size();
  if (ok) {
    const std::span<const PinRec> recs = pin_recs(c);
    for (std::size_t k = 0; k < recs.size(); ++k) {
      if (recs[k].fixed) continue;
      const int site = st.pin_site[k];
      if (site < 0 || static_cast<std::size_t>(site) >= st.sites.size()) {
        ok = false;
        break;
      }
    }
  }
  memo = ok ? 1 : -1;
  return ok;
}

void Placement::bounds_begin(CellId c) {
  if (bounds_depth_++ > 0) return;
  num_open_cells_ = 1;
  open_cells_[0] = c;
  tracked_ = false;
  if (!net_bounds_.empty()) stage_open();
}

void Placement::bounds_end() {
  TW_ASSERT(bounds_depth_ > 0, "unbalanced bounds_end");
  if (--bounds_depth_ > 0) return;
  stage_close();
  stage_commit();
  num_open_cells_ = 0;
}

void Placement::stage_open() {
  tracked_ = false;
  bool live = !net_bounds_.empty();
  for (std::size_t i = 0; live && i < num_open_cells_; ++i) {
    if (!bounds_computable(open_cells_[i])) {
      net_bounds_.clear();
      live = false;
    }
  }
  const auto bounds_of = [&](NetId n) {
    return live ? net_bounds_[static_cast<std::size_t>(n)] : NetBounds{};
  };
  // The nets in partial_c1's order: the first cell's (sorted), then the
  // second's not already staged, found by merging the two sorted lists.
  stage_.clear();
  const std::vector<NetId>& first =
      cell_nets_[static_cast<std::size_t>(open_cells_[0])];
  for (const NetId n : first) stage_.push_back({n, bounds_of(n)});
  if (num_open_cells_ == 2) {
    const std::vector<NetId>& second =
        cell_nets_[static_cast<std::size_t>(open_cells_[1])];
    stage_map_.resize(second.size());
    std::size_t i = 0;
    for (std::size_t k = 0; k < second.size(); ++k) {
      while (i < first.size() && first[i] < second[k]) ++i;
      if (i < first.size() && first[i] == second[k]) {
        stage_map_[k] = static_cast<std::int32_t>(i);
      } else {
        stage_map_[k] = static_cast<std::int32_t>(stage_.size());
        stage_.push_back({second[k], bounds_of(second[k])});
      }
    }
  }
  if (!live) return;
  pos_ckpt_.clear();
  for (std::size_t i = 0; i < num_open_cells_; ++i) {
    const CellId c = open_cells_[i];
    if (!pin_pos_ok_[static_cast<std::size_t>(c)]) refresh_pin_positions(c);
    for (const PinRec& r : pin_recs(c))
      pos_ckpt_.push_back(net_pos_[static_cast<std::size_t>(r.slot)]);
  }
  tracked_ = true;
}

void Placement::stage_close() {
  if (!tracked_ || net_bounds_.empty()) return;
  for (std::size_t i = 0; i < num_open_cells_; ++i) {
    if (!bounds_computable(open_cells_[i])) {
      // The mutation left the cell structurally unsound (restore() of a
      // corrupt snapshot): its pin positions cannot be computed, so the
      // cache cannot be maintained. Drop it; validate_placement() reports
      // the corruption, and the next resync rebuilds the cache.
      net_bounds_.clear();
      return;
    }
  }
  const auto staged = [&](std::size_t i, const PinRec& r) -> NetBounds& {
    const auto k = static_cast<std::size_t>(r.net_idx);
    return stage_[i == 0 ? k : static_cast<std::size_t>(stage_map_[k])].b;
  };
  // Old positions out, then new ones in; a boundary still unsupported
  // after the adds is the only case that needs the net's other pins.
  const Point* old = pos_ckpt_.data();
  for (std::size_t i = 0; i < num_open_cells_; ++i)
    for (const PinRec& r : pin_recs(open_cells_[i]))
      staged(i, r).remove(*old++);
  if constexpr (check::kLevel >= check::kLevelFull) {
    for ([[maybe_unused]] const StagedNet& s : stage_)
      TW_ASSERT_FULL(s.b.n_xlo >= 0 && s.b.n_xhi >= 0 && s.b.n_ylo >= 0 &&
                         s.b.n_yhi >= 0,
                     "net=", s.net, " negative boundary support");
  }
  for (std::size_t i = 0; i < num_open_cells_; ++i) {
    refresh_pin_positions(open_cells_[i]);
    for (const PinRec& r : pin_recs(open_cells_[i]))
      staged(i, r).add(net_pos_[static_cast<std::size_t>(r.slot)]);
  }
  for (StagedNet& s : stage_)
    if (s.b.unsupported()) s.b = rescan(s.net);
}

void Placement::stage_commit() {
  if (tracked_ && !net_bounds_.empty())  // else dropped at open or close
    for (const StagedNet& s : stage_)
      net_bounds_[static_cast<std::size_t>(s.net)] = s.b;
  tracked_ = false;
}

Placement::NetBounds Placement::rescan(NetId n) const {
  const auto k = static_cast<std::size_t>(n);
  const Point* first = net_pos_.data() + net_pin_begin_[k];
  const Point* last = net_pos_.data() + net_pin_begin_[k + 1];
  NetBounds b;
  for (const Point* p = first; p != last; ++p) {
    b.xlo = std::min(b.xlo, p->x);
    b.xhi = std::max(b.xhi, p->x);
    b.ylo = std::min(b.ylo, p->y);
    b.yhi = std::max(b.yhi, p->y);
  }
  for (const Point* p = first; p != last; ++p) {
    b.n_xlo += p->x == b.xlo;
    b.n_xhi += p->x == b.xhi;
    b.n_ylo += p->y == b.ylo;
    b.n_yhi += p->y == b.yhi;
  }
  return b;
}

std::string Placement::net_bounds_drift() const {
  if (net_bounds_.size() != nl_->num_nets())
    return "net-bound cache not initialized";
  if (bounds_depth_ != 0) return "net-bound check inside a mutator";
  for (const auto& net : nl_->nets()) {
    const NetBounds& b = net_bounds_[static_cast<std::size_t>(net.id)];
    NetBounds ref;
    int nx_lo = 0, nx_hi = 0, ny_lo = 0, ny_hi = 0;
    for (const PinId p : net.pins) {
      const Point pos = pin_position(p);
      ref.xlo = std::min(ref.xlo, pos.x);
      ref.xhi = std::max(ref.xhi, pos.x);
      ref.ylo = std::min(ref.ylo, pos.y);
      ref.yhi = std::max(ref.yhi, pos.y);
    }
    for (const PinId p : net.pins) {
      const Point pos = pin_position(p);
      nx_lo += pos.x == ref.xlo ? 1 : 0;
      nx_hi += pos.x == ref.xhi ? 1 : 0;
      ny_lo += pos.y == ref.ylo ? 1 : 0;
      ny_hi += pos.y == ref.yhi ? 1 : 0;
    }
    if (b.xlo != ref.xlo || b.xhi != ref.xhi || b.ylo != ref.ylo ||
        b.yhi != ref.yhi)
      return "net " + std::to_string(net.id) + " bounds drifted: cached (" +
             std::to_string(b.xlo) + ", " + std::to_string(b.ylo) + ", " +
             std::to_string(b.xhi) + ", " + std::to_string(b.yhi) +
             ") recomputed (" + std::to_string(ref.xlo) + ", " +
             std::to_string(ref.ylo) + ", " + std::to_string(ref.xhi) + ", " +
             std::to_string(ref.yhi) + ")";
    if (b.n_xlo != nx_lo || b.n_xhi != nx_hi || b.n_ylo != ny_lo ||
        b.n_yhi != ny_hi)
      return "net " + std::to_string(net.id) +
             " boundary support drifted: cached (" + std::to_string(b.n_xlo) +
             ", " + std::to_string(b.n_xhi) + ", " + std::to_string(b.n_ylo) +
             ", " + std::to_string(b.n_yhi) + ") recomputed (" +
             std::to_string(nx_lo) + ", " + std::to_string(nx_hi) + ", " +
             std::to_string(ny_lo) + ", " + std::to_string(ny_hi) + ")";
  }
  return {};
}

}  // namespace tw
