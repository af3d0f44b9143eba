// Placement state: everything the annealer may change about a cell —
// center position, orientation, selected instance, realized aspect ratio
// (custom cells), and the assignment of uncommitted pins to pin sites.
// The Netlist itself is never modified.
//
// Net bounding boxes are cached incrementally, TimberWolf-style: each net
// keeps its min/max pin coordinate per axis plus a support count of how
// many pins sit exactly on each boundary. A mutation of one or two cells
// is priced on a staged copy of their nets' bounds: the old pin positions
// are removed from the copy, the new ones added, and only a net left with
// an unsupported boundary is rescanned from all its pins. The copy is
// written into the cache on commit and dropped on revert. Pin positions
// live in a net-major array and each cell's pins in a flat cell-major
// table, so the maintenance never touches the netlist's Pin, Cell or Net
// records. net_cost after a move is O(pins-of-cell) instead of
// O(pins-of-net), and net_bounds_drift() proves the cache against a full
// recompute.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/pin_sites.hpp"
#include "util/rng.hpp"

namespace tw {

struct CellState {
  Point center;                ///< center of the oriented bounding box
  Orient orient = Orient::N;
  InstanceId instance = 0;
  double aspect = 1.0;         ///< realized aspect (custom cells)

  /// Realized geometry for custom cells (recomputed on aspect changes);
  /// empty tiles for macro cells, whose geometry lives in the netlist.
  CellInstance realized;

  /// Pin sites of the current realization (custom cells only).
  std::vector<PinSite> sites;
  /// Per local pin index: assigned site, or -1 for fixed pins.
  std::vector<int> pin_site;
  /// Number of pins currently assigned to each site (C_t in Eqn 10).
  std::vector<int> site_occupancy;
};

class Placement {
public:
  explicit Placement(const Netlist& nl);

  const Netlist& netlist() const { return *nl_; }

  // --- queries -------------------------------------------------------------

  const CellState& state(CellId c) const {
    return states_[static_cast<std::size_t>(c)];
  }

  /// The geometry realizing cell `c` right now (selected instance for
  /// macros, aspect realization for custom cells).
  const CellInstance& geometry(CellId c) const;

  /// Oriented bounding box in chip coordinates.
  Rect bbox(CellId c) const;

  /// Lower-left corner of the oriented bbox in chip coordinates.
  Point origin(CellId c) const;

  /// Tiles in chip coordinates.
  std::vector<Rect> absolute_tiles(CellId c) const;

  /// Absolute position of a pin (committed or sited).
  Point pin_position(PinId p) const;

  /// Bounding box of a net's pin positions.
  Rect net_bbox(NetId n) const;

  /// x-span * h(n) + y-span * v(n) for one net (one term of Eqn 6).
  double net_cost(NetId n) const;

  /// Full TEIC (Eqn 6). O(total pins); used for (re)synchronisation and
  /// tests — the annealer tracks it incrementally.
  double teic() const;

  /// Full TEIL: the TEIC with all net weights forced to 1 (Section 3).
  double teil() const;

  /// Nets that have at least one pin on cell `c` (deduplicated).
  const std::vector<NetId>& nets_of_cell(CellId c) const {
    return cell_nets_[static_cast<std::size_t>(c)];
  }

  // --- mutators --------------------------------------------------------------

  void set_center(CellId c, Point center);
  void set_orient(CellId c, Orient o);
  void set_instance(CellId c, InstanceId k);

  /// Re-realizes a custom cell at the given aspect ratio (clamped to the
  /// cell's legal range). Pin sites are regenerated and existing site
  /// assignments remapped by site index (the per-edge structure is
  /// preserved across aspect changes).
  void set_aspect(CellId c, double aspect);

  /// Moves one uncommitted, ungrouped pin to a site.
  void assign_pin_to_site(CellId c, int local_pin, int site);

  /// Moves a pin group: sequenced groups occupy consecutive sites starting
  /// at `start_site` along the chosen side; unsequenced groups place their
  /// pins cyclically from `start_site`.
  void assign_group(CellId c, GroupId g, Side side, int start_site);

  /// Snapshot/restore of one cell's full state (used by MoveTxn to revert
  /// rejected moves). Copy-assigns so the snapshot's buffers are reusable.
  CellState snapshot(CellId c) const { return state(c); }
  void restore(CellId c, const CellState& s);

  /// Rebuilds one cell's full state from checkpointed essentials (see
  /// src/recover/checkpoint.hpp): selects the instance, re-realizes the
  /// custom aspect (a pure function of (cell, aspect), so the derived
  /// geometry and pin sites come back bit-identical), then applies the
  /// pin-site assignment verbatim and recounts occupancy. Throws
  /// std::invalid_argument on any inconsistency (wrong pin count, site
  /// out of range, a site on a fixed pin) — corrupt checkpoints must
  /// never produce a structurally invalid placement.
  void restore_cell(CellId c, Point center, Orient o, InstanceId instance,
                    double aspect, const std::vector<int>& pin_site);

  /// Uniform random initial configuration inside `core`: random centers,
  /// random orientations, random pin-site assignments. (Section 3.2.1: the
  /// initial state has no influence on the final TEIC.)
  void randomize(Rng& rng, const Rect& core);

  /// Sum of E(s)^2 over this cell's sites (the cell's share of Eqn 11).
  double site_penalty(CellId c, double kappa) const;

  /// Number of sites with occupancy above capacity, over all cells.
  int overloaded_sites() const;

  /// Rebuilds every cached net bound from scratch (O(total pins)). Leaves
  /// the cache dropped when a cell's pin positions cannot be computed.
  void resync_net_bounds();

  /// Drops the net-bound cache until the next resync_net_bounds():
  /// mutators skip maintenance and net_bbox scans lazily. For bulk reloads
  /// that rewrite every cell, where one resync is cheaper than a staged
  /// bracket per cell.
  void suspend_net_bounds();

  /// One net-bound bracket over a transaction's mutations of `cells` (one
  /// cell, or two for an interchange); the enclosed mutators' own
  /// brackets nest-no-op. bounds_open checkpoints the cells' pin
  /// positions and stages their nets' live bounds; bounds_close prices the
  /// mutations on that stage (old positions out, new ones in, a rescan
  /// only where a boundary lost all support). The live cache is untouched
  /// until bounds_commit() writes the stage into it; bounds_revert()
  /// instead writes the checkpointed positions back and drops the stage.
  /// Contract for the revert: the caller has restored the cells to their
  /// bounds_open-time state (MoveTxn restores its begin() snapshots inside
  /// the bracket). Between bounds_close and the commit, net_bbox/net_cost
  /// still read the old bounds; bounds_c1() reads the stage.
  void bounds_open(std::span<const CellId> cells);
  void bounds_close();
  void bounds_commit();
  void bounds_revert();

  /// C1 over the open bracket's nets, summed in CostModel::partial_c1's
  /// order (the first cell's nets, then the second's not already seen):
  /// the before-term after bounds_open, the after-term after bounds_close.
  double bounds_c1() const;

  /// Recomputes every net bound from scratch and compares it (values and
  /// support counts) against the incremental cache. Returns an empty
  /// string when consistent, otherwise a description of the first drifted
  /// net. Used by CostAudit checkpoints and the equivalence fuzz.
  std::string net_bounds_drift() const;

private:
  /// Cached bounding box of one net's pin positions plus the number of
  /// pins supporting each boundary. Defaults are the empty-net sentinel
  /// (xlo > xhi), matching what a from-scratch scan of zero pins yields.
  struct NetBounds {
    Coord xlo = std::numeric_limits<Coord>::max();
    Coord xhi = std::numeric_limits<Coord>::min();
    Coord ylo = std::numeric_limits<Coord>::max();
    Coord yhi = std::numeric_limits<Coord>::min();
    int n_xlo = 0;
    int n_xhi = 0;
    int n_ylo = 0;
    int n_yhi = 0;

    /// Takes a pin off the support counts. A boundary may be left with
    /// zero support (its value is then stale) until later adds or a
    /// rescan settle it.
    void remove(Point p) {
      n_xlo -= p.x == xlo;
      n_xhi -= p.x == xhi;
      n_ylo -= p.y == ylo;
      n_yhi -= p.y == yhi;
    }
    /// Grows the bounds by a pin. Correct after removes too: every pin
    /// still counted lies strictly inside a boundary whose support
    /// dropped to zero, so a pin at or beyond it is its new supporter.
    void add(Point p) {
      n_xlo = p.x < xlo ? 1 : n_xlo + (p.x == xlo);
      n_xhi = p.x > xhi ? 1 : n_xhi + (p.x == xhi);
      n_ylo = p.y < ylo ? 1 : n_ylo + (p.y == ylo);
      n_yhi = p.y > yhi ? 1 : n_yhi + (p.y == yhi);
      xlo = std::min(xlo, p.x);
      xhi = std::max(xhi, p.x);
      ylo = std::min(ylo, p.y);
      yhi = std::max(yhi, p.y);
    }
    bool unsupported() const {
      return (n_xlo == 0) | (n_xhi == 0) | (n_ylo == 0) | (n_yhi == 0);
    }
    Rect box() const { return {xlo, ylo, xhi, yhi}; }
  };

  /// One pin in the cell-major table: the cell's pins in Cell::pins order.
  struct PinRec {
    PinId pin = -1;
    NetId net = -1;
    std::int32_t slot = 0;     ///< index of the pin's position in net_pos_
    std::int32_t net_idx = 0;  ///< index of `net` in nets_of_cell(cell)
    bool fixed = false;        ///< PinCommit::kFixed: position from offsets
  };

  struct NetWeight {
    double h = 1.0;  ///< h(n) in Eqn 6
    double v = 1.0;  ///< v(n) in Eqn 6
  };

  /// A staged net: its live bounds at bounds_open, then, after
  /// bounds_close, its bounds as the bracket's mutations leave them.
  struct StagedNet {
    NetId net = -1;
    NetBounds b;
  };

  /// RAII bracket around one top-level mutation of cell `c`: it stages
  /// and commits the same way a transaction does, at once. Nested mutator
  /// calls (restore_cell's internals, assign_group's per-pin assignments)
  /// no-op via a depth counter so each pin is priced exactly once.
  class BoundsScope {
  public:
    BoundsScope(Placement& p, CellId c) : p_(p) { p_.bounds_begin(c); }
    ~BoundsScope() { p_.bounds_end(); }
    BoundsScope(const BoundsScope&) = delete;
    BoundsScope& operator=(const BoundsScope&) = delete;

  private:
    Placement& p_;
  };

  void realize_custom_state(CellId c, double aspect);
  void rebuild_occupancy(CellId c);

  Rect net_bbox_scan(NetId n) const;
  /// Recomputes the absolute positions of all of `c`'s pins into net_pos_
  /// in one pass over its pin records (geometry, orientation and origin
  /// are resolved once per cell into one affine map).
  void refresh_pin_positions(CellId c) const;
  /// The uncached per-pin computation, for structurally unsound cells
  /// (restore() of a corrupt snapshot) where a whole-cell refresh could
  /// throw on a *different* pin than the one queried.
  Point pin_position_uncached(PinId p) const;
  void invalidate_pin_positions(CellId c) {
    pin_pos_ok_[static_cast<std::size_t>(c)] = 0;
    sound_[static_cast<std::size_t>(c)] = 0;  // re-check on next query
  }
  /// True when the cell's state is structurally sound enough to compute
  /// its pin positions (valid orient/instance, in-range site indices).
  /// restore() accepts arbitrary snapshots — including deliberately
  /// corrupt ones that validate_placement() must *report*, not crash on —
  /// so the net-bound cache is dropped instead of maintained when a
  /// mutation leaves a cell uncomputable (net_bbox falls back to lazy
  /// scans until the next resync).
  bool bounds_computable(CellId c) const;
  void bounds_begin(CellId c);
  void bounds_end();
  /// The bracket's three steps on open_cells_, shared by transactions and
  /// standalone mutators: stage the nets and checkpoint the positions,
  /// price the mutations on the stage, write the stage into the cache.
  void stage_open();
  void stage_close();
  void stage_commit();
  /// The cell's pin records, in Cell::pins order.
  std::span<const PinRec> pin_recs(CellId c) const {
    const auto k = static_cast<std::size_t>(c);
    return {pin_recs_.data() + cell_pin_begin_[k],
            pin_recs_.data() + cell_pin_begin_[k + 1]};
  }
  /// A net's bounds from its pins' positions: a min/max pass, then a
  /// support-count pass, over its contiguous span of net_pos_.
  NetBounds rescan(NetId n) const;
  /// One term of Eqn 6 for net `n` spanning `bb`.
  double cost_of(NetId n, const Rect& bb) const {
    const NetWeight& w = net_weight_[static_cast<std::size_t>(n)];
    return static_cast<double>(bb.width()) * w.h +
           static_cast<double>(bb.height()) * w.v;
  }

  const Netlist* nl_;
  std::vector<CellState> states_;
  std::vector<std::vector<NetId>> cell_nets_;
  /// pin id -> index within its cell's pin list.
  std::vector<int> local_index_;

  // --- flat pin tables (built once by the constructor) ----------------------
  std::vector<PinRec> pin_recs_;              ///< cell-major
  std::vector<std::int32_t> cell_pin_begin_;  ///< per cell: first record; + end
  std::vector<std::int32_t> net_pin_begin_;   ///< per net: first slot; + end
  std::vector<std::int32_t> pin_slot_;        ///< per pin: slot in net_pos_
  std::vector<NetWeight> net_weight_;

  // --- absolute pin positions (net-major, lazily refilled per cell) ---------
  mutable std::vector<Point> net_pos_;            ///< per slot
  mutable std::vector<std::uint8_t> pin_pos_ok_;  ///< per cell validity
  /// Memoized bounds_computable verdict: 0 unknown, 1 sound, -1 unsound.
  /// Invalidated with the pin cache on every mutation.
  mutable std::vector<std::int8_t> sound_;

  // --- incremental net-bound cache (empty until the constructor's final
  // --- resync, during which mutators skip maintenance) ---------------------
  std::vector<NetBounds> net_bounds_;
  int bounds_depth_ = 0;                 ///< mutator nesting depth
  std::array<CellId, 2> open_cells_{};   ///< cells of the open bracket
  std::size_t num_open_cells_ = 0;

  // --- the open bracket's stage (reused buffers) ----------------------------
  std::vector<StagedNet> stage_;         ///< partial_c1's net order
  /// The second open cell's net_idx -> its net's index in stage_.
  std::vector<std::int32_t> stage_map_;
  std::vector<Point> pos_ckpt_;          ///< open cells' positions at open
  bool tracked_ = false;  ///< the cache was live and pos_ckpt_ taken at open
};

}  // namespace tw
