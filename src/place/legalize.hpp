// Overlap removal ("legalization").
//
// Stage 1 ends with a small residual cell overlap (the paper tracks it as
// the value of C2 at T -> T0 and tunes rho to minimize it). The channel
// definition of Section 4.1 presumes non-overlapping cells — an edge that
// cuts through another cell invalidates every critical region around it —
// so stage 2 first removes the residue with a simple separation pass:
// overlapping pairs are pushed apart along the axis of least penetration,
// and cells are pulled back inside the core.
#pragma once

#include "place/placement.hpp"

namespace tw {

struct LegalizeResult {
  int iterations = 0;
  Coord initial_overlap = 0;  ///< bare-tile overlap before
  Coord final_overlap = 0;    ///< bare-tile overlap after (0 on success)
  bool repacked = false;      ///< the row-repack fallback was needed
  bool success() const { return final_overlap == 0; }
};

/// Deterministic fallback legalizer: slices the cells into rows by their
/// current y, orders each row by x, and re-packs rows bottom-up inside the
/// core with `margin` spacing. Always produces an overlap-free placement;
/// coarser than legalize_spread but preserves the placement's global
/// structure.
void legalize_repack(Placement& placement, const Rect& core, Coord margin);

/// Escalation step between spreading and repacking: moves each cell that
/// still overlaps others to the nearest free pocket large enough to hold
/// it (plus `margin` all around). Returns true when the placement ends
/// overlap-free.
bool relocate_overlapping(Placement& placement, const Rect& core,
                          Coord margin);

/// Separates overlapping cells and clamps every cell into `core`.
/// Deterministic; at most 300 sweeps. `margin` is an extra separation
/// beyond "just touching" — stage 2 passes ~2 track pitches so that every
/// channel keeps a nonzero width and the free space (and hence the channel
/// graph) stays connected.
LegalizeResult legalize_spread(Placement& placement, const Rect& core,
                               Coord margin = 0);

/// Total bare-tile pairwise overlap of the placement (no expansions, no
/// border term) — the legality measure.
Coord bare_overlap(const Placement& placement);

}  // namespace tw
