// Versioned, CRC-validated checkpoints of the full flow state.
//
// A FlowCheckpoint holds everything needed to restart an interrupted run
// such that the continuation is byte-identical to the uninterrupted one:
// the master seed, a digest of the netlist it was taken on, the phase
// (stage 1, stage 2 or multilevel refinement), the phase cursor (schedule
// position, calibrations, accumulated metrics, RNG stream state — see
// Stage1Cursor/Stage2Cursor), and the placement essentials. Derived
// placement state (realized custom geometry, pin sites, occupancy) is
// *recomputed* on load through pure functions of the netlist, so it comes
// back bit-identical without being stored.
//
// File format (docs/ROBUSTNESS.md):
//   magic "TWCP" | u32 version | u32 payload size | u32 CRC-32 | payload
// all little-endian. Files are written atomically (recover/durable.hpp), so
// a crash mid-write never leaves a half-written file under the final name;
// a torn or bit-flipped file fails the size or CRC check with a typed
// CheckpointError instead of producing garbage state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "place/stage1.hpp"
#include "recover/fault.hpp"
#include "recover/serialize.hpp"
#include "refine/stage2.hpp"

namespace tw::recover {

/// Bumped on any incompatible change to the payload encoding. Readers
/// reject other versions with kBadVersion (no silent migration).
/// Version history: 2 added stage-2 cursors; 3 added the multilevel
/// refinement phase (kMultilevelRefine + its warm-start fields); 4 added
/// a parallel stage-1 phase (phase byte 3); 5 retired it with its engine,
/// so phase byte 3 is corrupt again.
inline constexpr std::uint32_t kCheckpointVersion = 5;

/// The annealer-owned essentials of one cell; everything else in CellState
/// is a pure function of (netlist, these) and is rebuilt on restore.
struct PackedCell {
  Point center;
  Orient orient = Orient::N;
  InstanceId instance = 0;
  double aspect = 1.0;
  std::vector<int> pin_site;
};

struct PackedPlacement {
  std::vector<PackedCell> cells;
};

PackedPlacement pack_placement(const Placement& p);

/// Restores packed cell states onto a placement of the same netlist.
/// Throws CheckpointError(kCorrupt) when the packed state is inconsistent
/// with the netlist (wrong cell count, illegal orient/aspect/site, ...).
void apply_placement(Placement& p, const PackedPlacement& packed);

enum class FlowPhase : std::uint8_t {
  kStage1 = 0,            ///< TimberWolfMC flow, stage-1 anneal in flight
  kStage2 = 1,            ///< TimberWolfMC flow, stage-2 refinement in flight
  kMultilevelRefine = 2   ///< MultilevelFlow, refinement anneal in flight
};
const char* to_string(FlowPhase p);

/// Stable digest of the netlist (FNV-1a over its canonical text form):
/// resuming against a different netlist is a typed error, never UB.
std::uint64_t netlist_digest(const Netlist& nl);

struct FlowCheckpoint {
  std::uint64_t master_seed = 0;
  std::uint64_t digest = 0;  ///< netlist_digest of the source netlist
  FlowPhase phase = FlowPhase::kStage1;

  /// Valid when phase == kStage1 or kMultilevelRefine (the multilevel
  /// refinement is a stage-1 anneal; its cursor rides here).
  Stage1Cursor s1;

  /// Valid when phase == kMultilevelRefine: the warm start is complete and
  /// these carry its outputs (MultilevelResult's warm-start metrics are
  /// reported from here on resume — the warm start is never re-run).
  Stage1Result ml_coarse;      ///< coarse-level anneal (cluster source)
  double ml_warm_teil = 0.0;   ///< TEIL of the projected warm placement
  std::int32_t ml_clusters = 0;
  std::int32_t ml_dropped_nets = 0;

  /// Valid when phase == kStage2: stage 1 is complete and these carry its
  /// outputs (the flow result's stage-1 metrics are reported from here,
  /// and the stage-2 cursor interprets core/t_infinity/scale from s1_done).
  Stage1Result s1_done;
  double stage1_teil = 0.0;
  Coord stage1_chip_area = 0;
  Stage2Cursor s2;

  PackedPlacement placement;
};

std::vector<std::uint8_t> encode_checkpoint(const FlowCheckpoint& cp);
FlowCheckpoint decode_checkpoint(std::span<const std::uint8_t> bytes);

/// Frames and writes a checkpoint atomically: encode, then write magic /
/// version / size / CRC / payload to `path + ".tmp"`, then rename onto
/// `path`. Throws CheckpointError(kIo) on filesystem failure.
void write_checkpoint_file(const std::string& path, const FlowCheckpoint& cp);

/// Reads a checkpoint file back, validating frame, size and CRC before
/// decoding. Throws CheckpointError with the matching code on any defect.
FlowCheckpoint load_checkpoint(const std::string& path);

/// Writes numbered checkpoint files (<dir>/ckpt-000042.twcp) with a
/// monotonic in-process counter — no wall clock, no randomness, so runs
/// stay reproducible. Creates `dir` if needed; numbering continues after
/// the largest file already present, so a retried run never writes below
/// an earlier attempt's files (find_latest_checkpoint would otherwise keep
/// returning the stale, higher-numbered one).
///
/// Every failure — unwritable directory, failed open, short write, failed
/// close or rename — surfaces as CheckpointError(kIo); a checkpoint is
/// never silently dropped.
class FileCheckpointSink {
 public:
  /// `keep` > 0 bounds the directory: after each save, all but the newest
  /// `keep` checkpoint files are pruned (each removal is an atomic unlink,
  /// and pruning runs only after the new file is durably renamed in, so
  /// the newest `keep` files always exist). `keep` == 0 keeps everything.
  ///
  /// `quota_bytes` > 0 bounds the directory by *size*: a save whose frame
  /// would push the checkpoint bytes on disk past the quota first prunes
  /// what retention allows, then — if still over — refuses with a typed
  /// CheckpointError(kQuotaExceeded) *before* writing anything. The
  /// caller (the replica supervisor) treats that like any other
  /// checkpoint failure and degrades to checkpoint-off; the quota is
  /// never exceeded and never silently "fixed" by dropping the newest
  /// state.
  ///
  /// `disk_faults`, when set, is polled (DiskSite::kCheckpointWrite)
  /// before each write so tests can script ENOSPC / short-write failures
  /// (docs/ROBUSTNESS.md "Disk-fault injection").
  explicit FileCheckpointSink(std::string dir, int keep = 0,
                              std::uint64_t quota_bytes = 0,
                              DiskFaultInjector* disk_faults = nullptr);

  /// Writes the next numbered file; returns the path written.
  std::string save(const FlowCheckpoint& cp);

  int saved() const { return saved_; }
  const std::string& dir() const { return dir_; }
  int keep() const { return keep_; }

  /// Checkpoint bytes currently on disk in `dir` (frame + payload, as
  /// maintained across saves and prunes by this sink instance).
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t quota_bytes() const { return quota_bytes_; }

  /// Retention-prune removals that failed since construction. Each failure
  /// is also logged (path + errno) the moment it happens: pruning trouble
  /// is an early symptom of the disk problems that later surface as kIo
  /// write failures, so it must never be silent.
  int prune_failures() const { return prune_failures_; }

 private:
  /// Removes checkpoint files numbered <= `upto`, keeping `bytes_` true.
  void prune_upto(int upto);

  std::string dir_;
  int keep_ = 0;
  std::uint64_t quota_bytes_ = 0;
  DiskFaultInjector* disk_faults_ = nullptr;
  int counter_ = 0;  ///< number of the last file written (resumes from dir)
  int saved_ = 0;    ///< files written by *this* sink instance
  std::uint64_t bytes_ = 0;  ///< checkpoint bytes on disk in dir_
  int prune_failures_ = 0;
};

/// Path of the newest *valid* checkpoint in `dir`: candidates (ckpt-NNNNNN
/// names) are probed newest-first with load_checkpoint, and files that
/// fail the frame/CRC/decode checks are skipped — a torn or bit-rotted
/// newest file falls back to the next older one instead of poisoning the
/// resume. Returns nullopt when the directory holds no valid checkpoint.
std::optional<std::string> find_latest_checkpoint(const std::string& dir);

/// Checkpoint adoption: the newest valid checkpoint in `dir` that belongs
/// to (`digest`, optionally `seed`) — the supervised-retry and crash-
/// recovery entry point shared by the replica pool and the placement
/// service. Candidates are probed newest-first; files that fail the
/// frame/CRC/decode checks, or that were taken on a different netlist (a
/// stale directory), or — when `seed` is given — under a different master
/// seed, are skipped. Returns nullopt when nothing adoptable survives.
std::optional<FlowCheckpoint> adopt_checkpoint(
    const std::string& dir, std::uint64_t digest,
    std::optional<std::uint64_t> seed = std::nullopt);

}  // namespace tw::recover
