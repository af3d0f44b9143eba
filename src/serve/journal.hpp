// Write-ahead job journal: the daemon's crash-durable source of truth.
//
// Every accepted submission is appended (and flushed to the kernel)
// *before* the client sees its ack, so a daemon killed with SIGKILL at
// any instant can reconstruct exactly the set of jobs it ever promised to
// run: replay the journal, drop the ones with a terminal record, re-adopt
// the rest from their surviving checkpoints. Records use the same
// defensive framing as everything else this package persists —
// size | CRC-32 | payload — and replay is torn-tail tolerant: a crash
// mid-append leaves a truncated or CRC-broken final record, which replay
// drops (reporting it) while keeping every record before it. Appends are
// strictly sequential, so any valid prefix is a consistent history.
//
// The journal is a directory of numbered segments (seg-NNNNNN.twj).
// Appends go to the newest segment; when a record would push it past
// max_segment_bytes the writer rotates to a fresh segment, so no single
// file grows without bound and a record (a submit and its later cancel
// marker, say) may land in different segments. Replay walks the segments
// in numeric order as one logical stream. A torn tail is legitimate only
// in the *newest* segment (only it was ever mid-append); a bad record in
// an older segment means on-disk damage — replay still salvages
// everything else, but flags it separately (torn_interior).
//
// compact() bounds total size: it rewrites only still-live jobs into one
// fresh segment (recover::write_atomic, numbered above every existing
// segment) and then unlinks the old segments. A crash between the rename
// and the unlinks is safe: replay of old-segments-plus-compacted-segment
// converges to the same live set, because re-submits of an id already
// seen (or already finished) are ignored.
//
// Disk faults (full disk, short write) surface as typed ServeError(kIo),
// never a crash or a silently-dropped record; the injection seam
// (recover::DiskFaultInjector, sites kJournalAppend and kJournalRotate,
// the latter for rotation and compaction) lets tests script them.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "recover/fault.hpp"
#include "serve/wire.hpp"

namespace tw::serve {

/// One submitted-but-not-finished job reconstructed by replay.
struct LiveJob {
  std::uint64_t job = 0;
  JobParams params;
  std::string netlist_yal;
  bool cancelled = false;  ///< a cancel record followed the submit
};

/// Everything replay learns from a journal directory.
struct JournalReplay {
  std::vector<LiveJob> live;    ///< submitted, no terminal record (in order)
  std::uint64_t max_job = 0;    ///< highest job id ever journaled
  int records = 0;              ///< valid records read
  int dropped = 0;              ///< finished/cancelled-away submissions
  int segments = 0;             ///< segment files found
  bool torn_tail = false;       ///< newest segment ended mid-record
  bool torn_interior = false;   ///< an *older* segment held a bad record
};

class JobJournal {
 public:
  /// Opens the journal directory `dir` (created if missing), resuming
  /// after the highest-numbered existing segment. `max_segment_bytes`
  /// caps each segment (a single record larger than the cap still gets
  /// its own segment — records are never split). Throws ServeError(kIo)
  /// when the directory or active segment cannot be opened.
  explicit JobJournal(std::string dir,
                      std::uint64_t max_segment_bytes = 1u << 20,
                      recover::DiskFaultInjector* disk_faults = nullptr);

  /// Appends + flushes one record; throws ServeError(kIo) on write
  /// failure. The flush pushes the record to the kernel, which is what
  /// kill -9 survivability requires (only power loss defeats it).
  void record_submitted(std::uint64_t job, const JobParams& params,
                        const std::string& netlist_yal);
  void record_finished(std::uint64_t job);
  void record_cancelled(std::uint64_t job);

  /// Rewrites the journal keeping only `live` jobs' submit records
  /// (their cancel markers preserved): one fresh segment via atomic
  /// temp + rename, then the old segments are unlinked. Throws
  /// ServeError(kIo) on failure; the old segments survive intact in that
  /// case (replay still converges either way — see file comment).
  void compact(const std::vector<LiveJob>& live);

  int appended() const { return appended_; }
  /// Total bytes across all segment files (the disk-budget measure).
  std::uint64_t bytes() const { return total_bytes_; }
  int segments() const { return segments_; }
  const std::string& dir() const { return dir_; }

  /// Reads a journal directory back. A missing directory is an empty
  /// history, not an error. Never throws for content defects — a journal
  /// is daemon-owned state, and replay must always make the best of what
  /// survived.
  static JournalReplay replay(const std::string& dir);

 private:
  void append(const std::vector<std::uint8_t>& payload);
  void open_segment(int number);

  std::string dir_;
  std::uint64_t max_segment_bytes_ = 1u << 20;
  recover::DiskFaultInjector* disk_faults_ = nullptr;
  std::ofstream out_;
  int seg_ = 0;                     ///< number of the active segment
  int segments_ = 0;                ///< segment files on disk
  std::uint64_t seg_bytes_ = 0;     ///< bytes in the active segment
  std::uint64_t total_bytes_ = 0;   ///< bytes across all segments
  int appended_ = 0;
};

}  // namespace tw::serve
