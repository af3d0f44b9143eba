// Write-ahead job records: the daemon's crash-durable memory of which
// jobs it promised to run.
//
// A live job's whole durable state is one directory, <dir>/job-<id>/: its
// record (record.twj: the job's id, parameters, netlist text and
// cancelled flag, framed like a cache entry) next to the checkpoint trees
// its replicas write (replica-<i>/). The record is written with
// recover::write_atomic, and so is in the kernel, before the client sees
// its ack: a daemon killed with SIGKILL at any instant (only power loss
// defeats this) finds exactly the jobs it ever promised to run by
// listing <dir>. A cancel rewrites the record whole. Removing
// the directory is the job's finished record: the record goes first (one
// unlink, the commit point), then the checkpoint trees, so a kill part
// way through leaves a directory without a record, which startup sweeps.
//
// Disk faults (full disk, short write) surface as typed ServeError(kIo),
// never a crash or a silently dropped record: write_atomic leaves the
// previous record, or none, in place. The injection seam is
// recover::DiskSite::kJournalWrite.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "recover/fault.hpp"
#include "serve/wire.hpp"

namespace tw::serve {

/// One submitted-but-not-finished job: what its record holds.
struct LiveJob {
  std::uint64_t job = 0;
  JobParams params;
  std::string netlist_yal;
  bool cancelled = false;  ///< a cancel arrived after the submit
};

class JobJournal {
 public:
  /// Opens the job root `dir`, creating it if missing. Throws
  /// ServeError(kIo) when it cannot be created.
  explicit JobJournal(std::string dir,
                      recover::DiskFaultInjector* disk_faults = nullptr);

  /// Startup: lists the job directories. Returns every job whose record
  /// reads back, ascending by id; removes every job directory whose
  /// record is missing or does not read, with a log line. Never throws
  /// for what the directories hold: they are daemon-owned state, and
  /// startup must make the best of what survived.
  std::vector<LiveJob> recover();

  /// Writes `job`'s record, creating its directory first; a later write
  /// for the same id replaces the record whole. Throws ServeError(kIo)
  /// on failure, leaving the previous record in place; a job's first
  /// write that fails removes its directory again.
  void write(const LiveJob& job);

  /// Removes job `id`'s directory: the record first, then everything
  /// else the job left there. Failures are logged; false when any part
  /// of the directory is left on disk.
  bool remove(std::uint64_t id);

  /// The directory that holds job `id`'s record and checkpoint trees.
  std::string job_dir(std::uint64_t id) const;

  /// Largest id of a job directory recover() found (0 when none).
  std::uint64_t max_job() const { return max_job_; }
  /// Bytes of the live records (the disk-budget measure).
  std::uint64_t bytes() const;
  /// Live records: written or recovered, not yet removed.
  int records() const { return static_cast<int>(record_bytes_.size()); }

 private:
  std::string dir_;
  recover::DiskFaultInjector* disk_faults_ = nullptr;
  std::uint64_t max_job_ = 0;
  std::map<std::uint64_t, std::uint64_t> record_bytes_;  ///< id -> bytes
};

}  // namespace tw::serve
