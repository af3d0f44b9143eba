// Deterministic fault injection for crash-recovery testing.
//
// A FaultPlan arms "kill the flow at the Nth poll of site S" triggers.
// The annealers poll at their accept and temperature-step boundaries — the
// exact boundaries checkpoints are written at — so a test can reproduce a
// crash at any point of the schedule, then prove that resuming from the
// latest checkpoint yields a byte-identical fingerprint to the
// uninterrupted run. Polls are counted, not timed, so a given plan kills
// the same (netlist, params, seed) run at the same state every time.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace tw::recover {

/// Poll sites instrumented in the flow.
enum class FaultSite : std::uint8_t {
  kStage1Step = 0,   ///< top of a stage-1 temperature step
  kStage1Accept,     ///< after an accepted stage-1 move
  kStage2Step,       ///< top of a stage-2 refinement-anneal temperature step
  kStage2Accept,     ///< after an accepted stage-2 move
  kStage2Pass,       ///< start of a stage-2 refinement pass
  kRouteNet,         ///< before each net the global router (stage 3) routes
};

inline constexpr std::size_t kNumFaultSites = 6;

const char* to_string(FaultSite site);

/// Thrown by FaultPlan::poll when an armed trigger fires. Models the
/// process dying at that boundary: the flow makes no attempt to catch it,
/// so it unwinds out of TimberWolfMC::run just like a crash would end the
/// process — except the test harness survives to resume.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(FaultSite site, std::int64_t count);

  FaultSite site() const { return site_; }
  /// Zero-based index of the poll that fired.
  std::int64_t count() const { return count_; }

 private:
  FaultSite site_;
  std::int64_t count_;
};

/// The poll interface the flow is instrumented against. The annealers call
/// `poll(site)` at their step/accept/pass boundaries whenever an injector
/// is installed; an implementation may throw to model the run dying at
/// that exact boundary (FaultPlan for scripted crash tests, the replica
/// pool's watchdog probe for in-process kills of stuck workers). Polls
/// never consume RNG state, so an instrumented run is byte-identical to a
/// bare one up to the kill point.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Counts one poll of `site`; may throw to kill the run at this
  /// boundary. Must be deterministic in the poll sequence alone (no
  /// wall-clock, no randomness) so a given run dies at the same state
  /// every time.
  virtual void poll(FaultSite site) = 0;
};

class FaultPlan : public FaultInjector {
 public:
  /// Arms a kill at the `nth` (zero-based) poll of `site`. Multiple arms
  /// may be registered; each fires at most once.
  void kill_at(FaultSite site, std::int64_t nth);

  /// Counts one poll of `site`; throws InjectedFault when an armed
  /// trigger matches. No-op (beyond counting) otherwise.
  void poll(FaultSite site) override;

  /// Polls seen so far at `site` (useful for sizing test plans).
  std::int64_t count(FaultSite site) const {
    return counts_[static_cast<std::size_t>(site)];
  }

 private:
  struct Arm {
    FaultSite site;
    std::int64_t nth;
    bool fired = false;
  };

  std::vector<Arm> arms_;
  std::array<std::int64_t, kNumFaultSites> counts_{};
};

// --- disk-fault injection ---------------------------------------------------
//
// The durability layers (checkpoint sink, job journal, result cache) all
// end in "write bytes to disk" operations whose failure modes — ENOSPC,
// short writes from a dying device — are what their degraded modes exist
// for, yet are nearly impossible to provoke in a test without root
// tricks. The seam below lets a test script those failures at exact
// write indices: each durable-write site polls `write_fault(site)`
// before touching the filesystem and translates a non-kNone answer into
// the same typed error a real failure would produce (for kShortWrite,
// after leaving a genuinely truncated temp file behind, so torn-state
// handling is exercised too). Polls are counted, never timed.

/// Instrumented durable-write sites.
enum class DiskSite : std::uint8_t {
  kCheckpointWrite = 0,  ///< FileCheckpointSink::save
  kJournalWrite,         ///< a live job's record write (submit, cancel)
  kCacheWrite,           ///< result-cache entry write
};

inline constexpr std::size_t kNumDiskSites = 3;

const char* to_string(DiskSite site);

/// What a polled write should pretend happened.
enum class DiskFault : std::uint8_t {
  kNone = 0,    ///< write proceeds normally
  kEnospc,      ///< fail before writing anything (disk full)
  kShortWrite,  ///< write a truncated prefix, then fail (torn record)
};

const char* to_string(DiskFault fault);

/// The poll interface the durable-write sites are instrumented against.
/// Unlike FaultInjector this is polled from several threads at once (the
/// daemon thread journals while pool workers checkpoint), so
/// implementations must be thread-safe.
class DiskFaultInjector {
 public:
  virtual ~DiskFaultInjector() = default;

  /// Counts one write at `site`; returns the fault the writer must
  /// simulate. Deterministic in the per-site poll sequence alone.
  virtual DiskFault write_fault(DiskSite site) = 0;
};

class DiskFaultPlan : public DiskFaultInjector {
 public:
  /// Arms a one-shot fault at the `nth` (zero-based) write to `site`.
  void fail_at(DiskSite site, std::int64_t nth,
               DiskFault kind = DiskFault::kEnospc);

  /// Arms a persistent fault: every write to `site` from the `nth` on
  /// fails — the "disk stays full" model the degraded modes exist for.
  void fail_from(DiskSite site, std::int64_t nth,
                 DiskFault kind = DiskFault::kEnospc);

  DiskFault write_fault(DiskSite site) override;

  /// Writes polled so far at `site`.
  std::int64_t count(DiskSite site) const;

 private:
  struct Arm {
    DiskSite site;
    std::int64_t nth;
    DiskFault kind;
    bool persistent;
    bool fired = false;
  };

  mutable std::mutex mu_;
  std::vector<Arm> arms_;
  std::array<std::int64_t, kNumDiskSites> counts_{};
};

}  // namespace tw::recover
