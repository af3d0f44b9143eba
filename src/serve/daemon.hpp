// twserved's core: a single-threaded poll() loop over a Unix domain
// socket, speaking serve::wire frames.
//
// All concurrency stays where the repo confines it: annealing runs on the
// PoolExecutor's workers (src/pool); the daemon thread owns every socket,
// the scheduler, and all protocol state. Worker callbacks never touch any
// of that — they enqueue onto a mutex-guarded event queue and wake the
// poll loop through a self-pipe, so the loop is the only place scheduler
// methods run.
//
// Crash safety is the point of the design, and it is testable on demand:
// KillSpec arms a deterministic in-process kill switch — at the Nth
// occurrence of a named lifecycle point the daemon dies via
// std::_Exit(137), the closest in-process analog of SIGKILL (no unwind,
// no flush, no destructors). The soak harness kills a daemon mid-anneal,
// restarts it, and asserts the served results are fingerprint-identical
// to an uninterrupted daemon's. Kill points:
//
//   "post-journal"  after a submission's write-ahead record, before its
//                   ack — the job must survive although no client ever
//                   saw an id for it;
//   "post-ack"      after the ack reached the socket;
//   "progress"      on a streamed progress event (mid-anneal: the soak
//                   harness's main kill site);
//   "pre-finish"    a result arrived from the executor but the cache
//                   never saw it and the job's record is still on disk
//                   — the restart re-adopts and reproduces it;
//   "post-finish"   result cached and the job's directory removed, but
//                   the reply never sent — the restart serves the
//                   duplicate from cache.
//
// Degradation is graceful and typed end to end: overloaded and
// quota-exceeded submissions get RejectReply frames (kOverloaded carries
// a retry hint), a client disconnect cooperatively cancels its job only
// when that job has no other watcher (journal-recovered jobs have none
// and always run to completion, into the cache), and a malformed frame
// drops that connection — never the daemon. Slow and half-dead clients
// are defended against without wall-clock reads: the poll loop's timeout
// expiries are the daemon's clock ticks, idle connections are reaped
// after a configured tick count (their jobs keep running), and a
// connection whose outgoing buffer is past its bound stops receiving
// progress events — never results. A StatsRequest frame answers with the
// full health snapshot (see StatsReply).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/scheduler.hpp"

namespace tw::serve {

/// One armed kill point: die at the `count`-th occurrence of `site`.
struct KillSpec {
  std::string site;
  int count = 1;
};

struct DaemonConfig {
  std::string socket_path;
  SchedulerConfig scheduler;
  std::vector<KillSpec> kill_at;  ///< deterministic crash points (tests)

  // --- connection defense --------------------------------------------------
  /// poll() timeout. Each expiry is one "tick" — the daemon's only unit
  /// of elapsed time (no clock reads anywhere in src/, by lint rule), so
  /// idle deadlines are counted in ticks of this length.
  int poll_tick_ms = 500;
  /// Reap a connection after this many consecutive idle ticks (no bytes
  /// read from it). 0 disables reaping. Reaped clients lose their
  /// *connection*, never their jobs: a reap does not trigger the
  /// last-watcher cooperative cancel — the journaled job runs on and its
  /// result lands in the cache for the client's reconnect.
  int idle_ticks = 0;
  /// Per-connection outgoing buffer bound. A slow reader whose buffer is
  /// past this limit stops receiving ProgressEvents (dropped, counted);
  /// acks, rejects and ResultEvents are always queued — results are
  /// never dropped.
  std::size_t max_out_bytes = 1u << 20;
};

class Daemon {
 public:
  /// Listens on the socket (its path appears only once the daemon
  /// listens, atomically replacing a stale socket file) and builds the
  /// scheduler — which is where the job records are read back and jobs
  /// re-adopted, before the first client is served. Throws ServeError(kIo)
  /// when the socket cannot be set up.
  explicit Daemon(DaemonConfig cfg);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Serves until a ShutdownRequest frame arrives or request_stop() is
  /// called, then drains gracefully (in-flight jobs wind down, results
  /// are cached, their directories removed, delivered) and returns 0.
  int run();

  /// Thread-safe stop for in-process tests: wakes the loop, which then
  /// drains exactly as for a ShutdownRequest.
  void request_stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tw::serve
