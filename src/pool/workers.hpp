// Fixed crew of slot-claiming worker threads: the library's parallel map.
//
// A caller hands the crew a batch of independent slots and blocks until
// every slot has run. Two callers use it: ReplicaPool runs each replica of
// a multi-start as one slot (src/pool/pool.*), and the global router runs
// each net's phase-one enumeration as one (src/route/interchange.*).
// PoolExecutor (src/pool/executor.*) is the other thread owner: a queue of
// independent jobs, not a map. Threads are spawned once and parked between
// batches, so the per-batch overhead is one wake/join handshake, not
// thread churn.
//
// Determinism contract: the crew guarantees only that each slot index in
// [0, num_slots) is executed exactly once per run() and that run() is a
// full barrier (all slot effects happen-before run() returns). Which
// worker claims which slot is scheduling-dependent — callers that need
// thread-count-independent results must key all randomness and all
// output locations off the *slot* index (a replica's seed and report
// slot, a net's alternatives), never off the worker id.
//
// The worker id passed to the job selects per-worker scratch (one
// workspace per worker, like the router's SearchWorkspace pattern); two
// slots running concurrently always see different worker ids.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tw {

class WorkerCrew {
public:
  /// Runs one slot: `job(worker, slot)`. `worker` is in [0, num_workers)
  /// and is stable for the duration of the slot; `slot` is in
  /// [0, num_slots) of the current run() call.
  using Job = std::function<void(int worker, int slot)>;

  /// Spawns `num_workers - 1` helper threads (the calling thread of
  /// run() participates as worker 0). num_workers <= 1 spawns nothing
  /// and run() degenerates to a serial loop.
  explicit WorkerCrew(int num_workers);
  ~WorkerCrew();

  WorkerCrew(const WorkerCrew&) = delete;
  WorkerCrew& operator=(const WorkerCrew&) = delete;

  int num_workers() const { return num_workers_; }

  /// Executes `job` for every slot in [0, num_slots), distributing slots
  /// over the crew by atomic claiming, and returns when all have
  /// finished. If any slot throws, the batch drains (remaining slots are
  /// skipped), and the first exception is rethrown on the caller.
  /// Not reentrant: one run() at a time.
  void run(int num_slots, const Job& job);

private:
  void worker_main(int worker);
  void claim_loop(int worker);

  const int num_workers_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;  // bumped per run(); wakes the helpers
  int helpers_running_ = 0;
  bool shutdown_ = false;
  const Job* job_ = nullptr;
  int num_slots_ = 0;
  std::atomic<int> next_slot_{0};
  std::exception_ptr first_error_;  // guarded by mu_
};

/// The host's hardware thread count, at least 1 (the standard library
/// reports 0 when it cannot tell). Sizes a crew that spends every core.
int host_workers();

}  // namespace tw
