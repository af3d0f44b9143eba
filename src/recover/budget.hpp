// Run budgets and cooperative cancellation.
//
// The annealing stages and the routers are the long-lived hot paths of
// the flow; a RunBudget bounds them by *work*, not wall-clock time (the
// library bans wall-clock reads — see tools/lint.py), so a budgeted run
// is still a deterministic function of its inputs. When a budget expires
// (or an external thread requests cancellation) the stages degrade
// gracefully instead of aborting: they quench — one final
// improvements-only sweep — keep the best feasible configuration seen,
// and return it with an outcome of kBudgetExhausted / kCancelled so the
// caller can tell a partial result from a converged one.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>

namespace tw::recover {

/// Thrown by the flow at a checkpoint-write boundary when the budget's
/// preempt flag is set (see RunBudget::request_preempt). The checkpoint
/// for the current step was already durably saved when this unwinds, so
/// a later resume via adopt_checkpoint replays from exactly here —
/// byte-identical to the uninterrupted run, with zero work lost. The
/// flow does not catch it; the supervising executor does, and re-queues
/// the run instead of counting it as a failure.
class Preempted : public std::runtime_error {
 public:
  explicit Preempted(const std::string& where)
      : std::runtime_error("preempted at " + where) {}
};

/// How a flow / stage run ended (FlowResult::outcome and friends).
enum class RunOutcome : std::uint8_t {
  kCompleted = 0,        ///< ran the full schedule to convergence
  kBudgetExhausted = 1,  ///< RunBudget expired; result is best-so-far
  kCancelled = 2,        ///< cancellation was requested; best-so-far
  kResumed = 3,          ///< restarted from a checkpoint, then completed
};

const char* to_string(RunOutcome outcome);

/// Work budget shared by every component of one flow run. Move and step
/// charges are cheap relaxed atomics so a controlling thread may observe
/// progress and request cancellation concurrently; the flow itself only
/// ever charges from its single run thread.
class RunBudget {
 public:
  static constexpr std::int64_t kUnlimited = -1;

  RunBudget() = default;
  RunBudget(std::int64_t max_moves, std::int64_t max_steps)
      : max_moves_(max_moves), max_steps_(max_steps) {}

  /// Charges one attempted move (an inner-loop iteration of an annealer
  /// or one interchange attempt of the global router).
  void charge_move() { moves_.fetch_add(1, std::memory_order_relaxed); }

  /// Charges one temperature step.
  void charge_step() { steps_.fetch_add(1, std::memory_order_relaxed); }

  /// Requests cooperative cancellation; honored at the next move boundary.
  void request_cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Requests checkpoint preemption: the run parks at its next
  /// checkpoint-write boundary by throwing Preempted *after* the
  /// checkpoint is durably saved. Unlike cancellation this is not a
  /// wind-down — no quench runs, no partial result is produced — the run
  /// is expected to be resumed later from that checkpoint and finish
  /// byte-identically, under a fresh budget. Ignored by runs that take no
  /// checkpoints (there is nowhere to park them).
  void request_preempt() { preempt_.store(true, std::memory_order_relaxed); }

  bool preempt_requested() const {
    return preempt_.load(std::memory_order_relaxed);
  }

  bool exhausted() const {
    const std::int64_t mm = max_moves_;
    const std::int64_t ms = max_steps_;
    return (mm != kUnlimited &&
            moves_.load(std::memory_order_relaxed) >= mm) ||
           (ms != kUnlimited && steps_.load(std::memory_order_relaxed) >= ms);
  }

  /// True when the run should wind down (either reason).
  bool stop_requested() const { return cancelled() || exhausted(); }

  /// The outcome a stage should report when stop_requested() fired
  /// (cancellation wins over exhaustion: it is the stronger request).
  RunOutcome stop_outcome() const {
    return cancelled() ? RunOutcome::kCancelled : RunOutcome::kBudgetExhausted;
  }

  std::int64_t moves_charged() const {
    return moves_.load(std::memory_order_relaxed);
  }
  std::int64_t steps_charged() const {
    return steps_.load(std::memory_order_relaxed);
  }

 private:
  std::int64_t max_moves_ = kUnlimited;
  std::int64_t max_steps_ = kUnlimited;
  std::atomic<std::int64_t> moves_{0};
  std::atomic<std::int64_t> steps_{0};
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> preempt_{false};
};

}  // namespace tw::recover
