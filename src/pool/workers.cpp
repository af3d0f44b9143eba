#include "pool/workers.hpp"

#include <algorithm>

#include "check/contracts.hpp"

namespace tw {

int host_workers() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

WorkerCrew::WorkerCrew(int num_workers)
    : num_workers_(std::max(1, num_workers)) {
  threads_.reserve(static_cast<std::size_t>(num_workers_ - 1));
  for (int w = 1; w < num_workers_; ++w) {
    threads_.emplace_back(&WorkerCrew::worker_main, this, w);
  }
}

WorkerCrew::~WorkerCrew() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerCrew::run(int num_slots, const Job& job) {
  TW_REQUIRE(num_slots >= 0, "num_slots=", num_slots);
  if (num_slots == 0) return;

  if (threads_.empty()) {
    // Serial degenerate form: no handshake, no atomics on the hot path.
    for (int s = 0; s < num_slots; ++s) job(0, s);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    TW_ASSERT(helpers_running_ == 0, "run() is not reentrant");
    job_ = &job;
    num_slots_ = num_slots;
    next_slot_.store(0, std::memory_order_relaxed);
    first_error_ = nullptr;
    helpers_running_ = static_cast<int>(threads_.size());
    ++generation_;
  }
  cv_start_.notify_all();

  claim_loop(0);

  std::unique_lock<std::mutex> lock(mu_);
  while (helpers_running_ != 0) cv_done_.wait(lock);
  job_ = nullptr;
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void WorkerCrew::claim_loop(int worker) {
  // Slots are claimed by a shared atomic cursor, so an uneven slot (one
  // that re-runs a long cascade) never stalls the rest of the batch.
  for (;;) {
    const int slot = next_slot_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= num_slots_) return;
    try {
      (*job_)(worker, slot);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
      // Drain: skip the remaining slots so the batch ends promptly. The
      // caller rethrows; partial batches are only observable on error.
      next_slot_.store(num_slots_, std::memory_order_relaxed);
    }
  }
}

void WorkerCrew::worker_main(int worker) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (!shutdown_ && generation_ == seen_generation) {
        cv_start_.wait(lock);
      }
      if (shutdown_) return;
      seen_generation = generation_;
    }
    claim_loop(worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --helpers_running_;
    }
    cv_done_.notify_one();
  }
}

}  // namespace tw
