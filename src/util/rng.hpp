// Deterministic pseudo-random number generation for all stochastic
// components of TimberWolfMC.
//
// Every algorithm in this library that makes random choices takes an
// explicit `Rng&`, so a given seed reproduces a run bit-for-bit. The
// generator is xoshiro256**, which is fast, has a 256-bit state, and is
// of far higher quality than std::minstd / rand().
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string_view>
#include <utility>

namespace tw {

/// Derives the seed of a named child stream from one master seed, so every
/// stochastic component (stage 1, stage 2, the router's interchange, the
/// baselines, the workload generator) threads from a single place:
///
///   Rng stage1_rng(derive_seed(master, "stage1"));
///
/// Distinct stream names give statistically independent sequences; the
/// same (master, stream) pair always gives the same seed.
std::uint64_t derive_seed(std::uint64_t master, std::string_view stream);

/// The seed a pool replica's first attempt runs under: the multi-start
/// structure of the replica pool (src/pool) gives every replica its own
/// statistically independent stream of the one master seed, so N replicas
/// explore N different annealing trajectories of the same netlist. A solo
/// TimberWolfMC run seeded with derive_replica_seed(master, id) reproduces
/// pool replica `id`'s first attempt bit for bit.
std::uint64_t derive_replica_seed(std::uint64_t master, int replica);

/// Seed-rotating retry: attempt `attempt` (zero-based) of replica
/// `replica`. Attempt 0 equals derive_replica_seed(master, replica);
/// later cold-restart attempts get fresh independent streams so a retry
/// never replays the trajectory that just failed deterministically.
std::uint64_t derive_attempt_seed(std::uint64_t master, int replica,
                                  int attempt);

/// xoshiro256** generator. Satisfies std::uniform_random_bit_generator.
/// Deliberately has no default seed: every generator is constructed from
/// an explicitly threaded seed (see derive_seed) so a run is reproducible
/// bit-for-bit from its master seed alone.
class Rng {
public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit state words from `seed` via SplitMix64, which
  /// guarantees a non-zero, well-mixed state for any seed value.
  explicit Rng(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [0, 1).
  double uniform01();

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Bernoulli trial with probability `p` of returning true.
  bool bernoulli(double p);

  /// The paper's R_i(1, 2, p): returns 1 with probability p, else 2.
  int one_or_two(double p) { return bernoulli(p) ? 1 : 2; }

  /// Normal deviate (Box–Muller, no cached spare: stateless & deterministic).
  double normal(double mean, double stddev);

  /// Log-normal deviate: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Fisher–Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      std::size_t j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

  /// Derives an independent child generator (for parallel experiment arms).
  Rng split();

  // --- state export / import (checkpointing) --------------------------------
  // The four raw state words capture the generator's position in its
  // stream exactly, so a checkpointed run resumes on the same sequence
  // bit for bit (see src/recover/checkpoint.hpp).

  std::array<std::uint64_t, 4> state() const { return {s_[0], s_[1], s_[2], s_[3]}; }

  /// Reconstructs a generator at an exported state. Rejects the all-zero
  /// state (xoshiro's one fixed point, which a real export can never
  /// produce) so a zeroed/corrupt checkpoint cannot create a generator
  /// that emits only zeros.
  static Rng from_state(const std::array<std::uint64_t, 4>& s);

private:
  std::uint64_t s_[4];
};

}  // namespace tw
