#include "util/rng.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/hash.hpp"

namespace tw {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t master, std::string_view stream) {
  // FNV-1a over the stream name, then SplitMix64 rounds to decorrelate
  // similar names and mix in the master seed.
  std::uint64_t x = master ^ fnv1a(stream);
  (void)splitmix64(x);
  return splitmix64(x);
}

std::uint64_t derive_replica_seed(std::uint64_t master, int replica) {
  return derive_attempt_seed(master, replica, 0);
}

std::uint64_t derive_attempt_seed(std::uint64_t master, int replica,
                                  int attempt) {
  const std::uint64_t replica_master =
      derive_seed(master, "replica-" + std::to_string(replica));
  if (attempt == 0) return replica_master;
  return derive_seed(replica_master, "attempt-" + std::to_string(attempt));
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& w : s_) w = splitmix64(x);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  // Unbiased bounded generation (rejection via Lemire-style threshold is
  // overkill here; modulo bias over a 64-bit source and spans << 2^32 is
  // below 2^-32, far under any effect we measure). Keep it simple.
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return lo + static_cast<std::int64_t>((*this)());
  return lo + static_cast<std::int64_t>((*this)() % span);
}

double Rng::uniform01() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform_real(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

bool Rng::bernoulli(double p) { return uniform01() < p; }

double Rng::normal(double mean, double stddev) {
  // Box–Muller; draw until u1 is nonzero so log() is finite.
  double u1 = uniform01();
  while (u1 <= 0.0) u1 = uniform01();
  const double u2 = uniform01();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * M_PI * u2);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

Rng Rng::split() {
  Rng child(0);
  for (auto& w : child.s_) w = (*this)();
  return child;
}

Rng Rng::from_state(const std::array<std::uint64_t, 4>& s) {
  if ((s[0] | s[1] | s[2] | s[3]) == 0)
    throw std::invalid_argument("Rng::from_state: all-zero state");
  Rng r(0);
  for (std::size_t i = 0; i < 4; ++i) r.s_[i] = s[i];
  return r;
}

}  // namespace tw
