// Deterministic random number generation for the PRK.
//
// Two flavours:
//  * SplitMix64 — a tiny sequential PRNG for places where a stream is fine.
//  * CounterRng — a stateless counter-based generator (hash of
//    (seed, key0, key1, counter)) so that the random draw for a given mesh
//    cell is a pure function of the cell coordinates.  This is what makes
//    parallel initialisation bit-identical to serial initialisation
//    regardless of the domain decomposition — the property the PIC PRK's
//    verification scheme depends on.  The official PRK achieves the same
//    via a per-cell LCG "random_draw"; we use a stronger mix.
#pragma once

#include <cstdint>

namespace picprk::util {

/// SplitMix64 (Steele, Lea, Flood 2014). Passes BigCrush; one 64-bit word
/// of state; used to seed and for sequential sampling.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound) with Lemire's multiply-shift reduction
  /// (negligible bias for the bounds used here).
  std::uint64_t next_below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

 private:
  std::uint64_t state_;
};

/// Stateless mixing function: full-avalanche finalizer applied to a
/// combination of four 64-bit words. The basis of CounterRng.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

/// Counter-based RNG keyed by (seed, key0, key1). Each draw i is
/// hash(seed, key0, key1, i) — no state, safe to evaluate from any thread
/// for any cell in any order.
class CounterRng {
 public:
  CounterRng(std::uint64_t seed, std::uint64_t key0, std::uint64_t key1)
      : base_(mix64(seed ^ mix64(key0 ^ 0x9E3779B97F4A7C15ull) ^
                    mix64(key1 + 0x165667B19E3779F9ull))) {}

  std::uint64_t at(std::uint64_t counter) const {
    return mix64(base_ + counter * 0x9E3779B97F4A7C15ull);
  }

  double double_at(std::uint64_t counter) const {
    return static_cast<double>(at(counter) >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t base_;
};

/// Deterministic stochastic rounding of a non-negative expectation `mu`:
/// returns floor(mu), plus one with probability frac(mu), decided by the
/// per-cell hash draw `u` in [0,1). Used to turn continuous particle
/// densities into integer per-cell counts while keeping the grand total
/// within one particle per cell of the requested n and keeping every
/// cell's count a pure function of its coordinates.
inline std::uint64_t stochastic_round(double mu, double u) {
  const auto base = static_cast<std::uint64_t>(mu);
  const double frac = mu - static_cast<double>(base);
  return base + (u < frac ? 1u : 0u);
}

}  // namespace picprk::util
