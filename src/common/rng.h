// Deterministic PRNG used by every random decision in the repository.
//
// PQS runs must be exactly reproducible from a 64-bit seed (the determinism
// unit test replays a whole campaign and compares reports), so nothing may
// touch std::random_device or rely on unspecified distribution algorithms.
// splitmix64 is small, fast, and has a well-understood output sequence.
#ifndef PQS_SRC_COMMON_RNG_H_
#define PQS_SRC_COMMON_RNG_H_

#include <cstdint>
#include <initializer_list>

namespace pqs {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed + kGolden) {}

  uint64_t Next() {
    uint64_t z = (state_ += kGolden);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Uniform in [0, n). n == 0 is treated as n == 1.
  uint64_t Below(uint64_t n) { return n <= 1 ? 0 : Next() % n; }

  // Uniform in [lo, hi] inclusive.
  int64_t IntIn(int64_t lo, int64_t hi) {
    if (hi <= lo) return lo;
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }

  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  bool Chance(double p) { return Unit() < p; }

  // Derives the seed of the `stream`-th independent substream of `seed`
  // (splitmix64 stream splitting). Distinct stream indexes provably yield
  // distinct seeds for the same base: stream -> seed is a composition of
  // bijections on uint64 (odd-constant multiply, add, finalizer), so the
  // worker/per-database streams split from one run seed can never collide
  // with each other. The finalizer additionally decorrelates the derived
  // state from the base orbit, so the derivation nests well (campaign seed
  // -> per-bug seed -> per-database seed); across *different* bases the
  // distinctness is only statistical (~2^-64 per pair), as with any seed
  // hashing.
  static uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
    uint64_t z = seed + (stream + 1) * kStreamGolden;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  template <typename T>
  T Pick(std::initializer_list<T> options) {
    auto it = options.begin();
    for (uint64_t skip = Below(options.size()); skip > 0; --skip) ++it;
    return *it;
  }

 private:
  static constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  // Distinct odd constant for stream derivation so substream seeds are not
  // drawn from the master sequence's own additive orbit.
  static constexpr uint64_t kStreamGolden = 0xd1b54a32d192ed03ULL;
  uint64_t state_;
};

}  // namespace pqs

#endif  // PQS_SRC_COMMON_RNG_H_
