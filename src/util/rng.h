// Pseudo-random number generators used by the walk engines.
//
// FlashMob uses the xorshift* family (§5.2: "FlashMob adopts the simpler xorshift*
// algorithm, reducing related computation time by more than 5x" relative to
// KnightKing's Mersenne Twister). Both generators are provided so the baselines can
// reproduce the paper's computational profile, and so the MT-vs-xorshift ablation in
// §5.2 (a 4-9% effect on KnightKing) can be re-run.
#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cstdint>
#include <random>

namespace fm {

// splitmix64 (Steele et al.); used to expand a single seed into well-mixed state for
// the other generators. Passes BigCrush when used as a generator itself.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// xorshift1024* is overkill for sampling; the paper cites Marsaglia's xorshift with a
// multiplicative finalizer (xorshift64*). Period 2^64 - 1, three shifts + one multiply
// per draw — the cheap generator FlashMob's compute budget is built around.
class XorShiftRng {
 public:
  explicit XorShiftRng(uint64_t seed = 0x853C49E6748FEA9BULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    uint64_t s = seed;
    state_ = SplitMix64(s);
    if (state_ == 0) {
      state_ = 0x9E3779B97F4A7C15ULL;  // xorshift state must be nonzero
    }
  }

  uint64_t Next() {
    uint64_t x = state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state_ = x;
    return x * 0x2545F4914F6CDD1DULL;
  }

  // Uniform integer in [0, bound). Uses the widening-multiply trick (Lemire) to avoid
  // the modulo; the bias is < 2^-32 for the bounds used here (vertex degrees), which
  // is far below the statistical noise of any walk.
  uint64_t NextBounded(uint64_t bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  using result_type = uint64_t;
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~uint64_t{0}; }
  uint64_t operator()() { return Next(); }

 private:
  uint64_t state_;
};

// Mersenne Twister wrapper with the same interface; the RNG KnightKing uses (§5.2).
class MersenneRng {
 public:
  explicit MersenneRng(uint64_t seed = 0x853C49E6748FEA9BULL) : gen_(seed) {}

  void Seed(uint64_t seed) { gen_.seed(seed); }
  uint64_t Next() { return gen_(); }
  uint64_t NextBounded(uint64_t bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  using result_type = uint64_t;
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~uint64_t{0}; }
  uint64_t operator()() { return Next(); }

 private:
  std::mt19937_64 gen_;
};

// Derives an independent per-thread / per-task seed from a base seed.
uint64_t DeriveSeed(uint64_t base, uint64_t stream);

// Per-walker RNG stream: walker `i` of a chunk seeded with `chunk_seed` always
// draws from this stream, whatever the thread count or processing order. The
// chunk seed itself is already (episode, step, vp)-indexed by the engine.
inline uint64_t WalkerSeed(uint64_t chunk_seed, uint64_t i) {
  return DeriveSeed(chunk_seed, i);
}

}  // namespace fm

#endif  // SRC_UTIL_RNG_H_
