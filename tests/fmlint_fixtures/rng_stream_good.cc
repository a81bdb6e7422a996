namespace fm {
struct XorShiftRng {
  explicit XorShiftRng(unsigned long long seed);
  unsigned long long Next();
};

// WalkerSeed may sit inside a mixer call (Remix below): the rule needs it
// spelled in the argument list of the construction itself.
unsigned long long Remix(unsigned long long seed) {
  return SplitMix64(seed);
}

FM_HOT_PATH unsigned long long StepWalker(unsigned long long chunk_seed,
                                          unsigned long long walker_index) {
  XorShiftRng rng(Remix(WalkerSeed(chunk_seed, walker_index)));
  return rng.Next();
}
}  // namespace fm
