// Unit tests for the step-interleaving ring executor (src/baseline/interleave.h):
// the driver protocol (Init order, round-robin Advance, refill on completion).
// The bitwise-equality proofs that the KnightKing ring reproduces its
// sequential loop live in baseline_test; this file pins the driver mechanics
// those proofs rest on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/baseline/interleave.h"

namespace fm {
namespace {

// Scripted Ops: each walker runs a fixed number of Advance calls (its
// "lifetime"); a lifetime of 0 means the walker completes at Init. Records
// the full call trace so tests can assert driver-order properties.
struct ScriptedOps {
  explicit ScriptedOps(std::vector<uint32_t> lifetimes)
      : lifetimes(std::move(lifetimes)),
        remaining(kMaxInterleaveDepth, 0),
        walker_in_slot(kMaxInterleaveDepth, 0) {}

  // Builds "I7"/"A7"-style trace tokens; written as append (not operator+ on
  // a literal) to dodge GCC 12's -Wrestrict false positive at -O2.
  static std::string Token(char kind, Wid i) {
    std::string t(1, kind);
    t += std::to_string(i);
    return t;
  }

  bool Init(uint32_t slot, Wid i) {
    init_order.push_back(i);
    trace.push_back(Token('I', i));
    if (lifetimes[i] == 0) {
      return false;  // completed immediately (instant death)
    }
    remaining[slot] = lifetimes[i];
    walker_in_slot[slot] = i;
    return true;
  }

  bool Advance(uint32_t slot) {
    const Wid i = walker_in_slot[slot];
    advances.push_back(i);
    trace.push_back(Token('A', i));
    return --remaining[slot] > 0;
  }

  std::vector<uint32_t> lifetimes;       // per-walker Advance count
  std::vector<uint32_t> remaining;       // per-slot countdown
  std::vector<Wid> walker_in_slot;
  std::vector<Wid> init_order;           // Init call sequence
  std::vector<Wid> advances;             // Advance call sequence (walker ids)
  std::vector<std::string> trace;        // interleaved I<i>/A<i> record
};

std::vector<uint32_t> Uniform(Wid count, uint32_t lifetime) {
  return std::vector<uint32_t>(count, lifetime);
}

// Every walker must be inited exactly once, in increasing order, and receive
// exactly `lifetime` Advance calls — at any depth.
void CheckCompleteness(const ScriptedOps& ops) {
  const Wid count = static_cast<Wid>(ops.lifetimes.size());
  ASSERT_EQ(ops.init_order.size(), count);
  for (Wid i = 0; i < count; ++i) {
    EXPECT_EQ(ops.init_order[i], i) << "Init order must be monotone";
  }
  std::vector<uint32_t> advance_counts(count, 0);
  for (Wid w : ops.advances) {
    ++advance_counts[w];
  }
  for (Wid i = 0; i < count; ++i) {
    EXPECT_EQ(advance_counts[i], ops.lifetimes[i]) << "walker " << i;
  }
}

TEST(RunInterleavedRingTest, SequentialDegenerateCase) {
  ScriptedOps ops(Uniform(5, 3));
  RunInterleavedRing(1, 5, ops);
  CheckCompleteness(ops);
  // Depth 1 runs each walker to completion before the next Init.
  std::vector<std::string> expected = {"I0", "A0", "A0", "A0", "I1", "A1",
                                       "A1", "A1", "I2", "A2", "A2", "A2",
                                       "I3", "A3", "A3", "A3", "I4", "A4",
                                       "A4", "A4"};
  EXPECT_EQ(ops.trace, expected);
}

TEST(RunInterleavedRingTest, DepthZeroBehavesLikeDepthOne) {
  ScriptedOps a(Uniform(4, 2));
  ScriptedOps b(Uniform(4, 2));
  RunInterleavedRing(0, 4, a);
  RunInterleavedRing(1, 4, b);
  EXPECT_EQ(a.trace, b.trace);
}

TEST(RunInterleavedRingTest, InterleavesAcrossSlots) {
  // 3 walkers, depth 3: after priming (I0 I1 I2), Advances rotate round-robin
  // so each slot's prefetch gets two other slots' work as distance.
  ScriptedOps ops(Uniform(3, 2));
  RunInterleavedRing(3, 3, ops);
  CheckCompleteness(ops);
  std::vector<std::string> expected = {"I0", "I1", "I2", "A0", "A1",
                                       "A2", "A0", "A1", "A2"};
  EXPECT_EQ(ops.trace, expected);
}

TEST(RunInterleavedRingTest, RingWrapAroundRefillsFreedSlots) {
  // Depth 2, 4 walkers of lifetime 1: each Advance completes a walker and its
  // slot is immediately refilled with the next pending one — the wrap-around
  // path that keeps the ring full through many generations of walkers.
  ScriptedOps ops(Uniform(4, 1));
  RunInterleavedRing(2, 4, ops);
  CheckCompleteness(ops);
  std::vector<std::string> expected = {"I0", "I1", "A0", "I2",
                                       "A1", "I3", "A2", "A3"};
  EXPECT_EQ(ops.trace, expected);
}

TEST(RunInterleavedRingTest, TailSmallerThanRing) {
  // 3 walkers in a depth-8 ring: slots 3..7 never fill, and the driver must
  // still terminate and run everyone to completion.
  for (uint32_t depth : {4u, 8u, 16u}) {
    ScriptedOps ops(Uniform(3, 5));
    RunInterleavedRing(depth, 3, ops);
    CheckCompleteness(ops);
  }
}

TEST(RunInterleavedRingTest, ZeroWalkersIsANoOp) {
  ScriptedOps ops({});
  RunInterleavedRing(8, 0, ops);
  EXPECT_TRUE(ops.trace.empty());
}

TEST(RunInterleavedRingTest, EarlyDeathAtInitHandsSlotOnward) {
  // Walkers 1 and 2 die at Init (lifetime 0) while the ring is being primed:
  // their slot must go straight to the next pending walker without a gap.
  ScriptedOps ops({2, 0, 0, 2, 2, 0, 1});
  RunInterleavedRing(2, 7, ops);
  CheckCompleteness(ops);
  // Priming claims 0 (lives), 1 (dies), 2 (dies), 3 (lives) — ring now full.
  std::vector<std::string> head = {"I0", "I1", "I2", "I3"};
  ASSERT_GE(ops.trace.size(), head.size());
  EXPECT_EQ(std::vector<std::string>(ops.trace.begin(),
                                     ops.trace.begin() + head.size()),
            head);
}

TEST(RunInterleavedRingTest, EveryDeathPatternCompletesAtEveryDepth) {
  // Sweep a mix of lifetimes (instant deaths, short, long) across all depths
  // up to the max: the driver invariants (monotone Init order, exact Advance
  // counts, termination) hold regardless of ring geometry.
  std::vector<uint32_t> lifetimes;
  for (Wid i = 0; i < 200; ++i) {
    lifetimes.push_back(i % 7 == 0 ? 0 : (i % 5) + 1);
  }
  for (uint32_t depth : {1u, 2u, 3u, 4u, 8u, 16u, 64u}) {
    ScriptedOps ops(lifetimes);
    RunInterleavedRing(depth, static_cast<Wid>(lifetimes.size()), ops);
    CheckCompleteness(ops);
  }
}

TEST(RunInterleavedRingTest, DepthAboveMaxIsClamped) {
  // The driver clamps to kMaxInterleaveDepth internally; a huge depth must
  // not index past the occupied[] array.
  ScriptedOps ops(Uniform(100, 3));
  RunInterleavedRing(1000, 100, ops);
  CheckCompleteness(ops);
}

TEST(InterleaveStatsTest, AccumulatesByRequestType) {
  InterleaveStats a;
  a.offsets = 3;
  a.alias = 2;
  a.edges = 5;
  EXPECT_EQ(a.Total(), 10u);
  InterleaveStats b;
  b.offsets = 1;
  b.edges = 1;
  a += b;
  EXPECT_EQ(a.offsets, 4u);
  EXPECT_EQ(a.edges, 6u);
  EXPECT_EQ(a.Total(), 12u);
}

TEST(WalkerSeedTest, DistinctPerWalkerAndChunk) {
  // The determinism invariant rests on walker-indexed streams: same
  // (chunk_seed, i) always maps to the same seed, different walkers and
  // different chunks get different streams.
  EXPECT_EQ(WalkerSeed(42, 7), WalkerSeed(42, 7));
  EXPECT_NE(WalkerSeed(42, 7), WalkerSeed(42, 8));
  EXPECT_NE(WalkerSeed(42, 7), WalkerSeed(43, 7));
}

}  // namespace
}  // namespace fm
