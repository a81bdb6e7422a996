// Step-interleaving ring executor with software prefetch (the ThunderRW-style
// latency-hiding arc, PAPERS.md), used by the walker-centric KnightKing
// baseline.
//
// A walker-centric engine chases one random vertex at a time across the whole
// graph, so every offset/edge read is a dependent DRAM miss. The fix is
// classic memory-level parallelism: each worker keeps a ring of G in-flight
// walkers, issues a software prefetch for walker i+k's next cell (its CSR
// offset pair, alias-table row, or adjacency span — stage-typed requests)
// while finishing walker i, and completes each sample when its slot comes back
// around. FlashMob's sample stage does not use it: its VPs are sized to be
// cache-resident, which leaves prefetch no latency to hide (DESIGN.md §5c).
// The one exception, node2vec's check of the predecessor's list, runs as a
// lockstep search over a group of walkers (Node2VecCheckLanes,
// src/core/sample_stage.h). Both prefetch through PrefetchRead
// (src/util/bits.h), a hint that never changes a result, which is what lets
// the tests demand bitwise equality across depths.
//
// Determinism invariant (the whole reason this file can exist): every walker
// draws from its own RNG stream, indexed by the walker's position — never by
// ring slot (WalkerSeed, src/util/rng.h). Slot assignment varies with depth
// (early deaths free slots out of order), walker index does not, so walks are
// bit-identical across interleave depths. They are bit-identical across
// thread counts because nothing a walk draws is keyed by the pool: row 0
// comes from the one placement (PlaceWalkers, fixed 2^16-walker blocks), and
// rings run over walker ranges fixed by the walker count (ForEachWalkerRange).
#ifndef SRC_BASELINE_INTERLEAVE_H_
#define SRC_BASELINE_INTERLEAVE_H_

#include <cstdint>

#include "src/util/bits.h"
#include "src/util/rng.h"
#include "src/util/sync.h"
#include "src/util/types.h"

namespace fm {

// Hard ceiling on the ring size. Slot state is ~48 bytes, so 64 slots keep the
// whole ring inside a handful of L1 lines; deeper rings only add prefetch-to-
// use distance without adding memory-level parallelism (the core's fill
// buffers saturate far earlier).
inline constexpr uint32_t kMaxInterleaveDepth = 64;

// Software-prefetch issue counts by request type. Counting happens in local
// (stack) instances and is folded in once per range, so the hot loops never
// touch shared memory for bookkeeping.
struct InterleaveStats {
  uint64_t offsets = 0;  // CSR offset pairs (the walker's VP cell)
  uint64_t alias = 0;    // alias-table rows (weighted draws)
  uint64_t edges = 0;    // adjacency cells (the sampled edge span)

  uint64_t Total() const { return offsets + alias + edges; }

  InterleaveStats& operator+=(const InterleaveStats& o) {
    offsets += o.offsets;
    alias += o.alias;
    edges += o.edges;
    return *this;
  }
};

// Runs `count` walkers through a ring of `depth` in-flight slots.
//
// Ops contract:
//   bool Init(uint32_t slot, Wid i)   claim walker i into `slot`: perform the
//                                     order-sensitive work (RNG seeding) and
//                                     issue the first prefetch. Returns false
//                                     when the walker completed immediately
//                                     (instant death).
//   bool Advance(uint32_t slot)       run the slot's next pipeline stage (the
//                                     prefetched line is now near). Returns
//                                     false when the walker is done.
//
// The driver calls Init in strictly increasing walker order at every depth
// (`next` is claimed monotonically, whichever slot frees first), which is the
// hook order-sensitive state relies on. Advance calls rotate round-robin so
// each slot's prefetch has `depth - 1` other slots' work as distance. A depth
// of 0 or 1 degenerates to the plain sequential loop — same Ops, same draw
// order, zero ring overhead — which doubles as the oracle path the interleave
// tests compare against.
template <typename Ops>
FM_HOT_PATH void RunInterleavedRing(uint32_t depth, Wid count, Ops& ops) {
  if (depth <= 1) {
    for (Wid i = 0; i < count; ++i) {
      if (ops.Init(0, i)) {
        while (ops.Advance(0)) {
        }
      }
    }
    return;
  }
  if (depth > kMaxInterleaveDepth) {
    depth = kMaxInterleaveDepth;
  }
  bool occupied[kMaxInterleaveDepth] = {false};
  uint32_t live = 0;
  Wid next = 0;
  // Prime the ring; a walker that completes at Init hands its slot straight to
  // the next one (tail episodes smaller than the ring just leave slots empty).
  for (uint32_t slot = 0; slot < depth && next < count;) {
    if (ops.Init(slot, next++)) {
      occupied[slot] = true;
      ++live;
      ++slot;
    }
  }
  uint32_t slot = 0;
  while (live > 0) {
    if (occupied[slot]) {
      if (!ops.Advance(slot)) {
        occupied[slot] = false;
        --live;
        while (next < count) {
          if (ops.Init(slot, next++)) {
            occupied[slot] = true;
            ++live;
            break;
          }
        }
      }
    }
    ++slot;
    if (slot == depth) {
      slot = 0;
    }
  }
}

}  // namespace fm

#endif  // SRC_BASELINE_INTERLEAVE_H_
