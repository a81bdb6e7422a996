#include "src/apps/embedding_corpus.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "src/util/fd_file.h"
#include "src/util/logging.h"

namespace fm {
namespace {

// Each pool task transposes one block of walkers into a walker-major tile of
// about this many bytes (at least one walker), so the tile stays in the
// worker's L2 while its pairs are emitted.
constexpr size_t kTileBytes = 64 << 10;
// Pairs a worker buffers before one pwrite (256 KB). Writers of one file
// contend for its inode lock, so fewer, larger writes finish sooner: on
// corpus-yt this size writes in about two thirds of the time 64 KB takes.
constexpr size_t kFlushPairs = 32768;

inline Vid MapId(const CorpusOptions& options, Vid v) {
  return options.id_map != nullptr ? (*options.id_map)[v] : v;
}

// One pool worker's scratch, allocated before the passes run.
struct WriterScratch {
  std::vector<uint32_t> lengths;  // live positions of each walker in the block
  std::vector<Vid> tile;          // walker i's path at tile[i * (steps + 1)]
  std::vector<uint32_t> pairs;    // (center, context) words awaiting pwrite
  bool failed = false;            // a pwrite of this worker failed
};

// Sets lengths[i] to walker (begin + i)'s count of positions before its first
// kInvalidVid, where PathSet::Path stops. Reads each row segment in order.
void LivePrefixLengths(const PathSet& paths, Wid begin, Wid end,
                       uint32_t* lengths) {
  const Wid n = end - begin;
  std::fill(lengths, lengths + n, 0);
  for (uint32_t s = 0; s <= paths.steps(); ++s) {
    const Vid* row = paths.Row(s).data() + begin;
    for (Wid i = 0; i < n; ++i) {
      lengths[i] += static_cast<uint32_t>(lengths[i] == s) &
                    static_cast<uint32_t>(row[i] != kInvalidVid);
    }
  }
}

}  // namespace

uint64_t WriteSkipGramPairs(const PathSet& paths, const CorpusOptions& options,
                            const std::string& path, ThreadPool& pool) {
  FM_CHECK(options.window >= 1);
  FdFile file(path, FdFile::Mode::kWrite);
  if (file.fd() < 0) {
    throw std::runtime_error("cannot open corpus output: " + path);
  }
  const size_t stride = static_cast<size_t>(paths.steps()) + 1;
  const Wid tile_walkers = static_cast<Wid>(std::max<size_t>(
      1, std::min<size_t>(kTileBytes / (stride * sizeof(Vid)),
                          paths.num_walkers())));
  const uint64_t blocks =
      (static_cast<uint64_t>(paths.num_walkers()) + tile_walkers - 1) /
      tile_walkers;
  auto block_begin = [&](uint64_t b) {
    return static_cast<Wid>(std::min<uint64_t>(b * tile_walkers,
                                               paths.num_walkers()));
  };
  // A center emits at most 2 * min(window, steps) pairs, so a buffer holding
  // fewer than kFlushPairs always has room for the next one.
  const size_t window = options.window;
  const size_t slack = 2 * std::min(window, stride - 1);
  std::vector<WriterScratch> scratch(pool.thread_count());
  for (WriterScratch& s : scratch) {
    s.lengths.resize(tile_walkers);
    s.tile.resize(static_cast<size_t>(tile_walkers) * stride);
    s.pairs.resize(2 * (kFlushPairs + slack));
  }

  // Pass 1: a walker's pair count depends only on its live length, so a
  // per-length table turns lengths into block pair counts, and their prefix
  // sum into each block's first pair.
  std::vector<uint64_t> pairs_of_length(stride + 1, 0);
  for (size_t len = 1; len <= stride; ++len) {
    pairs_of_length[len] =
        pairs_of_length[len - 1] + 2 * std::min(len - 1, window);
  }
  std::vector<uint64_t> first_pair(blocks + 1, 0);
  pool.ParallelFor(blocks, [&](uint64_t b, uint32_t worker) {
    uint32_t* lengths = scratch[worker].lengths.data();
    const Wid begin = block_begin(b);
    const Wid end = block_begin(b + 1);
    LivePrefixLengths(paths, begin, end, lengths);
    uint64_t count = 0;
    for (Wid i = 0; i < end - begin; ++i) {
      count += pairs_of_length[lengths[i]];
    }
    first_pair[b + 1] = count;
  });
  std::partial_sum(first_pair.begin(), first_pair.end(), first_pair.begin());

  // Pass 2: transpose the block's row segments into the tile, mapping each
  // live position once, then emit its pairs walker by walker and pwrite them
  // at the block's offset.
  pool.ParallelFor(blocks, [&](uint64_t b, uint32_t worker) {
    WriterScratch& s = scratch[worker];
    if (s.failed) {
      return;
    }
    const Wid begin = block_begin(b);
    const Wid n = block_begin(b + 1) - begin;
    LivePrefixLengths(paths, begin, begin + n, s.lengths.data());
    for (uint32_t step = 0; step < stride; ++step) {
      const Vid* row = paths.Row(step).data() + begin;
      for (Wid i = 0; i < n; ++i) {
        if (step < s.lengths[i]) {
          s.tile[i * stride + step] = MapId(options, row[i]);
        }
      }
    }
    uint64_t offset = first_pair[b] * 2 * sizeof(uint32_t);
    size_t buffered = 0;  // words in s.pairs
    auto flush = [&] {
      if (!file.WriteAt(s.pairs.data(), buffered * sizeof(uint32_t),
                        offset)) {
        s.failed = true;
      }
      offset += buffered * sizeof(uint32_t);
      buffered = 0;
    };
    for (Wid i = 0; i < n && !s.failed; ++i) {
      const Vid* walk = s.tile.data() + i * stride;
      const size_t len = s.lengths[i];
      for (size_t center = 0; center < len; ++center) {
        const size_t lo = center > window ? center - window : 0;
        const size_t hi = std::min(len, center + window + 1);
        uint32_t* out = s.pairs.data() + buffered;
        for (size_t j = lo; j < hi; ++j) {
          if (j != center) {
            *out++ = walk[center];
            *out++ = walk[j];
          }
        }
        buffered = static_cast<size_t>(out - s.pairs.data());
        if (buffered >= 2 * kFlushPairs) {
          flush();
        }
      }
    }
    if (buffered > 0 && !s.failed) {
      flush();
    }
    FM_DCHECK(s.failed || offset == first_pair[b + 1] * 2 * sizeof(uint32_t));
  });
  bool failed = std::any_of(scratch.begin(), scratch.end(),
                            [](const WriterScratch& s) { return s.failed; });
  if (!file.Close() || failed) {
    throw std::runtime_error("corpus write failed: " + path);
  }
  return first_pair[blocks];
}

}  // namespace fm
