// Skip-gram training-pair corpus generation from walk output — the node-embedding
// front end (§1, §2.1): DeepWalk/node2vec walks become word2vec-style sentences,
// and (center, context) pairs within a window feed the embedding trainer.
#ifndef SRC_APPS_EMBEDDING_CORPUS_H_
#define SRC_APPS_EMBEDDING_CORPUS_H_

#include <string>
#include <vector>

#include "src/core/path_set.h"
#include "src/util/thread_pool.h"

namespace fm {

struct CorpusOptions {
  uint32_t window = 5;  // +- context window along the walk
  // Optional relabelling applied to emitted vertex IDs (DegreeSort's new_to_old).
  const std::vector<Vid>* id_map = nullptr;
};

// Writes every skip-gram pair as two consecutive uint32s (center, context) to
// a binary file; returns the pair count. Walkers come in order, and within a
// walker each center position emits its contexts in path order; terminated
// path suffixes are skipped. Runs on `pool` over cache-sized walker tiles, each
// written with pwrite at an offset prefix-summed from its pair count; the bytes
// do not depend on the pool size. Throws std::runtime_error on I/O failure.
// Must not be called from inside a job of `pool`: ThreadPool::ParallelFor is
// not reentrant.
uint64_t WriteSkipGramPairs(const PathSet& paths, const CorpusOptions& options,
                            const std::string& path,
                            ThreadPool& pool = ThreadPool::Global());

}  // namespace fm

#endif  // SRC_APPS_EMBEDDING_CORPUS_H_
