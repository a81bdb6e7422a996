// Edge-list and CSR file input/output.
//
// Two formats:
//  - Text edge lists ("u v" per line, '#' or '%' comment lines), the format the
//    public SNAP / LAW datasets ship in.
//  - A binary CSR container (magic + counts + offsets + edges [+ weights]) for
//    fast reload of generated stand-in graphs.
//
// The binary loaders check the payload on a pool, in blocks of at most
// kCsrReadBlockBytes of one array. LoadCsrBinary `pread`s each block straight
// into the graph's own uninitialised buffer and checks it in the same task,
// so the read, the first touch of the pages and the checks all run in
// parallel; LoadCsrBinaryMapped runs the same checks over the mapping. Like
// ThreadPool::ParallelFor, neither may be called from inside a job of `pool`.
#ifndef SRC_GRAPH_EDGE_IO_H_
#define SRC_GRAPH_EDGE_IO_H_

#include <cstddef>
#include <string>

#include "src/graph/csr_graph.h"
#include "src/graph/graph_builder.h"
#include "src/util/thread_pool.h"

namespace fm {

// Bytes of one array that one loader task reads and checks (1 MB): a few
// dozen tasks per pool thread on a graph past the LLC, each long enough that
// its syscall costs nothing next to its copy.
inline constexpr size_t kCsrReadBlockBytes = size_t{1} << 20;

// Parses a text edge list into a graph. Throws std::runtime_error on I/O failure,
// malformed lines, or a weight that is not finite and > 0 as a float.
CsrGraph LoadEdgeListText(const std::string& path, const BuildOptions& options = {});

// Writes "u v [w]" lines. Throws std::runtime_error on I/O failure, including
// a failure to flush the last lines when the file is closed.
void SaveEdgeListText(const CsrGraph& graph, const std::string& path);

// Binary CSR round trip. SaveCsrBinary writes with positioned writes and
// checks the close, so `path` must be seekable (a file, /dev/null). The
// loaders throw std::runtime_error on I/O failure or a corrupt file: a header
// that does not match the file size, offsets that do not rise from 0 to |E|,
// a target outside [0, |V|), or a weight that is not finite and > 0.
void SaveCsrBinary(const CsrGraph& graph, const std::string& path);
CsrGraph LoadCsrBinary(const std::string& path,
                       ThreadPool& pool = ThreadPool::Global());

// Memory-maps a binary CSR file instead of copying it into RAM: the returned graph
// views its arrays in the read-only mapping, so the OS page cache streams
// partitions from disk on demand — the out-of-core walk mode (§5.4/§7 future work;
// see examples/out_of_core_walk.cpp). Throws std::runtime_error on failure.
CsrGraph LoadCsrBinaryMapped(const std::string& path,
                             ThreadPool& pool = ThreadPool::Global());

}  // namespace fm

#endif  // SRC_GRAPH_EDGE_IO_H_
