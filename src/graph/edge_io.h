// Edge-list and CSR file input/output.
//
// Two formats:
//  - Text edge lists ("u v" per line, '#' or '%' comment lines), the format the
//    public SNAP / LAW datasets ship in.
//  - A binary CSR container (magic + counts + offsets + edges) for fast reload of
//    generated stand-in graphs.
#ifndef SRC_GRAPH_EDGE_IO_H_
#define SRC_GRAPH_EDGE_IO_H_

#include <string>

#include "src/graph/csr_graph.h"
#include "src/graph/graph_builder.h"

namespace fm {

// Parses a text edge list into a graph. Throws std::runtime_error on I/O failure,
// malformed lines, or a weight that is not finite and > 0 as a float.
CsrGraph LoadEdgeListText(const std::string& path, const BuildOptions& options = {});

// Writes "u v" lines. Throws std::runtime_error on I/O failure.
void SaveEdgeListText(const CsrGraph& graph, const std::string& path);

// Binary CSR round trip. Throws std::runtime_error on I/O failure or a corrupt
// file: a header that does not match the file size, offsets that do not rise
// from 0 to |E|, a target outside [0, |V|), or a weight that is not finite
// and > 0.
void SaveCsrBinary(const CsrGraph& graph, const std::string& path);
CsrGraph LoadCsrBinary(const std::string& path);

// Memory-maps a binary CSR file instead of copying it into RAM: the returned graph
// borrows its arrays from the read-only mapping, so the OS page cache streams
// partitions from disk on demand — the out-of-core walk mode (§5.4/§7 future work;
// see examples/out_of_core_walk.cpp). Throws std::runtime_error on failure.
CsrGraph LoadCsrBinaryMapped(const std::string& path);

}  // namespace fm

#endif  // SRC_GRAPH_EDGE_IO_H_
