#include "src/graph/edge_io.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "src/util/logging.h"

namespace fm {
namespace {

constexpr uint64_t kCsrMagic = 0x464D435352303031ULL;          // "FMCSR001"
constexpr uint64_t kCsrWeightedMagic = 0x464D435352303032ULL;  // "FMCSR002"
constexpr size_t kCsrHeaderBytes = 3 * sizeof(uint64_t);

void ThrowIo(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + ": " + path);
}

// Safe unaligned read: memcpy compiles to a plain load on every target we care
// about but is defined behavior regardless of the source pointer's alignment.
template <typename T>
T LoadScalar(const uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

// Validated CSR container header. Every field is checked against the actual
// file size *before* any allocation sized from it, so a corrupt or truncated
// file is rejected with a clean error instead of crashing or over-allocating.
struct CsrHeader {
  bool weighted = false;
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  size_t offsets_bytes = 0;
  size_t edges_bytes = 0;
  size_t weights_bytes = 0;
};

CsrHeader ParseCsrHeader(const uint8_t* raw, uint64_t file_size,
                         const std::string& path) {
  if (file_size < kCsrHeaderBytes) {
    ThrowIo("CSR file too small", path);
  }
  CsrHeader h;
  uint64_t magic = LoadScalar<uint64_t>(raw);
  h.num_vertices = LoadScalar<uint64_t>(raw + 8);
  h.num_edges = LoadScalar<uint64_t>(raw + 16);
  if (magic != kCsrMagic && magic != kCsrWeightedMagic) {
    ThrowIo("bad CSR magic/version", path);
  }
  h.weighted = magic == kCsrWeightedMagic;
  // Vertex ids must fit Vid with the kInvalidVid sentinel left free.
  if (h.num_vertices > static_cast<uint64_t>(kInvalidVid)) {
    ThrowIo("CSR header vertex count exceeds 32-bit id range", path);
  }
  uint64_t payload = file_size - kCsrHeaderBytes;
  // (num_vertices + 1) * 8 cannot overflow after the Vid-range check above.
  uint64_t offsets_bytes = (h.num_vertices + 1) * sizeof(Eid);
  if (offsets_bytes > payload) {
    ThrowIo("truncated CSR file (offsets)", path);
  }
  uint64_t remaining = payload - offsets_bytes;
  uint64_t per_edge = sizeof(Vid) + (h.weighted ? sizeof(float) : 0);
  // Overflow-safe: bound num_edges by what the file could possibly hold before
  // computing byte sizes from it.
  if (h.num_edges > remaining / per_edge ||
      h.num_edges * per_edge != remaining) {
    ThrowIo("CSR header counts do not match file size", path);
  }
  h.offsets_bytes = static_cast<size_t>(offsets_bytes);
  h.edges_bytes = static_cast<size_t>(h.num_edges * sizeof(Vid));
  h.weights_bytes =
      h.weighted ? static_cast<size_t>(h.num_edges * sizeof(float)) : 0;
  return h;
}

// Alignment-checked zero-copy view into a mapped file section. The container
// layout guarantees natural alignment (24-byte header, 8-byte offsets, 4-byte
// edges/weights); the FM_CHECK makes that assumption explicit so the cast
// below can never be an unaligned access.
template <typename T>
std::span<const T> MappedSpan(const uint8_t* base, size_t byte_offset,
                              size_t count) {
  const uint8_t* p = base + byte_offset;
  FM_CHECK_MSG(reinterpret_cast<uintptr_t>(p) % alignof(T) == 0,
               "misaligned CSR section at byte offset " << byte_offset);
  return {reinterpret_cast<const T*>(p), count};
}

// Rejects a payload no CsrGraph may hold: offsets must start at 0, never
// decrease and end at |E|; every target must name a vertex; every weight must
// be finite and > 0 (the alias build divides by their sum). Runs before the
// graph is constructed, in place of CsrGraph::CheckValid, and throws like
// ParseCsrHeader. The loops accumulate instead of branching, which lets the
// target and weight scans vectorize.
void ValidateCsrPayload(std::span<const Eid> offsets, std::span<const Vid> edges,
                        std::span<const float> weights,
                        const std::string& path) {
  unsigned falls = 0;
  for (size_t i = 1; i < offsets.size(); ++i) {
    falls |= offsets[i] < offsets[i - 1];
  }
  if (offsets.front() != 0 || falls != 0) {
    ThrowIo("corrupt CSR offsets (not rising from 0)", path);
  }
  if (offsets.back() != edges.size()) {
    ThrowIo("corrupt CSR offsets (last offset is not the edge count)", path);
  }
  Vid max_target = 0;
  for (Vid target : edges) {
    max_target = std::max(max_target, target);
  }
  if (!edges.empty() && max_target >= offsets.size() - 1) {
    ThrowIo("corrupt CSR edges (target out of vertex range)", path);
  }
  unsigned bad_weights = 0;
  for (float w : weights) {
    bad_weights |= !(w > 0.0f) | !(w <= std::numeric_limits<float>::max());
  }
  if (bad_weights != 0) {
    ThrowIo("corrupt CSR weights (not finite and > 0)", path);
  }
}

}  // namespace

CsrGraph LoadEdgeListText(const std::string& path, const BuildOptions& options) {
  std::ifstream in(path);
  if (!in) {
    ThrowIo("cannot open edge list", path);
  }
  GraphBuilder builder;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') {
      continue;
    }
    std::istringstream ls(line);
    uint64_t u = 0;
    uint64_t v = 0;
    if (!(ls >> u >> v)) {
      throw std::runtime_error("malformed edge at " + path + ":" +
                               std::to_string(line_no));
    }
    if (u > kInvalidVid - 1 || v > kInvalidVid - 1) {
      throw std::runtime_error("vertex id exceeds 32-bit range at " + path + ":" +
                               std::to_string(line_no));
    }
    double weight = 1.0;  // optional third column: edge weight
    if (!(ls >> std::ws).eof() && !(ls >> weight)) {
      throw std::runtime_error("malformed edge at " + path + ":" +
                               std::to_string(line_no));
    }
    // The weight is stored as a float, so it must be finite and > 0 there.
    if (!(weight > 0 && weight <= std::numeric_limits<float>::max() &&
          static_cast<float>(weight) > 0)) {
      throw std::runtime_error("edge weight not finite and > 0 at " + path +
                               ":" + std::to_string(line_no));
    }
    builder.AddEdge(static_cast<Vid>(u), static_cast<Vid>(v),
                    static_cast<float>(weight));
  }
  return builder.Build(options);
}

void SaveEdgeListText(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    ThrowIo("cannot open for writing", path);
  }
  out << "# flashmob edge list |V|=" << graph.num_vertices()
      << " |E|=" << graph.num_edges() << (graph.weighted() ? " weighted" : "")
      << "\n";
  for (Vid v = 0; v < graph.num_vertices(); ++v) {
    auto nbrs = graph.neighbors(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      out << v << ' ' << nbrs[i];
      if (graph.weighted()) {
        out << ' ' << graph.neighbor_weights(v)[i];
      }
      out << '\n';
    }
  }
  if (!out) {
    ThrowIo("write failed", path);
  }
}

void SaveCsrBinary(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    ThrowIo("cannot open for writing", path);
  }
  uint64_t header[3] = {graph.weighted() ? kCsrWeightedMagic : kCsrMagic,
                        graph.num_vertices(), graph.num_edges()};
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.write(reinterpret_cast<const char*>(graph.offsets().data()),
            static_cast<std::streamsize>(graph.offsets().size() * sizeof(Eid)));
  out.write(reinterpret_cast<const char*>(graph.edges().data()),
            static_cast<std::streamsize>(graph.edges().size() * sizeof(Vid)));
  if (graph.weighted()) {
    out.write(reinterpret_cast<const char*>(graph.weights().data()),
              static_cast<std::streamsize>(graph.weights().size() * sizeof(float)));
  }
  if (!out) {
    ThrowIo("write failed", path);
  }
}

CsrGraph LoadCsrBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    ThrowIo("cannot open CSR file", path);
  }
  uint64_t file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(0);
  uint8_t raw[kCsrHeaderBytes];
  if (file_size < sizeof(raw) ||
      !in.read(reinterpret_cast<char*>(raw), sizeof(raw))) {
    ThrowIo("CSR file too small", path);
  }
  CsrHeader h = ParseCsrHeader(raw, file_size, path);
  std::vector<Eid> offsets(h.num_vertices + 1);
  std::vector<Vid> edges(h.num_edges);
  std::vector<float> weights(h.weighted ? h.num_edges : 0);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(h.offsets_bytes));
  in.read(reinterpret_cast<char*>(edges.data()),
          static_cast<std::streamsize>(h.edges_bytes));
  if (h.weighted) {
    in.read(reinterpret_cast<char*>(weights.data()),
            static_cast<std::streamsize>(h.weights_bytes));
  }
  if (!in) {
    ThrowIo("truncated CSR file", path);
  }
  ValidateCsrPayload(offsets, edges, weights, path);
  return CsrGraph(std::move(offsets), std::move(edges), std::move(weights));
}

CsrGraph LoadCsrBinaryMapped(const std::string& path) {
  auto mapping = std::make_shared<MappedFile>(path);
  // Layout (SaveCsrBinary): 3 x uint64 header, then offsets, then edges, then
  // optional weights. The 24-byte header keeps the 8-byte offsets naturally
  // aligned; edges/weights (4-byte) follow at multiples of 4. ParseCsrHeader
  // validates every count against the mapping size before any span is formed.
  const auto* base = static_cast<const uint8_t*>(mapping->data());
  CsrHeader h = ParseCsrHeader(base, mapping->size(), path);
  std::span<const Eid> offsets =
      MappedSpan<Eid>(base, kCsrHeaderBytes, h.num_vertices + 1);
  std::span<const Vid> edges =
      MappedSpan<Vid>(base, kCsrHeaderBytes + h.offsets_bytes, h.num_edges);
  std::span<const float> weights;
  if (h.weighted) {
    weights = MappedSpan<float>(
        base, kCsrHeaderBytes + h.offsets_bytes + h.edges_bytes, h.num_edges);
  }
  ValidateCsrPayload(offsets, edges, weights, path);
  return CsrGraph(std::move(mapping), offsets, edges, weights);
}

}  // namespace fm
