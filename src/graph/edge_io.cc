#include "src/graph/edge_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/util/fd_file.h"
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

// The payload arrays as the checks read them: the loader's buffers once their
// bytes have arrived, or the spans of a mapping.
struct CsrPayload {
  std::span<const Eid> offsets;
  std::span<const Vid> edges;
  std::span<const float> weights;
};

enum class Section { kOffsets, kEdges, kWeights };

// One pool task's share of the payload: elements [begin, end) of one array,
// at most kCsrReadBlockBytes of it.
struct PayloadBlock {
  Section section;
  size_t begin;
  size_t end;
};

// What the checks of one block found, folded after the join.
struct BlockVerdict {
  bool arrived = true;       // the block's bytes were read whole
  bool falls = false;        // an offset inside the block falls
  Vid max_target = 0;        // largest target in an edges block
  bool bad_weights = false;  // a weight that is not finite and > 0
};

// Rejects a payload no CsrGraph may hold: offsets must start at 0, never
// decrease and end at |E|; every target must name a vertex; every weight must
// be finite and > 0 (the alias build divides by their sum). Runs before the
// graph is constructed, in place of CsrGraph::CheckValid, as one pool task
// per block. A task first calls `fill(block)`, when given, to bring the
// block's bytes in (the copying loader's read), then checks them; no
// exception may leave a pool task, so each records its verdict and the first
// failure is thrown after the join, like ParseCsrHeader. Offsets that fall
// across a block boundary are checked after the join too. The loops
// accumulate instead of branching, which lets the scans vectorize.
void LoadCheckedPayload(const CsrPayload& p,
                        const std::function<bool(const PayloadBlock&)>& fill,
                        ThreadPool& pool, const std::string& path) {
  std::vector<PayloadBlock> blocks;
  auto cut = [&](Section section, size_t count, size_t bytes_each) {
    const size_t per_block = kCsrReadBlockBytes / bytes_each;
    for (size_t begin = 0; begin < count; begin += per_block) {
      blocks.push_back({section, begin, std::min(count, begin + per_block)});
    }
  };
  cut(Section::kOffsets, p.offsets.size(), sizeof(Eid));
  cut(Section::kEdges, p.edges.size(), sizeof(Vid));
  cut(Section::kWeights, p.weights.size(), sizeof(float));
  std::vector<BlockVerdict> verdicts(blocks.size());
  pool.ParallelFor(blocks.size(), [&](uint64_t b, uint32_t) {
    const PayloadBlock& block = blocks[b];
    BlockVerdict& verdict = verdicts[b];
    if (fill && !fill(block)) {
      verdict.arrived = false;
      return;
    }
    switch (block.section) {
      case Section::kOffsets: {
        unsigned falls = 0;
        for (size_t i = block.begin + 1; i < block.end; ++i) {
          falls |= p.offsets[i] < p.offsets[i - 1];
        }
        verdict.falls = falls != 0;
        break;
      }
      case Section::kEdges: {
        Vid max_target = 0;
        for (size_t i = block.begin; i < block.end; ++i) {
          max_target = std::max(max_target, p.edges[i]);
        }
        verdict.max_target = max_target;
        break;
      }
      case Section::kWeights: {
        unsigned bad = 0;
        for (size_t i = block.begin; i < block.end; ++i) {
          const float w = p.weights[i];
          bad |= !(w > 0.0f) | !(w <= std::numeric_limits<float>::max());
        }
        verdict.bad_weights = bad != 0;
        break;
      }
    }
  });
  if (std::ranges::any_of(verdicts, [](const auto& v) { return !v.arrived; })) {
    ThrowIo("truncated CSR file", path);
  }
  bool falls = p.offsets.front() != 0;
  Vid max_target = 0;
  bool bad_weights = false;
  for (size_t b = 0; b < blocks.size(); ++b) {
    const size_t begin = blocks[b].begin;
    falls |= verdicts[b].falls ||
             (blocks[b].section == Section::kOffsets && begin > 0 &&
              p.offsets[begin] < p.offsets[begin - 1]);
    max_target = std::max(max_target, verdicts[b].max_target);
    bad_weights |= verdicts[b].bad_weights;
  }
  if (falls) {
    ThrowIo("corrupt CSR offsets (not rising from 0)", path);
  }
  if (p.offsets.back() != p.edges.size()) {
    ThrowIo("corrupt CSR offsets (last offset is not the edge count)", path);
  }
  if (!p.edges.empty() && max_target >= p.offsets.size() - 1) {
    ThrowIo("corrupt CSR edges (target out of vertex range)", path);
  }
  if (bad_weights) {
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
  // The last bytes reach the file only at close, which reports a failed flush
  // through the stream state.
  out.close();
  if (!out) {
    ThrowIo("write failed", path);
  }
}

void SaveCsrBinary(const CsrGraph& graph, const std::string& path) {
  FdFile file(path, FdFile::Mode::kWrite);
  if (file.fd() < 0) {
    ThrowIo("cannot open for writing", path);
  }
  const uint64_t header[3] = {graph.weighted() ? kCsrWeightedMagic : kCsrMagic,
                              graph.num_vertices(), graph.num_edges()};
  uint64_t at = 0;
  auto append = [&](const void* data, size_t bytes) {
    at += bytes;
    return file.WriteAt(data, bytes, at - bytes);
  };
  const bool written =
      append(header, sizeof(header)) &&
      append(graph.offsets().data(), graph.offsets().size_bytes()) &&
      append(graph.edges().data(), graph.edges().size_bytes()) &&
      append(graph.weights().data(), graph.weights().size_bytes());
  if (!file.Close() || !written) {
    ThrowIo("write failed", path);
  }
}

CsrGraph LoadCsrBinary(const std::string& path, ThreadPool& pool) {
  FdFile file(path, FdFile::Mode::kRead);
  uint64_t file_size = 0;
  if (file.fd() < 0 || !file.Size(&file_size)) {
    ThrowIo("cannot open CSR file", path);
  }
  uint8_t raw[kCsrHeaderBytes] = {};
  if (file_size >= sizeof(raw) && !file.ReadAt(raw, sizeof(raw), 0)) {
    ThrowIo("truncated CSR file", path);
  }
  const CsrHeader h = ParseCsrHeader(raw, file_size, path);
  // Each array goes straight into its own uninitialised buffer, block by
  // block on the pool, so the workers fault the pages in as they read.
  CsrArrays arrays(static_cast<Vid>(h.num_vertices), h.num_edges, h.weighted);
  const uint64_t edges_at = kCsrHeaderBytes + h.offsets_bytes;
  const uint64_t weights_at = edges_at + h.edges_bytes;
  auto read = [&](const PayloadBlock& b) {
    // Elements [b.begin, b.end) of the array at `data`, which the file holds
    // from byte `at`.
    auto read_block = [&](auto* data, uint64_t at) {
      const size_t bytes_each = sizeof(*data);
      return file.ReadAt(data + b.begin, (b.end - b.begin) * bytes_each,
                         at + b.begin * bytes_each);
    };
    switch (b.section) {
      case Section::kOffsets:
        return read_block(arrays.offsets.data(), kCsrHeaderBytes);
      case Section::kEdges:
        return read_block(arrays.edges.data(), edges_at);
      case Section::kWeights:
        return read_block(arrays.weights.data(), weights_at);
    }
    return false;
  };
  LoadCheckedPayload({arrays.offsets, arrays.edges, arrays.weights}, read, pool,
                     path);
  return CsrGraph(std::move(arrays));
}

CsrGraph LoadCsrBinaryMapped(const std::string& path, ThreadPool& pool) {
  auto mapping = std::make_shared<const MappedFile>(path);
  // Layout (SaveCsrBinary): 3 x uint64 header, then offsets, then edges, then
  // optional weights. The 24-byte header keeps the 8-byte offsets naturally
  // aligned; edges/weights (4-byte) follow at multiples of 4. ParseCsrHeader
  // validates every count against the mapping size before any span is formed.
  const auto* base = static_cast<const uint8_t*>(mapping->data());
  const CsrHeader h = ParseCsrHeader(base, mapping->size(), path);
  CsrPayload p;
  p.offsets = MappedSpan<Eid>(base, kCsrHeaderBytes, h.num_vertices + 1);
  p.edges =
      MappedSpan<Vid>(base, kCsrHeaderBytes + h.offsets_bytes, h.num_edges);
  if (h.weighted) {
    p.weights = MappedSpan<float>(
        base, kCsrHeaderBytes + h.offsets_bytes + h.edges_bytes, h.num_edges);
  }
  LoadCheckedPayload(p, nullptr, pool, path);
  return CsrGraph(mapping, p.offsets, p.edges, p.weights);
}

}  // namespace fm
