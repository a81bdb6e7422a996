#include "src/graph/edge_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/gen/powerlaw_graph.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace fm {
namespace {

class EdgeIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "fm_edge_io_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(EdgeIoTest, TextRoundTrip) {
  CsrGraph original = SmallGraph();
  SaveEdgeListText(original, Path("g.txt"));
  CsrGraph loaded = LoadEdgeListText(Path("g.txt"));
  EXPECT_EQ(loaded.num_vertices(), original.num_vertices());
  EXPECT_EQ(loaded.num_edges(), original.num_edges());
  EXPECT_TRUE(Identical(loaded, original));
}

TEST_F(EdgeIoTest, TextHandlesCommentsAndBlankLines) {
  std::ofstream out(Path("c.txt"));
  out << "# comment\n\n% other comment\n0 1\n1 0\n";
  out.close();
  CsrGraph g = LoadEdgeListText(Path("c.txt"));
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST_F(EdgeIoTest, TextRejectsMalformedLine) {
  // Besides unparseable ids: an unparseable weight column, and weights that
  // are not finite and > 0 once stored as a float (1e39 overflows it, 1e-50
  // rounds to 0).
  for (const char* bad : {"not numbers", "1 0 abc", "1 0 0", "1 0 -2",
                          "1 0 1e39", "1 0 1e-50", "1 0 1e999"}) {
    std::ofstream out(Path("bad.txt"));
    out << "0 1 1.5\n" << bad << "\n";
    out.close();
    try {
      LoadEdgeListText(Path("bad.txt"));
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("bad.txt:2"), std::string::npos)
          << bad << ": " << e.what();
    }
  }
}

TEST_F(EdgeIoTest, TextMissingFileThrows) {
  EXPECT_THROW(LoadEdgeListText(Path("nope.txt")), std::runtime_error);
}

TEST_F(EdgeIoTest, BinaryRoundTrip) {
  PowerLawConfig config;
  config.degrees.num_vertices = 5000;
  config.degrees.avg_degree = 6;
  CsrGraph original = GeneratePowerLawGraph(config);
  SaveCsrBinary(original, Path("g.csr"));
  CsrGraph loaded = LoadCsrBinary(Path("g.csr"));
  EXPECT_TRUE(Identical(loaded, original));
}

TEST_F(EdgeIoTest, MappedLoadMatchesCopyingLoad) {
  PowerLawConfig config;
  config.degrees.num_vertices = 3000;
  config.degrees.avg_degree = 8;
  CsrGraph original = GeneratePowerLawGraph(config);
  SaveCsrBinary(original, Path("m.csr"));
  CsrGraph mapped = LoadCsrBinaryMapped(Path("m.csr"));
  EXPECT_TRUE(mapped.memory_mapped());
  EXPECT_FALSE(original.memory_mapped());
  EXPECT_TRUE(Identical(mapped, original));
  // Copies of a mapped graph share the mapping and stay valid.
  CsrGraph copy = mapped;
  EXPECT_TRUE(copy.memory_mapped());
  EXPECT_TRUE(Identical(copy, original));
  EXPECT_TRUE(copy.HasEdge(0, copy.neighbors(0)[0]));
}

TEST_F(EdgeIoTest, MappedLoadRejectsCorruptFiles) {
  {
    std::ofstream out(Path("bad2.csr"), std::ios::binary);
    out << "tiny";
  }
  EXPECT_THROW(LoadCsrBinaryMapped(Path("bad2.csr")), std::runtime_error);
  CsrGraph original = SmallGraph();
  SaveCsrBinary(original, Path("t2.csr"));
  std::filesystem::resize_file(Path("t2.csr"),
                               std::filesystem::file_size(Path("t2.csr")) - 4);
  EXPECT_THROW(LoadCsrBinaryMapped(Path("t2.csr")), std::runtime_error);
}

TEST_F(EdgeIoTest, BinaryRejectsBadMagic) {
  std::ofstream out(Path("bad.csr"), std::ios::binary);
  out << "garbage data that is not a csr file at all";
  out.close();
  EXPECT_THROW(LoadCsrBinary(Path("bad.csr")), std::runtime_error);
}

TEST_F(EdgeIoTest, BinaryRejectsTruncatedFile) {
  CsrGraph original = SmallGraph();
  SaveCsrBinary(original, Path("t.csr"));
  auto size = std::filesystem::file_size(Path("t.csr"));
  std::filesystem::resize_file(Path("t.csr"), size - 8);
  EXPECT_THROW(LoadCsrBinary(Path("t.csr")), std::runtime_error);
}

// --- corrupt-header regressions ---------------------------------------------
// The loaders must validate header counts against the actual file size before
// sizing any allocation: a hostile header must produce a clean error, never a
// crash, OOM, or out-of-bounds read (in either the copying or the mmap path).

class CorruptHeaderTest : public EdgeIoTest {
 protected:
  static constexpr uint64_t kMagic = 0x464D435352303031ULL;          // FMCSR001
  static constexpr uint64_t kWeightedMagic = 0x464D435352303032ULL;  // FMCSR002

  // Writes a file with the given header and `payload_bytes` zero bytes after it.
  std::string WriteRaw(const std::string& name, uint64_t magic,
                       uint64_t num_vertices, uint64_t num_edges,
                       size_t payload_bytes) {
    std::string path = Path(name);
    std::ofstream out(path, std::ios::binary);
    uint64_t header[3] = {magic, num_vertices, num_edges};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    std::vector<char> zeros(payload_bytes, 0);
    out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
    return path;
  }

  void ExpectBothLoadersReject(const std::string& path) {
    EXPECT_THROW(LoadCsrBinary(path), std::runtime_error) << path;
    EXPECT_THROW(LoadCsrBinaryMapped(path), std::runtime_error) << path;
  }
};

TEST_F(CorruptHeaderTest, HugeVertexCountRejectedWithoutAllocating) {
  // 2^40 vertices would mean a 8 TiB offsets allocation if the loader trusted
  // the header; it must reject on the 32-bit id range / size check instead.
  ExpectBothLoadersReject(
      WriteRaw("huge_v.csr", kMagic, uint64_t{1} << 40, 0, 64));
}

TEST_F(CorruptHeaderTest, HugeEdgeCountRejectedWithoutAllocating) {
  ExpectBothLoadersReject(
      WriteRaw("huge_e.csr", kMagic, 3, uint64_t{1} << 60, 32 + 64));
}

TEST_F(CorruptHeaderTest, CountsInconsistentWithFileSizeRejected) {
  // Header says 3 vertices / 4 edges => payload must be exactly 4*8 + 4*4 = 48
  // bytes; give it 40 (short) and 56 (long).
  ExpectBothLoadersReject(WriteRaw("short.csr", kMagic, 3, 4, 40));
  ExpectBothLoadersReject(WriteRaw("long.csr", kMagic, 3, 4, 56));
}

TEST_F(CorruptHeaderTest, WeightedMagicWithUnweightedPayloadRejected) {
  // FMCSR002 implies a weights section; a payload sized for FMCSR001 must fail
  // the size cross-check.
  ExpectBothLoadersReject(WriteRaw("wmix.csr", kWeightedMagic, 3, 4, 48));
}

TEST_F(CorruptHeaderTest, UnknownVersionMagicRejected) {
  // Same "FMCSR" family, future version number: must be rejected, not parsed.
  ExpectBothLoadersReject(
      WriteRaw("vnext.csr", 0x464D435352303033ULL, 3, 4, 48));
}

TEST_F(CorruptHeaderTest, TrailingGarbageRejected) {
  CsrGraph original = SmallGraph();
  SaveCsrBinary(original, Path("tg.csr"));
  std::ofstream out(Path("tg.csr"), std::ios::binary | std::ios::app);
  out << "extra bytes";
  out.close();
  ExpectBothLoadersReject(Path("tg.csr"));
}

TEST_F(CorruptHeaderTest, ValidFileStillLoadsAfterHardening) {
  CsrGraph original = SmallGraph();
  SaveCsrBinary(original, Path("ok.csr"));
  EXPECT_TRUE(Identical(LoadCsrBinary(Path("ok.csr")), original));
  EXPECT_TRUE(Identical(LoadCsrBinaryMapped(Path("ok.csr")), original));
}

// --- the parallel loader, the writers and shared storage -------------------

TEST_F(EdgeIoTest, SavesReportAFailedFlush) {
  // A device that fails every write must fail both saves. The text writer's
  // last bytes reach it only when the stream is closed, so that close is
  // checked; the CSR writer checks every write and its close.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full";
  }
  EXPECT_THROW(SaveCsrBinary(SmallGraph(), "/dev/full"), std::runtime_error);
  EXPECT_THROW(SaveEdgeListText(SmallGraph(), "/dev/full"), std::runtime_error);
}

// A graph whose offsets, edges and weights each span several read blocks.
const CsrGraph& MultiBlockGraph(bool weighted) {
  auto make = [](bool w) {
    PowerLawConfig config;
    config.degrees.num_vertices =
        static_cast<Vid>(3 * kCsrReadBlockBytes / sizeof(Eid) + 1000);
    config.degrees.avg_degree = 3;
    config.random_weights = w;
    return GeneratePowerLawGraph(config);
  };
  static const CsrGraph unweighted = make(false);
  static const CsrGraph with_weights = make(true);
  return weighted ? with_weights : unweighted;
}

TEST_F(EdgeIoTest, MultiBlockLoadsMatchOnEveryPoolSize) {
  for (bool weighted : {false, true}) {
    const CsrGraph& original = MultiBlockGraph(weighted);
    ASSERT_GT(original.edges().size_bytes(), 3 * kCsrReadBlockBytes);
    SaveCsrBinary(original, Path("multi.csr"));
    for (uint32_t threads : {1u, 2u, 3u, 8u}) {
      SCOPED_TRACE(testing::Message() << threads << " threads, weighted "
                                      << weighted);
      ThreadPool pool(threads);
      CsrGraph loaded = LoadCsrBinary(Path("multi.csr"), pool);
      EXPECT_FALSE(loaded.memory_mapped());
      EXPECT_TRUE(Identical(loaded, original));
      CsrGraph mapped = LoadCsrBinaryMapped(Path("multi.csr"), pool);
      EXPECT_TRUE(mapped.memory_mapped());
      EXPECT_TRUE(Identical(mapped, original));
    }
  }
}

// Expects both loaders on pools of 1, 2, 3 and 8 threads to reject `path`
// with exactly `message` followed by the path.
void ExpectLoadersReject(const std::string& path, const std::string& message) {
  const std::string want = message + ": " + path;
  for (uint32_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    for (bool mapped : {false, true}) {
      SCOPED_TRACE(testing::Message() << threads << " threads, mapped " << mapped);
      try {
        if (mapped) {
          LoadCsrBinaryMapped(path, pool);
        } else {
          LoadCsrBinary(path, pool);
        }
        ADD_FAILURE() << "accepted; expected " << want;
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(e.what(), want);
      }
    }
  }
}

// Saves `graph`, overwrites `size` bytes at byte `at` of the file with
// `bytes`, and expects both loaders to reject it with `message`.
void ExpectCorruptionRejected(const CsrGraph& graph, const std::string& path,
                              uint64_t at, const void* bytes, size_t size,
                              const std::string& message) {
  SaveCsrBinary(graph, path);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(at));
    f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(size));
  }
  ExpectLoadersReject(path, message);
}

constexpr uint64_t kHeaderBytes = 3 * sizeof(uint64_t);

TEST_F(EdgeIoTest, FallingOffsetAtABlockBoundaryIsRejected) {
  // The first offset of the second block falls below the last of the first:
  // neither block sees the fall on its own.
  const CsrGraph& g = MultiBlockGraph(false);
  const size_t boundary = kCsrReadBlockBytes / sizeof(Eid);
  ASSERT_GT(g.offsets()[boundary - 1], 0u);
  const Eid fallen = g.offsets()[boundary - 1] - 1;
  ExpectCorruptionRejected(g, Path("fall.csr"),
                           kHeaderBytes + boundary * sizeof(Eid), &fallen,
                           sizeof(fallen),
                           "corrupt CSR offsets (not rising from 0)");
}

TEST_F(EdgeIoTest, OutOfRangeLastTargetIsRejected) {
  const CsrGraph& g = MultiBlockGraph(false);
  const Vid target = g.num_vertices();
  ExpectCorruptionRejected(
      g, Path("target.csr"),
      kHeaderBytes + g.offsets().size_bytes() + g.edges().size_bytes() -
          sizeof(Vid),
      &target, sizeof(target), "corrupt CSR edges (target out of vertex range)");
}

TEST_F(EdgeIoTest, NanLastWeightIsRejected) {
  const CsrGraph& g = MultiBlockGraph(true);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const uint64_t file_bytes = kHeaderBytes + g.offsets().size_bytes() +
                              g.edges().size_bytes() + g.weights().size_bytes();
  ExpectCorruptionRejected(g, Path("nan.csr"), file_bytes - sizeof(float), &nan,
                           sizeof(nan),
                           "corrupt CSR weights (not finite and > 0)");
}

TEST_F(EdgeIoTest, FileTruncatedAfterTheHeaderIsRejected) {
  // The header stays whole; the payload ends inside the offsets, inside the
  // edges, inside the weights, or one byte short.
  const CsrGraph& g = MultiBlockGraph(true);
  const uint64_t offsets_end = kHeaderBytes + g.offsets().size_bytes();
  const uint64_t file_bytes =
      offsets_end + g.edges().size_bytes() + g.weights().size_bytes();
  const std::pair<uint64_t, const char*> cuts[] = {
      {kHeaderBytes + 8, "truncated CSR file (offsets)"},
      {offsets_end + 4096, "CSR header counts do not match file size"},
      {file_bytes - g.weights().size_bytes() / 2,
       "CSR header counts do not match file size"},
      {file_bytes - 1, "CSR header counts do not match file size"},
  };
  SaveCsrBinary(g, Path("whole.csr"));
  for (const auto& [size, message] : cuts) {
    std::filesystem::copy_file(
        Path("whole.csr"), Path("cut.csr"),
        std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(Path("cut.csr"), size);
    SCOPED_TRACE(testing::Message() << "cut at " << size);
    ExpectLoadersReject(Path("cut.csr"), message);
  }
}

TEST_F(EdgeIoTest, CopiesAndMovesOutliveTheirSource) {
  // Built, loaded and mapped graphs share immutable storage between copies;
  // every copy and move must stay whole once the graph it came from is gone
  // (ASan turns a dangling view into a failure).
  PowerLawConfig config;
  config.degrees.num_vertices = 4000;
  config.degrees.avg_degree = 6;
  config.random_weights = true;
  const CsrGraph want = GeneratePowerLawGraph(config);
  SaveCsrBinary(want, Path("own.csr"));
  const std::function<CsrGraph()> makers[] = {
      [&] { return GeneratePowerLawGraph(config); },
      [&] { return LoadCsrBinary(Path("own.csr")); },
      [&] { return LoadCsrBinaryMapped(Path("own.csr")); },
  };
  for (const auto& make : makers) {
    auto source = std::make_unique<CsrGraph>(make());
    const bool mapped = source->memory_mapped();
    CsrGraph copy(*source);
    CsrGraph assigned;
    assigned = *source;
    CsrGraph moved(std::move(*source));
    CsrGraph move_assigned;
    move_assigned = std::move(moved);
    source.reset();
    for (const CsrGraph* g : {&copy, &assigned, &move_assigned}) {
      EXPECT_TRUE(Identical(*g, want));
      EXPECT_EQ(g->memory_mapped(), mapped);
      g->CheckValid();
    }
  }
}

}  // namespace
}  // namespace fm
