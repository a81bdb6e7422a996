// out_of_core_walk: walking a disk-resident graph (the paper's §5.4/§7 future-work
// direction, implemented here via a memory-mapped CSR).
//
// FlashMob's streaming design makes out-of-core walking practical: graph data is
// read partition-at-a-time with mostly-sequential access, so the OS page cache can
// stage partitions from disk on demand ("A larger graph streamed through the DRAM
// 80 times ... would consume an I/O bandwidth of 5GB/s, below the capability of
// today's commodity NVMe SSDs", §5.4).
//
// The demo generates a graph, stores it as a binary CSR file, drops the in-memory
// copy, and walks the file through LoadCsrBinaryMapped — comparing against the
// in-memory run for both correctness (identical paths for identical seeds) and
// speed.
#include <cstdio>
#include <exception>
#include <filesystem>

#include "src/fm.h"

namespace {

int Run(int argc, char** argv) {
  using namespace fm;

  std::filesystem::path csr_path =
      argc > 1 ? argv[1] : std::filesystem::temp_directory_path() / "fm_ooc.csr";

  if (!std::filesystem::exists(csr_path)) {
    std::printf("generating a graph and saving CSR to %s ...\n",
                csr_path.c_str());
    PowerLawConfig config;
    config.degrees.num_vertices = 500000;
    config.degrees.avg_degree = 20;
    config.degrees.alpha = 0.8;
    config.degrees.max_degree = 500000 / 16;
    CsrGraph g = GeneratePowerLawGraph(config);
    SaveCsrBinary(g, csr_path.string());
  }

  WalkSpec spec;
  spec.steps = 24;
  spec.keep_paths = false;

  // In-memory reference run.
  CsrGraph in_memory = LoadCsrBinary(csr_path.string());
  spec.num_walkers = static_cast<Wid>(in_memory.num_vertices()) * 2;
  {
    FlashMobEngine engine(in_memory);
    WalkResult r = engine.Run(spec);
    std::printf("in-memory : %6.1f ns/step  (|V|=%u |E|=%llu, CSR %.1f MB)\n",
                r.stats.PerStepNs(), in_memory.num_vertices(),
                static_cast<unsigned long long>(in_memory.num_edges()),
                in_memory.CsrBytes() / 1048576.0);
  }

  // Out-of-core run: the CSR arrays stay in the file mapping; the page cache
  // streams them in as the sample stage touches each partition.
  CsrGraph mapped = LoadCsrBinaryMapped(csr_path.string());
  std::printf("mapped graph reports memory_mapped=%d\n", mapped.memory_mapped());
  {
    FlashMobEngine engine(mapped);
    WalkResult r = engine.Run(spec);
    std::printf("mmap/disk : %6.1f ns/step  (first run may page in from disk)\n",
                r.stats.PerStepNs());
    // Second run: pages are warm, matching in-memory speed.
    WalkResult r2 = engine.Run(spec);
    std::printf("mmap warm : %6.1f ns/step\n", r2.stats.PerStepNs());
  }

  // Correctness: same seed => byte-identical walk on both backings.
  WalkSpec check = spec;
  check.keep_paths = true;
  check.num_walkers = 10000;
  FlashMobEngine a(in_memory), b(mapped);
  WalkResult ra = a.Run(check);
  WalkResult rb = b.Run(check);
  bool same = true;
  for (uint32_t s = 0; s <= check.steps && same; ++s) {
    same = ra.paths.Row(s) == rb.paths.Row(s);
  }
  std::printf("identical paths across backings: %s\n", same ? "yes" : "NO");
  return same ? 0 : 1;
}

}  // namespace

// A file that is not a CSR (or cannot be written) is one error line and exit
// status 1, not an uncaught exception.
int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
