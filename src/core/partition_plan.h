// Vertex partitions, groups, and the DP-optimized partition plan (§4.1, §4.4).
//
// The degree-sorted vertex array is cut into G equal-size power-of-2 groups; each
// group is cut into equal power-of-2-size vertex partitions (VPs), so locating a
// vertex's VP is pure arithmetic (two shifts + two small-table lookups) — no
// per-vertex map is ever touched on the hot shuffle path.
//
// Shuffle fan-out is bounded by `max_partitions` (P): each VP is an *outer bin*
// unless its group opted into an internal second-level shuffle, in which case the
// whole group is one outer bin and its VPs are separated by an inner counting pass.
#ifndef SRC_CORE_PARTITION_PLAN_H_
#define SRC_CORE_PARTITION_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/csr_graph.h"
#include "src/util/cache_info.h"
#include "src/util/types.h"

namespace fm {

class CostModel;

// Edge sampling policy of one vertex partition (§4.2).
enum class SamplePolicy : uint8_t {
  kPS,  // pre-sampling: batched sample production into per-vertex edge buffers
  kDS,  // direct sampling: dice thrown on the spot against the adjacency list
};

struct VertexPartition {
  Vid begin = 0;
  Vid end = 0;  // exclusive
  SamplePolicy policy = SamplePolicy::kDS;
  // All member vertices share one degree (common in the sorted long tail); enables
  // the direct-indexing fast path that skips the CSR offset lookup (§4.2 "DS").
  bool uniform_degree = false;
  Degree degree = 0;          // valid when uniform_degree
  Eid edge_begin = 0;         // CSR offset of `begin`
  // Cache level (1..4, 4=DRAM) the partition's sampling working set fits in —
  // informational, reported by the Fig 10 bench.
  uint8_t cache_level = 4;

  Vid vertex_count() const { return end - begin; }
};

struct PartitionGroup {
  Vid begin = 0;
  Vid end = 0;
  uint32_t vp_size_log2 = 0;   // VPs in this group have 2^vp_size_log2 vertices
  uint32_t vp_base = 0;        // global index of the group's first VP
  uint32_t vp_count = 0;
  bool internal_shuffle = false;
  uint32_t outer_bin_base = 0;  // first outer bin (== vp count bins unless internal)
};

class PartitionPlan {
 public:
  Vid num_vertices() const { return num_vertices_; }
  uint32_t num_vps() const { return static_cast<uint32_t>(vps_.size()); }
  uint32_t num_outer_bins() const { return num_outer_bins_; }
  uint32_t num_groups() const { return static_cast<uint32_t>(groups_.size()); }
  bool has_internal_shuffle() const { return has_internal_shuffle_; }

  const std::vector<VertexPartition>& vps() const { return vps_; }
  const std::vector<PartitionGroup>& groups() const { return groups_; }
  const VertexPartition& vp(uint32_t i) const { return vps_[i]; }

  uint32_t GroupOf(Vid v) const {
    uint32_t g = static_cast<uint32_t>(v >> group_size_log2_);
    uint32_t last = static_cast<uint32_t>(groups_.size() - 1);
    return g < last ? g : last;
  }

  uint32_t VpOf(Vid v) const {
    const PartitionGroup& g = groups_[GroupOf(v)];
    return g.vp_base + static_cast<uint32_t>((v - g.begin) >> g.vp_size_log2);
  }

  // Outer shuffle bin of a vertex (< num_outer_bins()).
  uint32_t OuterBinOf(Vid v) const {
    const PartitionGroup& g = groups_[GroupOf(v)];
    if (g.internal_shuffle) {
      return g.outer_bin_base;
    }
    return g.outer_bin_base + static_cast<uint32_t>((v - g.begin) >> g.vp_size_log2);
  }

  // Structural invariants: VPs tile [0, num_vertices), groups tile the VPs, bin
  // indices dense. Aborts on violation.
  void CheckValid() const;

  // Human-readable summary (one line per group) for the Fig 10 bench.
  std::string Describe() const;

  // -- construction ----------------------------------------------------------

  // Builds the DP-optimized plan (§4.4): groups the sorted vertices, enumerates
  // power-of-2 VP sizes per group (costed via `model` at the walk's density), maps
  // to MCKP and solves. `graph` must be degree-sorted descending.
  struct Config {
    uint32_t num_groups = 64;        // G hyper-parameter (64..128 in the paper)
    uint32_t max_partitions = 2048;  // P: outer shuffle fan-out limit (L2-derived)
    uint32_t min_vp_size_log2 = 6;   // don't cut below 64 vertices
    CacheInfo cache;
    // Sampling working sets target one core's private share; the shared L3 is
    // divided by the thread count when classifying cache levels. 0 = auto (the
    // engine fills in its pool's thread count; standalone callers get 1).
    uint32_t threads_sharing_l3 = 0;
  };

  static PartitionPlan BuildOptimized(const CsrGraph& graph, Wid num_walkers,
                                      const CostModel& model, const Config& config);

  // Uniform strategy baselines for Fig 9b: `partitions` equal-size VPs, all with the
  // given policy.
  static PartitionPlan BuildUniform(const CsrGraph& graph, uint32_t partitions,
                                    SamplePolicy policy);

  // The pre-MCKP heuristic the paper calls "Manual Opt" (§5.3): PS for high-degree
  // or low-density vertices, DS otherwise, with L2-sized partitions.
  static PartitionPlan BuildManualHeuristic(const CsrGraph& graph, Wid num_walkers,
                                            const Config& config);

 private:
  friend class PlanBuilder;

  Vid num_vertices_ = 0;
  uint32_t group_size_log2_ = 0;
  uint32_t num_outer_bins_ = 0;
  bool has_internal_shuffle_ = false;
  std::vector<VertexPartition> vps_;
  std::vector<PartitionGroup> groups_;
};

}  // namespace fm

#endif  // SRC_CORE_PARTITION_PLAN_H_
