#include "src/core/partition_plan.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/core/cost_model.h"
#include "src/core/mckp.h"
#include "src/util/bits.h"
#include "src/util/logging.h"

namespace fm {

// Internal helper assembling a PartitionPlan from per-group (vp_size_log2,
// internal_shuffle) decisions plus a per-VP policy chooser.
class PlanBuilder {
 public:
  PlanBuilder(const CsrGraph& graph, uint32_t group_size_log2)
      : graph_(graph), group_size_log2_(group_size_log2) {}

  struct GroupChoice {
    uint32_t vp_size_log2 = 0;
    bool internal_shuffle = false;
  };

  // `policy_of(begin, end)` decides the policy of one VP.
  template <typename PolicyFn>
  PartitionPlan Assemble(const std::vector<GroupChoice>& choices,
                         PolicyFn&& policy_of, const CacheInfo& cache,
                         uint32_t threads_sharing_l3) {
    PartitionPlan plan;
    Vid n = graph_.num_vertices();
    plan.num_vertices_ = n;
    plan.group_size_log2_ = group_size_log2_;
    Vid group_size = Vid{1} << group_size_log2_;
    uint32_t num_groups = static_cast<uint32_t>(CeilDiv(n, group_size));
    FM_CHECK(choices.size() == num_groups);
    AnalyticCostModel level_model(cache, LatencyModel{}, threads_sharing_l3);

    uint32_t bin = 0;
    for (uint32_t g = 0; g < num_groups; ++g) {
      PartitionGroup group;
      group.begin = g * group_size;
      group.end = std::min<Vid>(group.begin + group_size, n);
      group.vp_size_log2 = choices[g].vp_size_log2;
      group.vp_base = static_cast<uint32_t>(plan.vps_.size());
      Vid vp_size = Vid{1} << group.vp_size_log2;
      group.vp_count =
          static_cast<uint32_t>(CeilDiv(group.end - group.begin, vp_size));
      group.internal_shuffle = choices[g].internal_shuffle && group.vp_count > 1;
      group.outer_bin_base = bin;
      bin += group.internal_shuffle ? 1 : group.vp_count;
      plan.has_internal_shuffle_ |= group.internal_shuffle;

      for (Vid b = group.begin; b < group.end; b += vp_size) {
        VertexPartition vp;
        vp.begin = b;
        vp.end = std::min<Vid>(b + vp_size, group.end);
        vp.edge_begin = graph_.edge_begin(vp.begin);
        Degree first = graph_.degree(vp.begin);
        Degree last = graph_.degree(vp.end - 1);
        vp.uniform_degree = (first == last);
        vp.degree = vp.uniform_degree ? first : 0;
        vp.policy = policy_of(vp.begin, vp.end);
        double avg_degree = AvgDegree(vp.begin, vp.end);
        vp.cache_level = level_model.LevelFor(
            level_model.WorkingSetBytes(vp.end - vp.begin, avg_degree, vp.policy));
        plan.vps_.push_back(vp);
      }
      plan.groups_.push_back(group);
    }
    plan.num_outer_bins_ = bin;
    plan.CheckValid();
    return plan;
  }

  double AvgDegree(Vid begin, Vid end) const {
    if (end == begin) {
      return 0;
    }
    // offsets() has |V|+1 entries, so indexing with `end` is always valid.
    return static_cast<double>(graph_.offsets()[end] - graph_.offsets()[begin]) /
           static_cast<double>(end - begin);
  }

 private:
  const CsrGraph& graph_;
  uint32_t group_size_log2_;
};

namespace {

// Total out-edges in [begin, end).
Eid EdgeSpan(const CsrGraph& graph, Vid begin, Vid end) {
  return graph.offsets()[end] - graph.offsets()[begin];
}

uint32_t PickGroupSizeLog2(Vid n, uint32_t num_groups) {
  Vid per_group = static_cast<Vid>(CeilDiv(std::max<Vid>(n, 1), num_groups));
  return Log2Ceil(std::max<Vid>(per_group, 1));
}

}  // namespace

PartitionPlan PartitionPlan::BuildOptimized(const CsrGraph& graph, Wid num_walkers,
                                            const CostModel& model,
                                            const Config& config) {
  Vid n = graph.num_vertices();
  FM_CHECK(n > 0);
  uint32_t gsl = PickGroupSizeLog2(n, config.num_groups);
  Vid group_size = Vid{1} << gsl;
  uint32_t num_groups = static_cast<uint32_t>(CeilDiv(n, group_size));
  double density = static_cast<double>(num_walkers) /
                   std::max<double>(1.0, static_cast<double>(graph.num_edges()));

  // One MCKP class per group; items = candidate VP sizes x {flat, internal shuffle}.
  // Item cost = per-iteration sampling time of the group (each VP at the cheaper of
  // PS/DS), in ns; internal-shuffle items add the extra shuffle pass over the
  // group's walkers and weigh 1 outer bin (§4.4).
  struct ItemMeta {
    uint32_t vp_size_log2;
    bool internal;
  };
  std::vector<std::vector<MckpItem>> classes(num_groups);
  std::vector<std::vector<ItemMeta>> metas(num_groups);

  for (uint32_t g = 0; g < num_groups; ++g) {
    Vid gbegin = g * group_size;
    Vid gend = std::min<Vid>(gbegin + group_size, n);
    uint32_t max_s = Log2Ceil(std::max<Vid>(gend - gbegin, 1));
    uint32_t min_s = std::min(config.min_vp_size_log2, max_s);
    double group_walkers =
        density * static_cast<double>(EdgeSpan(graph, gbegin, gend));

    for (uint32_t s = min_s; s <= max_s; ++s) {
      Vid vp_size = Vid{1} << s;
      uint32_t vp_count = static_cast<uint32_t>(CeilDiv(gend - gbegin, vp_size));
      double total_ns = 0;
      for (Vid b = gbegin; b < gend; b += vp_size) {
        Vid e = std::min<Vid>(b + vp_size, gend);
        Eid vp_edges = EdgeSpan(graph, b, e);
        double avg_degree =
            static_cast<double>(vp_edges) / static_cast<double>(e - b);
        double vp_walker_steps = density * static_cast<double>(vp_edges);
        double ps = model.SampleNsPerStep(e - b, avg_degree, density,
                                          SamplePolicy::kPS);
        double ds = model.SampleNsPerStep(e - b, avg_degree, density,
                                          SamplePolicy::kDS);
        total_ns += std::min(ps, ds) * vp_walker_steps;
      }
      classes[g].push_back({total_ns, vp_count});
      metas[g].push_back({s, false});
      if (vp_count > 1) {
        double internal_ns =
            total_ns + model.ShuffleNsPerWalker() * group_walkers;
        classes[g].push_back({internal_ns, 1});
        metas[g].push_back({s, true});
      }
    }
  }

  MckpSolution solution = SolveMckp(classes, config.max_partitions);
  FM_CHECK_MSG(solution.feasible,
               "MCKP infeasible: num_groups exceeds max_partitions?");

  std::vector<PlanBuilder::GroupChoice> choices(num_groups);
  for (uint32_t g = 0; g < num_groups; ++g) {
    const ItemMeta& meta = metas[g][solution.chosen[g]];
    choices[g] = {meta.vp_size_log2, meta.internal};
  }

  PlanBuilder builder(graph, gsl);
  auto policy_of = [&](Vid begin, Vid end) {
    Eid vp_edges = EdgeSpan(graph, begin, end);
    double avg_degree =
        static_cast<double>(vp_edges) / static_cast<double>(end - begin);
    double ps =
        model.SampleNsPerStep(end - begin, avg_degree, density, SamplePolicy::kPS);
    double ds =
        model.SampleNsPerStep(end - begin, avg_degree, density, SamplePolicy::kDS);
    return ps < ds ? SamplePolicy::kPS : SamplePolicy::kDS;
  };
  return builder.Assemble(choices, policy_of, config.cache,
                          config.threads_sharing_l3);
}

PartitionPlan PartitionPlan::BuildUniform(const CsrGraph& graph,
                                          uint32_t partitions,
                                          SamplePolicy policy) {
  Vid n = graph.num_vertices();
  FM_CHECK(n > 0);
  FM_CHECK(partitions > 0);
  uint32_t vp_s = Log2Ceil(std::max<Vid>(static_cast<Vid>(CeilDiv(n, partitions)), 1));
  // One group spanning everything, cut into equal power-of-2 VPs.
  uint32_t gsl = Log2Ceil(n);
  PlanBuilder builder(graph, gsl);
  std::vector<PlanBuilder::GroupChoice> choices{{vp_s, false}};
  return builder.Assemble(
      choices, [policy](Vid, Vid) { return policy; }, CacheInfo{}, 1);
}

PartitionPlan PartitionPlan::BuildManualHeuristic(const CsrGraph& graph,
                                                  Wid num_walkers,
                                                  const Config& config) {
  // The pre-MCKP heuristic (§5.3 "Manual Opt"): L2-sized partitions; PS for
  // high-degree or low-density vertices, DS for the rest.
  Vid n = graph.num_vertices();
  FM_CHECK(n > 0);
  uint32_t gsl = PickGroupSizeLog2(n, config.num_groups);
  Vid group_size = Vid{1} << gsl;
  uint32_t num_groups = static_cast<uint32_t>(CeilDiv(n, group_size));
  double density = static_cast<double>(num_walkers) /
                   std::max<double>(1.0, static_cast<double>(graph.num_edges()));
  AnalyticCostModel sizing(config.cache, LatencyModel{}, config.threads_sharing_l3);

  std::vector<PlanBuilder::GroupChoice> choices(num_groups);
  uint64_t total_vps = 0;
  for (uint32_t g = 0; g < num_groups; ++g) {
    Vid gbegin = g * group_size;
    Vid gend = std::min<Vid>(gbegin + group_size, n);
    double avg_degree = static_cast<double>(EdgeSpan(graph, gbegin, gend)) /
                        static_cast<double>(gend - gbegin);
    // Largest power-of-2 VP whose DS working set fits L2.
    uint32_t max_s = Log2Ceil(std::max<Vid>(gend - gbegin, 1));
    uint32_t s = config.min_vp_size_log2;
    while (s < max_s &&
           sizing.WorkingSetBytes(Vid{1} << (s + 1), avg_degree,
                                  SamplePolicy::kDS) <= config.cache.l2_bytes) {
      ++s;
    }
    s = std::min(s, max_s);
    choices[g] = {s, false};
    total_vps += CeilDiv(gend - gbegin, Vid{1} << s);
  }
  // Enforce the fan-out cap by coarsening the lowest-degree (trailing) groups.
  for (uint32_t g = num_groups; g-- > 0 && total_vps > config.max_partitions;) {
    Vid gbegin = g * group_size;
    Vid gend = std::min<Vid>(gbegin + group_size, n);
    uint32_t max_s = Log2Ceil(std::max<Vid>(gend - gbegin, 1));
    while (choices[g].vp_size_log2 < max_s && total_vps > config.max_partitions) {
      uint64_t before = CeilDiv(gend - gbegin, Vid{1} << choices[g].vp_size_log2);
      ++choices[g].vp_size_log2;
      uint64_t after = CeilDiv(gend - gbegin, Vid{1} << choices[g].vp_size_log2);
      total_vps -= before - after;
    }
  }

  PlanBuilder builder(graph, gsl);
  auto policy_of = [&](Vid begin, Vid end) {
    double avg_degree = static_cast<double>(EdgeSpan(graph, begin, end)) /
                        static_cast<double>(end - begin);
    return (avg_degree >= 32.0 || density < 0.5) ? SamplePolicy::kPS
                                                 : SamplePolicy::kDS;
  };
  return builder.Assemble(choices, policy_of, config.cache,
                          config.threads_sharing_l3);
}

void PartitionPlan::CheckValid() const {
  FM_CHECK(!vps_.empty());
  FM_CHECK(vps_.front().begin == 0);
  FM_CHECK(vps_.back().end == num_vertices_);
  for (size_t i = 1; i < vps_.size(); ++i) {
    FM_CHECK_MSG(vps_[i].begin == vps_[i - 1].end, "VPs must tile the vertex array");
  }
  uint32_t bins = 0;
  uint32_t vp_index = 0;
  for (const PartitionGroup& g : groups_) {
    FM_CHECK(g.vp_base == vp_index);
    FM_CHECK(g.outer_bin_base == bins);
    vp_index += g.vp_count;
    bins += g.internal_shuffle ? 1 : g.vp_count;
    FM_CHECK(vps_[g.vp_base].begin == g.begin);
    FM_CHECK(vps_[g.vp_base + g.vp_count - 1].end == g.end);
  }
  FM_CHECK(vp_index == vps_.size());
  FM_CHECK(bins == num_outer_bins_);
  // Arithmetic lookup agrees with the ranges.
  for (uint32_t i = 0; i < num_vps(); ++i) {
    FM_CHECK(VpOf(vps_[i].begin) == i);
    FM_CHECK(VpOf(vps_[i].end - 1) == i);
  }
}

std::string PartitionPlan::Describe() const {
  std::ostringstream out;
  out << "plan: |V|=" << num_vertices_ << " groups=" << groups_.size()
      << " vps=" << vps_.size() << " outer_bins=" << num_outer_bins_ << "\n";
  for (size_t g = 0; g < groups_.size(); ++g) {
    const PartitionGroup& grp = groups_[g];
    uint32_t ps = 0;
    for (uint32_t i = 0; i < grp.vp_count; ++i) {
      if (vps_[grp.vp_base + i].policy == SamplePolicy::kPS) {
        ++ps;
      }
    }
    out << "  group " << g << ": v[" << grp.begin << "," << grp.end << ") vp_size=2^"
        << grp.vp_size_log2 << " vps=" << grp.vp_count << " (PS=" << ps
        << " DS=" << (grp.vp_count - ps) << ")"
        << (grp.internal_shuffle ? " internal-shuffle" : "") << "\n";
  }
  return out.str();
}

}  // namespace fm
