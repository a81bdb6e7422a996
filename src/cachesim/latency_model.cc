#include "src/cachesim/latency_model.h"

#include "src/util/logging.h"

namespace fm {

double LatencyModel::TotalNs(const CacheCounters& counters) const {
  return static_cast<double>(counters.hits[0]) * l1_ns +
         static_cast<double>(counters.hits[1]) * l2_ns +
         static_cast<double>(counters.hits[2]) * l3_ns +
         static_cast<double>(counters.hits[3]) * dram_ns;
}

double LatencyModel::BoundNs(const CacheCounters& counters, int level) const {
  FM_CHECK(level >= 0 && level <= 3);
  const double lat[4] = {l1_ns, l2_ns, l3_ns, dram_ns};
  return static_cast<double>(counters.hits[level]) * lat[level];
}

}  // namespace fm
