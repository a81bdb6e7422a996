// Memory-access hooks for instrumenting the walk kernels.
//
// The sample and shuffle kernels and the baselines' per-walker steps are templated
// on a hook type, and the instrumented run executes those same kernels: there is
// one implementation per access pattern, never a separate replay. `NullMemHook`
// compiles to nothing (the production path), while `CacheSimHook` routes every
// logical load/store through the cache simulator for the Table 5 / Figure 1b
// experiments. The hook records *data* accesses only — instruction fetch and
// stack traffic are negligible for these kernels and are not modelled.
#ifndef SRC_CACHESIM_MEM_HOOK_H_
#define SRC_CACHESIM_MEM_HOOK_H_

#include <cstdint>

#include "src/cachesim/hierarchy.h"

namespace fm {

struct NullMemHook {
  static constexpr bool kEnabled = false;
  void Load(const void*, uint32_t) {}
  void Store(const void*, uint32_t) {}
};

class CacheSimHook {
 public:
  static constexpr bool kEnabled = true;

  explicit CacheSimHook(CacheHierarchy* sim) : sim_(sim) {}

  void Load(const void* addr, uint32_t bytes) {
    sim_->Access(reinterpret_cast<uint64_t>(addr), bytes);
  }
  void Store(const void* addr, uint32_t bytes) {
    sim_->Access(reinterpret_cast<uint64_t>(addr), bytes);
  }

  CacheHierarchy* sim() const { return sim_; }

 private:
  CacheHierarchy* sim_;
};

}  // namespace fm

#endif  // SRC_CACHESIM_MEM_HOOK_H_
