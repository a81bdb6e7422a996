// The fmlint rule catalog. Each rule documents its rationale next to its
// implementation in rules.cc; DESIGN.md §7e carries the overview table.
//
//   include-guard     headers use #ifndef/#define SRC_PATH_TO_FILE_H_ guards
//                     derived from the repo-relative path.
//   banned-rng        no ad-hoc RNG outside src/util/rng.* — all randomness
//                     flows through the seeded, splittable generators.
//   naked-new         no `new` expressions; ownership lives in containers and
//                     smart pointers.
//   reinterpret-arith no reinterpret_cast to a pointer type whose operand does
//                     byte-pointer arithmetic; memcpy the value out instead.
//   visit-counts-mut  no direct mutation of a WalkResult's visit_counts
//                     outside src/core/.
//   raw-clock         no direct clock reads outside timer.h /
//                     perf_counters.cc.
//   perf-syscall      no direct perf_event_open use outside perf_counters.cc.
//   raw-mutex         no std::mutex / std::lock_guard / std::condition_variable
//                     (or friends) outside src/util/sync.h — concurrency goes
//                     through the thread-safety-annotated fm::Mutex family.
//   relaxed-order     every std::memory_order_relaxed needs an adjacent
//                     `// relaxed:` justification comment.
//   manual-lock       no .lock()/.unlock() calls outside src/util/sync.h —
//                     RAII guards (fm::MutexLock) only.
//   include-cycle     the project #include graph must stay acyclic (whole-tree
//                     DFS over quoted includes).
//
// The whole-program rules (layer-dag, header-discipline, the hot-path family,
// telemetry-hot-path, rng-stream-discipline) live in tools/fmlint/analysis.h
// on top of the parser (parse.h) and call graph (callgraph.h).
#ifndef TOOLS_FMLINT_RULES_H_
#define TOOLS_FMLINT_RULES_H_

#include <memory>
#include <vector>

#include "tools/fmlint/lint.h"

namespace fmlint {

std::unique_ptr<Rule> MakeIncludeGuardRule();
std::unique_ptr<Rule> MakeBannedRngRule();
std::unique_ptr<Rule> MakeNakedNewRule();
std::unique_ptr<Rule> MakeReinterpretArithRule();
std::unique_ptr<Rule> MakeVisitCountsMutRule();
std::unique_ptr<Rule> MakeRawClockRule();
std::unique_ptr<Rule> MakePerfSyscallRule();
std::unique_ptr<Rule> MakeRawMutexRule();
std::unique_ptr<Rule> MakeRelaxedOrderRule();
std::unique_ptr<Rule> MakeManualLockRule();
std::unique_ptr<Rule> MakeIncludeCycleRule();

}  // namespace fmlint

#endif  // TOOLS_FMLINT_RULES_H_
