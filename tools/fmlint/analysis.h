// fmlint v3 whole-program analysis rules (see rules.h for the per-line
// catalog; DESIGN.md §7f for the architecture contracts these enforce).
//
//   layer-dag          #include edges must follow the declared layer manifest:
//                      util -> graph/gen/sampling/mem -> core/cachesim ->
//                      apps/baseline -> bench/tools/examples -> tests, with
//                      the explicit sibling edges gen->graph, sampling->graph,
//                      core->cachesim.
//   header-discipline  no including .cc files; src/<d>/internal/ headers are
//                      private to src/<d>/; the src/fm.h umbrella is for
//                      external consumers only, never included from src/.
//   lock-order         the acquired-before graph over fm::MutexLock /
//                      FM_REQUIRES / FM_ACQUIRE sites, propagated through the
//                      call graph, must stay acyclic (deadlock freedom).
//   hot-path-alloc     no heap allocation inside FM_HOT_PATH functions or
//                      anything they transitively call.
//   hot-path-lock      no mutex acquisition inside the hot-path closure.
//   hot-path-io        no blocking syscalls, I/O, or logging inside the
//                      hot-path closure.
//   hot-path-div       per-element `/` or `%` inside the hot-path closure
//                      needs an adjacent `div:` justification comment.
//   telemetry-hot-path no shared-atomic RMW (fetch_add etc.) inside the
//                      hot-path closure; hot metric updates accumulate per
//                      worker and fold at the stage barrier (the
//                      ShardedVisitCounter pattern).
//
// Data-flow-backed families (tools/fmlint/dataflow.h; DESIGN.md §7h):
//
//   rng-stream-discipline  every RNG construction / Seed() call inside the
//                      FM_HOT_PATH closure must trace its seed expression to
//                      WalkerSeed(chunk_seed, walker_index) provenance; seeds
//                      derived from thread ids, ring-slot indices, pointers,
//                      or clocks break walk determinism (the PR 3 placement
//                      bug shape) and are findings.
//   untrusted-input-taint  scalars loaded from file headers (LoadScalar /
//                      MappedSpan) stay tainted until compared against a
//                      bound; tainted allocation sizes, array indices, and
//                      loop bounds are findings unless an adjacent
//                      `// taint: <why>` comment justifies them.
//   relaxed-publication    a relaxed atomic store must state its discipline
//                      (single-writer / no concurrent writers / ordered by /
//                      commutative) in its `relaxed:` comment, must never
//                      publish a pointer-derived value, and relaxed loads of
//                      a variable with a pointer-publishing relaxed store are
//                      findings too.
#ifndef TOOLS_FMLINT_ANALYSIS_H_
#define TOOLS_FMLINT_ANALYSIS_H_

#include <memory>
#include <vector>

#include "tools/fmlint/callgraph.h"
#include "tools/fmlint/dataflow.h"
#include "tools/fmlint/lint.h"

namespace fmlint {

std::unique_ptr<Rule> MakeLayerDagRule();
std::unique_ptr<Rule> MakeHeaderDisciplineRule();

// The call-graph-backed rules share one WholeProgram; construct it with a
// consumer count matching how many of these you register.
std::unique_ptr<Rule> MakeLockOrderRule(std::shared_ptr<WholeProgram> wp);
std::unique_ptr<Rule> MakeHotPathAllocRule(std::shared_ptr<WholeProgram> wp);
std::unique_ptr<Rule> MakeHotPathLockRule(std::shared_ptr<WholeProgram> wp);
std::unique_ptr<Rule> MakeHotPathIoRule(std::shared_ptr<WholeProgram> wp);
std::unique_ptr<Rule> MakeHotPathDivRule(std::shared_ptr<WholeProgram> wp);
std::unique_ptr<Rule> MakeTelemetryHotPathRule(std::shared_ptr<WholeProgram> wp);

// The data-flow-backed rules additionally share one DataFlowCache (same
// consumer-counted lifecycle).
std::unique_ptr<Rule> MakeRngStreamRule(std::shared_ptr<WholeProgram> wp,
                                        std::shared_ptr<DataFlowCache> cache);
std::unique_ptr<Rule> MakeUntrustedInputTaintRule(
    std::shared_ptr<WholeProgram> wp, std::shared_ptr<DataFlowCache> cache);
std::unique_ptr<Rule> MakeRelaxedPublicationRule(
    std::shared_ptr<WholeProgram> wp, std::shared_ptr<DataFlowCache> cache);

// All nine call-graph-backed whole-program rules wired to a fresh shared
// WholeProgram (and, for the data-flow trio, a shared DataFlowCache).
std::vector<std::unique_ptr<Rule>> MakeWholeProgramRules();

}  // namespace fmlint

#endif  // TOOLS_FMLINT_ANALYSIS_H_
