// fmlint whole-program rules (see rules.h for the per-line catalog; DESIGN.md
// §7f for the architecture contracts these enforce).
//
//   layer-dag          #include edges must follow the declared layer manifest:
//                      util -> graph/gen/sampling/mem -> core/cachesim ->
//                      apps/baseline -> bench/tools/examples -> tests, with
//                      the explicit sibling edges gen->graph, sampling->graph,
//                      core->cachesim.
//   header-discipline  no including .cc files; src/<d>/internal/ headers are
//                      private to src/<d>/; the src/fm.h umbrella is for
//                      external consumers only, never included from src/.
//
// The hot-path family shares one WholeProgram (callgraph.h) and scans every
// FM_HOT_PATH function and everything it transitively calls:
//
//   hot-path-alloc     no heap allocation.
//   hot-path-lock      no lock-guard declaration, Lock/TryLock call, or
//                      FM_ACQUIRE-annotated function.
//   hot-path-io        no blocking syscalls, I/O, or logging.
//   hot-path-div       per-element `/` or `%` needs an adjacent `div:`
//                      justification comment.
//   telemetry-hot-path no shared-atomic RMW (fetch_add etc.); hot metric
//                      updates accumulate in per-worker slots folded at the
//                      stage barrier (Node2VecShard in src/core/engine.cc).
//   rng-stream-discipline
//                      every `...Rng var(...)` / `...Rng var{...}` and every
//                      Seed(...) call spells WalkerSeed in its argument list
//                      and names no thread id, ring slot, or clock; any other
//                      seed makes walks depend on placement or pool size.
#ifndef TOOLS_FMLINT_ANALYSIS_H_
#define TOOLS_FMLINT_ANALYSIS_H_

#include <memory>
#include <vector>

#include "tools/fmlint/lint.h"

namespace fmlint {

std::unique_ptr<Rule> MakeLayerDagRule();
std::unique_ptr<Rule> MakeHeaderDisciplineRule();

// The six hot-path rules wired to one fresh shared WholeProgram.
std::vector<std::unique_ptr<Rule>> MakeWholeProgramRules();

}  // namespace fmlint

#endif  // TOOLS_FMLINT_ANALYSIS_H_
