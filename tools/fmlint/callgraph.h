// fmlint whole-program layer — cross-TU symbol index, call graph, and hot-path
// closure over parsed FunctionInfos.
//
// Shared by the hot-path rules through one WholeProgram instance so the tree
// is parsed once per lint run. Lifecycle: every consumer rule feeds files in
// CheckFile (AddFile dedups by path), calls EnsureAnalyzed() + queries in
// Finish, then Release(); when the last registered consumer releases, all
// state clears so the same Engine can lint again (the self-tests rely on that).
//
// Call resolution is deliberately under-approximate: a qualified call
// ("ThreadPool::Global") resolves exactly; a simple name resolves only when the whole
// tree has exactly one definition of that name. Ambiguous names (overload
// sets, template-hook pairs like NullMemHook/CacheSimHook::Load) resolve to
// nothing — which is why every leaf kernel is marked FM_HOT_PATH directly
// rather than relying on closure alone.
#ifndef TOOLS_FMLINT_CALLGRAPH_H_
#define TOOLS_FMLINT_CALLGRAPH_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/fmlint/lint.h"
#include "tools/fmlint/parse.h"

namespace fmlint {

class WholeProgram {
 public:
  // `consumers` = number of rules sharing this instance; Release() from each
  // of them resets the state for the next lint run.
  explicit WholeProgram(int consumers);

  void AddFile(const SourceFile& file);
  void EnsureAnalyzed();
  void Release();

  // --- queries; valid between EnsureAnalyzed() and the final Release() ---

  // Function definitions (declaration-only marker entries already merged in
  // and removed).
  const std::vector<FunctionInfo>& functions() const { return functions_; }

  // Stored copy of a fed file, for justification-comment lookups.
  const SourceFile* file(const std::string& rel_path) const;

  // Hot closure: indices of functions that are FM_HOT_PATH or transitively
  // called from one, and the qualified call chain from the nearest hot root
  // ("StepKernel::SampleVp -> SampleVpNode2Vec"; just the name for roots).
  bool IsHot(size_t fn_index) const;
  const std::string& HotChain(size_t fn_index) const;

 private:
  void BuildIndex();
  void BuildHotClosure();
  // Definition indices a call name resolves to (empty when unknown or
  // ambiguous).
  std::vector<size_t> Resolve(const std::string& call_name) const;

  int consumers_;
  int releases_ = 0;
  bool analyzed_ = false;

  std::map<std::string, SourceFile> files_;  // rel_path -> stored copy
  std::vector<FunctionInfo> functions_;      // definitions only, post-merge

  std::map<std::string, std::vector<size_t>> by_qualified_;
  std::map<std::string, std::set<std::string>> by_simple_;

  std::vector<std::string> hot_chain_;  // "" = not hot
};

}  // namespace fmlint

#endif  // TOOLS_FMLINT_CALLGRAPH_H_
