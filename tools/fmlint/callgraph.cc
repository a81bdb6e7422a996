#include "tools/fmlint/callgraph.h"

#include <deque>
#include <utility>

namespace fmlint {

WholeProgram::WholeProgram(int consumers) : consumers_(consumers) {}

void WholeProgram::AddFile(const SourceFile& file) {
  files_.emplace(file.rel_path, file);
}

const SourceFile* WholeProgram::file(const std::string& rel_path) const {
  auto it = files_.find(rel_path);
  return it == files_.end() ? nullptr : &it->second;
}

void WholeProgram::Release() {
  if (++releases_ < consumers_) {
    return;
  }
  releases_ = 0;
  analyzed_ = false;
  files_.clear();
  functions_.clear();
  by_qualified_.clear();
  by_simple_.clear();
  hot_chain_.clear();
}

void WholeProgram::EnsureAnalyzed() {
  if (analyzed_) {
    return;
  }
  analyzed_ = true;

  std::vector<FunctionInfo> declarations;
  for (const auto& [path, file] : files_) {
    for (FunctionInfo& fn : ParseFunctions(file)) {
      if (fn.declaration_only) {
        declarations.push_back(std::move(fn));
      } else {
        functions_.push_back(std::move(fn));
      }
    }
  }
  // Merge markers from prototypes onto same-qualified-name definitions, so
  // `FM_HOT_PATH void Refill();` in a header marks the out-of-line body.
  for (const FunctionInfo& decl : declarations) {
    for (FunctionInfo& def : functions_) {
      if (def.qualified == decl.qualified) {
        def.hot = def.hot || decl.hot;
        def.acquires = def.acquires || decl.acquires;
      }
    }
  }

  BuildIndex();
  BuildHotClosure();
}

void WholeProgram::BuildIndex() {
  for (size_t i = 0; i < functions_.size(); ++i) {
    by_qualified_[functions_[i].qualified].push_back(i);
    by_simple_[functions_[i].name].insert(functions_[i].qualified);
  }
}

std::vector<size_t> WholeProgram::Resolve(const std::string& call_name) const {
  if (call_name.find("::") != std::string::npos) {
    auto it = by_qualified_.find(call_name);
    if (it != by_qualified_.end()) {
      return it->second;
    }
    // Suffix match: a call spelled `ThreadPool::Global` matches the definition
    // qualified `ThreadPool::Global` exactly above, but `Outer::Inner::F` also
    // matches a call spelled `Inner::F`. Require uniqueness.
    const std::vector<size_t>* found = nullptr;
    std::string suffix = "::" + call_name;
    for (const auto& [qual, defs] : by_qualified_) {
      if (qual.size() > suffix.size() &&
          qual.compare(qual.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        if (found != nullptr) {
          return {};  // ambiguous
        }
        found = &defs;
      }
    }
    return found != nullptr ? *found : std::vector<size_t>{};
  }
  auto it = by_simple_.find(call_name);
  if (it == by_simple_.end() || it->second.size() != 1) {
    return {};  // unknown or ambiguous simple name
  }
  return by_qualified_.at(*it->second.begin());
}

bool WholeProgram::IsHot(size_t fn_index) const {
  return fn_index < hot_chain_.size() && !hot_chain_[fn_index].empty();
}

const std::string& WholeProgram::HotChain(size_t fn_index) const {
  static const std::string kEmpty;
  return fn_index < hot_chain_.size() ? hot_chain_[fn_index] : kEmpty;
}

void WholeProgram::BuildHotClosure() {
  hot_chain_.assign(functions_.size(), "");
  std::deque<size_t> queue;
  for (size_t i = 0; i < functions_.size(); ++i) {
    if (functions_[i].hot) {
      hot_chain_[i] = functions_[i].qualified;
      queue.push_back(i);
    }
  }
  while (!queue.empty()) {
    size_t f = queue.front();
    queue.pop_front();
    for (const CallSite& call : functions_[f].calls) {
      for (size_t target : Resolve(call.name)) {
        if (!hot_chain_[target].empty()) {
          continue;
        }
        hot_chain_[target] =
            hot_chain_[f] + " -> " + functions_[target].qualified;
        queue.push_back(target);
      }
    }
  }
}

}  // namespace fmlint
