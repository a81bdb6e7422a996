// Self-tests for the fmlint rule engine: every rule — the per-line rules and
// the whole-program families (layer-dag, header-discipline, hot-path-*,
// telemetry-hot-path, rng-stream-discipline) — is driven over the
// intentionally-violating fixtures in tests/fmlint_fixtures/ through the
// exact production path (Engine::Lint), the suppression machinery (allow /
// disable-enable blocks, unused- and bad-suppression errors) is exercised end
// to end, and the real repo tree is gated to zero findings via
// Engine::LintTree. The fixture directory itself is excluded from
// Engine::LintTree, so these snippets never pollute the repo lint gate.
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/util/json.h"
#include "tools/fmlint/lint.h"
#include "tools/fmlint/parse.h"
#include "tools/fmlint/rules.h"

namespace {

using fmlint::BuildDefaultRules;
using fmlint::Diagnostic;
using fmlint::Engine;

std::string ReadFixture(const std::string& name) {
  std::string path = std::string(FMLINT_FIXTURES_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Lints one fixture under a pretend repo-relative path (so path-derived
// checks like include-guard and per-file exemptions behave as in the tree).
std::vector<Diagnostic> LintOne(const std::string& pretend_path,
                                const std::string& fixture) {
  Engine engine(BuildDefaultRules());
  return engine.Lint({{pretend_path, ReadFixture(fixture)}});
}

// (rule, line) pairs, for exact-match assertions against a whole run.
std::multiset<std::pair<std::string, size_t>> RuleLines(
    const std::vector<Diagnostic>& diags) {
  std::multiset<std::pair<std::string, size_t>> out;
  for (const Diagnostic& d : diags) {
    out.insert({d.rule, d.line});
  }
  return out;
}

using Expected = std::multiset<std::pair<std::string, size_t>>;

TEST(FmlintRules, CatalogHasNineteenUniquelyNamedRules) {
  auto rules = BuildDefaultRules();
  ASSERT_EQ(rules.size(), 19u);
  std::set<std::string> names;
  for (const auto& rule : rules) {
    EXPECT_FALSE(rule->description().empty()) << rule->name();
    names.insert(std::string(rule->name()));
  }
  EXPECT_EQ(names.size(), 19u) << "duplicate rule names";
  const char* expected[] = {"include-guard",  "banned-rng",    "naked-new",
                            "reinterpret-arith", "visit-counts-mut",
                            "raw-clock",      "perf-syscall",  "raw-mutex",
                            "relaxed-order",  "manual-lock",   "include-cycle",
                            "layer-dag",      "header-discipline",
                            "hot-path-alloc", "hot-path-lock", "hot-path-io",
                            "hot-path-div",   "telemetry-hot-path",
                            "rng-stream-discipline"};
  for (const char* name : expected) {
    EXPECT_EQ(names.count(name), 1u) << "missing rule: " << name;
  }
}

TEST(FmlintRules, IncludeGuard) {
  EXPECT_EQ(RuleLines(LintOne("src/fixture_bad.h", "include_guard_bad.h")),
            (Expected{{"include-guard", 1}}));
  EXPECT_TRUE(LintOne("src/fixture_good.h", "include_guard_good.h").empty());
}

TEST(FmlintRules, BannedRng) {
  EXPECT_EQ(RuleLines(LintOne("tests/fx.cc", "banned_rng_bad.cc")),
            (Expected{{"banned-rng", 3}, {"banned-rng", 4}}));
  EXPECT_TRUE(LintOne("tests/fx.cc", "banned_rng_good.cc").empty());
}

TEST(FmlintRules, NakedNew) {
  EXPECT_EQ(RuleLines(LintOne("tests/fx.cc", "naked_new_bad.cc")),
            (Expected{{"naked-new", 1}}));
  EXPECT_TRUE(LintOne("tests/fx.cc", "naked_new_good.cc").empty());
}

TEST(FmlintRules, ReinterpretArith) {
  EXPECT_EQ(RuleLines(LintOne("tests/fx.cc", "reinterpret_arith_bad.cc")),
            (Expected{{"reinterpret-arith", 3}}));
  EXPECT_TRUE(LintOne("tests/fx.cc", "reinterpret_arith_good.cc").empty());
}

TEST(FmlintRules, VisitCountsMut) {
  EXPECT_EQ(RuleLines(LintOne("tests/fx.cc", "visit_counts_mut_bad.cc")),
            (Expected{{"visit-counts-mut", 2}}));
  EXPECT_TRUE(LintOne("tests/fx.cc", "visit_counts_mut_good.cc").empty());
  // The rule is scoped: the same mutation inside src/core/ is allowed.
  Engine engine(BuildDefaultRules());
  EXPECT_TRUE(engine
                  .Lint({{"src/core/fx.cc",
                          ReadFixture("visit_counts_mut_bad.cc")}})
                  .empty());
}

TEST(FmlintRules, RawClock) {
  EXPECT_EQ(RuleLines(LintOne("tests/fx.cc", "raw_clock_bad.cc")),
            (Expected{{"raw-clock", 3}}));
  EXPECT_TRUE(LintOne("tests/fx.cc", "raw_clock_good.cc").empty());
}

TEST(FmlintRules, PerfSyscall) {
  EXPECT_EQ(RuleLines(LintOne("tests/fx.cc", "perf_syscall_bad.cc")),
            (Expected{{"perf-syscall", 3}, {"perf-syscall", 4}}));
  EXPECT_TRUE(LintOne("tests/fx.cc", "perf_syscall_good.cc").empty());
}

TEST(FmlintRules, RawMutex) {
  EXPECT_EQ(RuleLines(LintOne("tests/fx.cc", "raw_mutex_bad.cc")),
            (Expected{{"raw-mutex", 3}, {"raw-mutex", 4}, {"raw-mutex", 6}}));
  EXPECT_TRUE(LintOne("tests/fx.cc", "raw_mutex_good.cc").empty());
  // sync.h itself is the one place std primitives may live. (Other rules —
  // include-guard on the guardless snippet — still apply under that path.)
  Engine engine(BuildDefaultRules());
  for (const Diagnostic& d :
       engine.Lint({{"src/util/sync.h", ReadFixture("raw_mutex_bad.cc")}})) {
    EXPECT_NE(d.rule, "raw-mutex") << d.line;
  }
}

TEST(FmlintRules, RelaxedOrder) {
  EXPECT_EQ(RuleLines(LintOne("tests/fx.cc", "relaxed_order_bad.cc")),
            (Expected{{"relaxed-order", 3}}));
  // Same-line tag, tag one line above, and a wrapped multi-line comment
  // block are all accepted justification placements.
  EXPECT_TRUE(LintOne("tests/fx.cc", "relaxed_order_good.cc").empty());
}

TEST(FmlintRules, ManualLock) {
  EXPECT_EQ(RuleLines(LintOne("tests/fx.cc", "manual_lock_bad.cc")),
            (Expected{{"manual-lock", 4}, {"manual-lock", 5}}));
  EXPECT_TRUE(LintOne("tests/fx.cc", "manual_lock_good.cc").empty());
}

TEST(FmlintRules, IncludeCycleFiresOncePerCycle) {
  Engine engine(BuildDefaultRules());
  auto diags = engine.Lint({{"src/cycle_a.h", ReadFixture("cycle_a.h")},
                            {"src/cycle_b.h", ReadFixture("cycle_b.h")}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "include-cycle");
  EXPECT_NE(diags[0].message.find("src/cycle_a.h"), std::string::npos);
  EXPECT_NE(diags[0].message.find("src/cycle_b.h"), std::string::npos);
}

TEST(FmlintRules, IncludeCycleIgnoresAcyclicAndExternalEdges) {
  Engine engine(BuildDefaultRules());
  // acyclic_a.h also includes src/acyclic_b.h; b includes nothing. An edge
  // into a file outside the linted set (cycle_a.h's target) must not count.
  EXPECT_TRUE(
      engine.Lint({{"src/acyclic_a.h", ReadFixture("acyclic_a.h")},
                   {"src/acyclic_b.h", ReadFixture("acyclic_b.h")}})
          .empty());
}

TEST(FmlintSuppression, AllowSuppressesSameLineOnly) {
  EXPECT_TRUE(LintOne("tests/fx.cc", "suppress_allow.cc").empty());
}

TEST(FmlintSuppression, DisableEnableBlockSuppressesRange) {
  EXPECT_TRUE(LintOne("tests/fx.cc", "suppress_block.cc").empty());
}

TEST(FmlintSuppression, ViolationAfterEnableStillFires) {
  EXPECT_EQ(RuleLines(LintOne("tests/fx.cc", "suppress_block_partial.cc")),
            (Expected{{"raw-mutex", 5}}));
}

TEST(FmlintSuppression, UnusedAllowIsAnError) {
  EXPECT_EQ(RuleLines(LintOne("tests/fx.cc", "suppress_unused.cc")),
            (Expected{{"unused-suppression", 1}}));
}

TEST(FmlintSuppression, UnusedDisableBlockIsAnError) {
  EXPECT_EQ(RuleLines(LintOne("tests/fx.cc", "suppress_unused_block.cc")),
            (Expected{{"unused-suppression", 1}}));
}

TEST(FmlintSuppression, UnknownRuleNameIsAnError) {
  EXPECT_EQ(RuleLines(LintOne("tests/fx.cc", "suppress_unknown.cc")),
            (Expected{{"bad-suppression", 1}}));
}

TEST(FmlintSuppression, UnmatchedEnableIsAnError) {
  EXPECT_EQ(RuleLines(LintOne("tests/fx.cc", "suppress_unmatched_enable.cc")),
            (Expected{{"bad-suppression", 1}}));
}

TEST(FmlintEngine, StripPreservesLineStructureAndBlanksLiterals) {
  std::string stripped = fmlint::StripCommentsAndStrings(
      "int a; // std::mutex in a comment\n"
      "const char* s = \"std::mutex in a string\";\n"
      "/* block\nspanning */ int b;\n");
  auto lines = fmlint::SplitLines(stripped);
  ASSERT_EQ(lines.size(), 4u);
  for (const auto& line : lines) {
    EXPECT_EQ(line.find("std::mutex"), std::string::npos) << line;
  }
  EXPECT_NE(lines[0].find("int a;"), std::string::npos);
  EXPECT_EQ(lines[2].find("block"), std::string::npos);  // comment blanked
  EXPECT_NE(lines[3].find("int b;"), std::string::npos);
}

TEST(FmlintEngine, JsonOutputParsesAndCarriesDiagnostics) {
  Engine engine(BuildDefaultRules());
  auto diags =
      engine.Lint({{"tests/fx.cc", ReadFixture("raw_mutex_bad.cc")}});
  ASSERT_EQ(diags.size(), 3u);
  std::string json = fmlint::DiagnosticsToJson(diags, engine.files_linted());
  fm::json::Value doc = fm::json::ParseJson(json);
  EXPECT_EQ(doc.Str("schema"), "fmlint-v2");
  EXPECT_EQ(doc.Num("files"), 1.0);
  EXPECT_EQ(doc.Num("violations"), 3.0);
  const auto& arr = doc.At("diagnostics").array;
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr[0].Str("file"), "tests/fx.cc");
  EXPECT_EQ(arr[0].Str("rule"), "raw-mutex");
  EXPECT_EQ(arr[0].Num("line"), 3.0);
  EXPECT_FALSE(arr[0].Str("message").empty());
}

// --- layer-dag ---------------------------------------------------------------

TEST(FmlintLayers, LowerLayerMayNotIncludeUpper) {
  EXPECT_EQ(RuleLines(LintOne("src/util/fx.cc", "layer_dag_bad.cc")),
            (Expected{{"layer-dag", 1}}));
}

TEST(FmlintLayers, SameRankEdgeNeedsExplicitAllowance) {
  // graph -> sampling is not in the sibling allowlist (sampling -> graph is).
  EXPECT_EQ(RuleLines(LintOne("src/graph/fx.cc", "layer_dag_same_rank_bad.cc")),
            (Expected{{"layer-dag", 1}}));
  EXPECT_TRUE(
      LintOne("src/sampling/fx.cc", "layer_dag_same_rank_bad.cc").empty());
}

TEST(FmlintLayers, ManifestConformingIncludesAreClean) {
  EXPECT_TRUE(LintOne("src/core/fx.cc", "layer_dag_good.cc").empty());
}

// --- header-discipline -------------------------------------------------------

TEST(FmlintLayers, HeaderDisciplineFlagsCcInternalAndUmbrella) {
  // The umbrella include from inside src/ is also a layer violation (fm.h
  // ranks above every src module), so both rules fire on line 2.
  EXPECT_EQ(RuleLines(LintOne("src/apps/fx.cc", "header_discipline_bad.cc")),
            (Expected{{"header-discipline", 1},
                      {"header-discipline", 2},
                      {"layer-dag", 2},
                      {"header-discipline", 3}}));
}

TEST(FmlintLayers, OwnInternalHeaderAndExternalUmbrellaAreClean) {
  EXPECT_TRUE(LintOne("src/graph/fx.cc", "header_discipline_good.cc").empty());
  EXPECT_TRUE(LintOne("tests/fx.cc", "umbrella_ok.cc").empty());
}

// --- hot-path family ---------------------------------------------------------

TEST(FmlintHotPath, AllocInHotFunction) {
  EXPECT_EQ(RuleLines(LintOne("src/core/fxhot.cc", "hot_path_alloc_bad.cc")),
            (Expected{{"hot-path-alloc", 5}, {"hot-path-alloc", 7}}));
  EXPECT_TRUE(LintOne("src/core/fxhot.cc", "hot_path_alloc_good.cc").empty());
}

TEST(FmlintHotPath, LockInHotFunction) {
  EXPECT_EQ(RuleLines(LintOne("src/core/fxhot.cc", "hot_path_lock_bad.cc")),
            (Expected{{"hot-path-lock", 7}}));
  EXPECT_TRUE(LintOne("src/core/fxhot.cc", "hot_path_lock_good.cc").empty());
}

TEST(FmlintHotPath, IoReachedTransitivelyCarriesTheChain) {
  auto diags = LintOne("src/core/fxhot.cc", "hot_path_io_bad.cc");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "hot-path-io");
  EXPECT_EQ(diags[0].line, 5u);
  EXPECT_NE(diags[0].message.find("Kernel -> Report"), std::string::npos);
  EXPECT_TRUE(LintOne("src/core/fxhot.cc", "hot_path_io_good.cc").empty());
}

TEST(FmlintHotPath, DivisionNeedsJustification) {
  EXPECT_EQ(RuleLines(LintOne("src/core/fxhot.cc", "hot_path_div_bad.cc")),
            (Expected{{"hot-path-div", 3}}));
  // `div:` on the same line and in the comment block above both justify.
  EXPECT_TRUE(LintOne("src/core/fxhot.cc", "hot_path_div_good.cc").empty());
}

TEST(FmlintHotPath, TelemetryUpdatesMustUseShardStores) {
  EXPECT_EQ(
      RuleLines(LintOne("src/core/fxhot.cc", "telemetry_hot_path_bad.cc")),
      (Expected{{"telemetry-hot-path", 9}}));
  EXPECT_TRUE(
      LintOne("src/core/fxhot.cc", "telemetry_hot_path_good.cc").empty());
}

TEST(FmlintHotPath, AmbiguousCalleesDoNotPropagateHotness) {
  // With a unique definition of Emit the closure reaches its printf; adding a
  // second Emit makes the simple-name call unresolvable, and the analysis
  // deliberately under-approximates instead of guessing.
  Engine unique(BuildDefaultRules());
  auto diags =
      unique.Lint({{"src/core/fxa.cc", ReadFixture("ambiguous_hot_a.cc")},
                   {"src/core/fxb.cc", ReadFixture("ambiguous_hot_b.cc")}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "hot-path-io");
  EXPECT_EQ(diags[0].file, "src/core/fxb.cc");

  Engine ambiguous(BuildDefaultRules());
  EXPECT_TRUE(
      ambiguous
          .Lint({{"src/core/fxa.cc", ReadFixture("ambiguous_hot_a.cc")},
                 {"src/core/fxb.cc", ReadFixture("ambiguous_hot_b.cc")},
                 {"src/core/fxc.cc", ReadFixture("ambiguous_hot_c.cc")}})
          .empty());
}

// --- parser front end --------------------------------------------------------

TEST(FmlintParse, TokenizerMergesQualifiersAndSkipsPreprocessor) {
  fmlint::SourceFile f = fmlint::PrepareSource(
      "src/fx.cc",
      "#define WIDTH 64\n"
      "int n = fm::Count(tracer);\n"
      "n /= 2;\n");
  auto toks = fmlint::Tokenize(f);
  std::vector<std::string> texts;
  for (const auto& t : toks) {
    texts.push_back(t.text);
  }
  // The #define line contributes nothing; :: and /= arrive as single tokens.
  EXPECT_EQ(texts, (std::vector<std::string>{
                       "int", "n", "=", "fm", "::", "Count", "(", "tracer",
                       ")", ";", "n", "/=", "2", ";"}));
  EXPECT_EQ(toks[0].line, 2u);
}

TEST(FmlintParse, QualifiesInClassAndOutOfLineDefinitionsAlike) {
  fmlint::SourceFile f = fmlint::PrepareSource(
      "src/fx.cc",
      "namespace fm {\n"
      "class Tracer {\n"
      " public:\n"
      "  void Flush() { count_ = 0; }\n"
      "};\n"
      "void Tracer::Emit() { Flush(); }\n"
      "}  // namespace fm\n");
  auto fns = fmlint::ParseFunctions(f);
  ASSERT_EQ(fns.size(), 2u);
  // Namespace names are deliberately dropped so both spellings agree.
  EXPECT_EQ(fns[0].qualified, "Tracer::Flush");
  EXPECT_EQ(fns[1].qualified, "Tracer::Emit");
  ASSERT_EQ(fns[1].calls.size(), 1u);
  EXPECT_EQ(fns[1].calls[0].name, "Flush");
}

TEST(FmlintParse, HotMarkerOnPrototypeMergesOntoDefinition) {
  // The marker sits on the declaration (header style); the definition is
  // plain. Linting both as one set must still treat Step as hot.
  Engine engine(BuildDefaultRules());
  auto diags = engine.Lint(
      {{"src/core/fxh.h",
        "#ifndef SRC_CORE_FXH_H_\n#define SRC_CORE_FXH_H_\n"
        "namespace fm {\nFM_HOT_PATH int Step(int x);\n}  // namespace fm\n"
        "#endif  // SRC_CORE_FXH_H_\n"},
       {"src/core/fxh.cc",
        "namespace fm {\nint Step(int x) {\n  return x % 5;\n}\n"
        "}  // namespace fm\n"}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "hot-path-div");
  EXPECT_EQ(diags[0].file, "src/core/fxh.cc");
}

// --- rng-stream-discipline -------------------------------------------------

TEST(FmlintRngStream, ThreadCountSeedIsThePlacementBug) {
  // The determinism-bug shape: seeding with a pool-size-derived value makes
  // the walk depend on thread placement.
  EXPECT_EQ(RuleLines(LintOne("src/core/fxr.cc", "rng_stream_bad.cc")),
            (Expected{{"rng-stream-discipline", 11}}));
}

TEST(FmlintRngStream, SlotDerivedSeedFires) {
  EXPECT_EQ(RuleLines(LintOne("src/core/fxr.cc", "rng_stream_slot_bad.cc")),
            (Expected{{"rng-stream-discipline", 11}}));
}

TEST(FmlintRngStream, WalkerSeedSpelledAtTheConstructionIsClean) {
  // WalkerSeed may sit inside a mixer call; it must appear in the arguments.
  EXPECT_TRUE(LintOne("src/core/fxr.cc", "rng_stream_good.cc").empty());
}

TEST(FmlintRngStream, SeedPassedThroughALocalIsAFinding) {
  // The seed must be spelled out where the stream is built: a WalkerSeed
  // value laundered through a local cannot be told apart from any other
  // integer, so the rule rejects it.
  Engine engine(BuildDefaultRules());
  auto diags = engine.Lint(
      {{"src/core/fxr.cc",
        "namespace fm {\n"
        "FM_HOT_PATH unsigned long long Step(unsigned long long c,\n"
        "                                    unsigned long long i) {\n"
        "  auto s = WalkerSeed(c, i);\n"
        "  Rng rng(s);\n"
        "  return rng.Next();\n"
        "}\n"
        "}  // namespace fm\n"}});
  EXPECT_EQ(RuleLines(diags), (Expected{{"rng-stream-discipline", 5}}));
}

// --- raw string literals -----------------------------------------------------

TEST(FmlintEngine, RawStringLiteralsAreBlankedWithLineStructure) {
  std::string stripped = fmlint::StripCommentsAndStrings(
      "const char* d = R\"doc(line \"one\"\n"
      "std::mutex line two)doc\";\n"
      "int after = 1;\n");
  auto lines = fmlint::SplitLines(stripped);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(stripped.find("std::mutex"), std::string::npos);
  EXPECT_EQ(stripped.find("doc"), std::string::npos) << "delimiter leaked";
  EXPECT_EQ(stripped.find("one"), std::string::npos)
      << "inner quote ended the raw string early";
  EXPECT_NE(lines[2].find("int after = 1;"), std::string::npos);
}

TEST(FmlintEngine, RawStringContentsTripNoKeywordRules) {
  EXPECT_TRUE(LintOne("tests/fx.cc", "raw_string_good.cc").empty());
}

// --- timings -----------------------------------------------------------------

TEST(FmlintEngine, JsonTimingsArePerRuleAndAdditive) {
  Engine engine(BuildDefaultRules());
  auto diags =
      engine.Lint({{"tests/fx.cc", ReadFixture("banned_rng_good.cc")}});
  ASSERT_EQ(engine.rule_timings().size(), 19u);
  std::string json = fmlint::DiagnosticsToJson(diags, engine.files_linted(),
                                               &engine.rule_timings());
  fm::json::Value doc = fm::json::ParseJson(json);
  EXPECT_EQ(doc.Str("schema"), "fmlint-v2");
  const fm::json::Value& timings = doc.At("timings");
  EXPECT_GE(timings.Num("total_ms"), 0.0);
  EXPECT_TRUE(timings.Has("rng-stream-discipline"));
  EXPECT_TRUE(timings.Has("include-guard"));
  // Omitting the pointer keeps the fmlint-v2 document shape unchanged.
  std::string legacy = fmlint::DiagnosticsToJson(diags, engine.files_linted());
  EXPECT_EQ(legacy.find("timings"), std::string::npos);
}

// --- whole-repo gate ---------------------------------------------------------

TEST(FmlintGate, RepoTreeIsCleanUnderAllFamilies) {
  // The production tree walk with every rule family enabled: zero findings
  // and (because unused suppressions are themselves findings) zero stale
  // fmlint: directives.
  Engine engine(BuildDefaultRules());
  for (const Diagnostic& d : engine.LintTree(FMLINT_REPO_ROOT)) {
    ADD_FAILURE() << d.file << ":" << d.line << " [" << d.rule << "] "
                  << d.message;
  }
  EXPECT_GT(engine.files_linted(), 100u) << "tree walk found too few files";
}

TEST(FmlintEngine, DiagnosticsSortedByFileThenLine) {
  Engine engine(BuildDefaultRules());
  auto diags =
      engine.Lint({{"tests/z.cc", ReadFixture("naked_new_bad.cc")},
                   {"tests/a.cc", ReadFixture("raw_mutex_bad.cc")}});
  ASSERT_EQ(diags.size(), 4u);
  EXPECT_EQ(diags[0].file, "tests/a.cc");
  EXPECT_EQ(diags[3].file, "tests/z.cc");
  for (size_t i = 1; i < diags.size(); ++i) {
    EXPECT_LE(std::make_pair(diags[i - 1].file, diags[i - 1].line),
              std::make_pair(diags[i].file, diags[i].line));
  }
}

}  // namespace
