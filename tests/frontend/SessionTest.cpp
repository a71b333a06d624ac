//===- SessionTest.cpp - AnalysisSession API + incremental engine ------------===//
//
// Exercises the long-lived session API: structured query statuses,
// module lifecycle (load/update/replace/invalidate), and the incremental
// contract — a re-analysis after an edit must be byte-identical to a
// from-scratch run while reusing every unaffected SCC.
//
//===----------------------------------------------------------------------===//

#include "frontend/ReportPrinter.h"
#include "frontend/Session.h"
#include "support/Stats.h"
#include "mir/AsmParser.h"
#include "synth/Synth.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <latch>
#include <sstream>
#include <thread>

using namespace retypd;
namespace fs = std::filesystem;

namespace {

fs::path goldenDir() {
  return fs::path(RETYPD_SOURCE_DIR) / "tests" / "frontend" / "golden";
}

std::string slurp(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  EXPECT_TRUE(In) << "cannot open " << P;
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::vector<fs::path> corpus() {
  std::vector<fs::path> Programs;
  for (const auto &Entry : fs::directory_iterator(goldenDir()))
    if (Entry.path().extension() == ".asm")
      Programs.push_back(Entry.path());
  std::sort(Programs.begin(), Programs.end());
  return Programs;
}

Module parseProgram(const std::string &Text) {
  AsmParser Parser;
  auto M = Parser.parse(Text);
  EXPECT_TRUE(M.has_value()) << Parser.error();
  return M ? *M : Module();
}

/// Full verbose rendering of a session's last report.
std::string renderSession(const AnalysisSession &S) {
  EXPECT_NE(S.report(), nullptr);
  ReportPrintOptions Print;
  Print.Schemes = true;
  Print.Sketches = true;
  return renderReport(*S.report(), S.module(), S.lattice(), Print);
}

/// From-scratch analysis of \p M, rendered.
std::string freshRender(const Module &M, unsigned Jobs = 1) {
  SessionOptions Opts;
  Opts.Jobs = Jobs;
  AnalysisSession S(makeDefaultLattice(), Opts);
  S.loadModule(M);
  S.analyze();
  return renderSession(S);
}

const char *kTwoIslandAsm = R"(
extern close
fn leaf_a:
  load eax, [esp+4]
  ret
fn caller_a:
  push 7
  call leaf_a
  add esp, 4
  ret
fn leaf_b:
  load edx, [esp+4]
  load eax, [edx+0]
  ret
fn caller_b:
  push 11
  call leaf_b
  add esp, 4
  push eax
  call close
  add esp, 4
  ret
)";

} // namespace

TEST(SessionTest, QueryStatusLifecycle) {
  AnalysisSession S(makeDefaultLattice());

  auto Q = S.prototypeOf("main");
  EXPECT_FALSE(Q);
  EXPECT_EQ(Q.Status, TypeQueryStatus::NoModule);

  ASSERT_TRUE(S.loadModuleText(kTwoIslandAsm));
  Q = S.prototypeOf("leaf_a");
  EXPECT_EQ(Q.Status, TypeQueryStatus::NotAnalyzed);

  S.analyze();
  Q = S.prototypeOf("leaf_a");
  ASSERT_TRUE(Q) << typeQueryStatusName(Q.Status);
  EXPECT_NE(Q->find("leaf_a"), std::string::npos);

  // Unknown name vs known-but-untyped (external) are distinguishable.
  Q = S.prototypeOf("no_such_function");
  EXPECT_EQ(Q.Status, TypeQueryStatus::UnknownFunction);
  Q = S.prototypeOf("close");
  EXPECT_EQ(Q.Status, TypeQueryStatus::NoTypeInferred);

  EXPECT_TRUE(S.schemeOf("caller_b"));
  EXPECT_TRUE(S.sketchOf("caller_b"));
  EXPECT_EQ(S.schemeOf(12345u).Status, TypeQueryStatus::UnknownFunction);
}

TEST(SessionTest, TypeReportPrototypeStatus) {
  AnalysisSession S(makeDefaultLattice());
  ASSERT_TRUE(S.loadModuleText(kTwoIslandAsm));
  S.analyze();
  const TypeReport &R = *S.report();
  EXPECT_TRUE(R.prototype(*S.functionId("leaf_a"), S.module()));
  EXPECT_EQ(R.prototype(9999, S.module()).Status,
            TypeQueryStatus::UnknownFunction);
  EXPECT_EQ(R.prototype(*S.functionId("close"), S.module()).Status,
            TypeQueryStatus::NoTypeInferred);
  // The legacy string form still renders the placeholder.
  EXPECT_EQ(R.prototypeOf(*S.functionId("close"), S.module()), "<no type>");
}

TEST(SessionTest, InvalidateOneReusesDisjointIsland) {
  AnalysisSession S(makeDefaultLattice());
  ASSERT_TRUE(S.loadModuleText(kTwoIslandAsm));
  S.analyze();
  std::string First = renderSession(S);
  const PipelineStats FirstStats = S.report()->Stats;
  EXPECT_FALSE(FirstStats.IncrementalRun);

  ASSERT_TRUE(S.invalidate("leaf_a"));
  S.analyze();
  const PipelineStats &Inc = S.report()->Stats;
  EXPECT_EQ(renderSession(S), First);
  EXPECT_TRUE(Inc.IncrementalRun);
  // Only leaf_a and its caller re-simplify; the b-island reuses.
  EXPECT_LT(Inc.SccsSimplified, FirstStats.SccsSimplified);
  EXPECT_GE(Inc.SccsReused, 2u);
  // leaf_a's scheme is unchanged, so caller_a needn't re-simplify either.
  EXPECT_EQ(Inc.SccsSimplified, 1u);
}

TEST(SessionTest, NoEditReusesEverything) {
  AnalysisSession S(makeDefaultLattice());
  ASSERT_TRUE(S.loadModuleText(kTwoIslandAsm));
  S.analyze();
  std::string First = renderSession(S);
  S.analyze();
  EXPECT_EQ(renderSession(S), First);
  const PipelineStats &Inc = S.report()->Stats;
  EXPECT_EQ(Inc.SccsSimplified, 0u);
  EXPECT_EQ(Inc.SccsSolved, 0u);
  EXPECT_EQ(Inc.FunctionsDirty, 0u);
  EXPECT_GE(Inc.SccsSolveReused, 4u);
}

TEST(SessionTest, ReplaceFunctionMatchesFreshRun) {
  AnalysisSession S(makeDefaultLattice());
  ASSERT_TRUE(S.loadModuleText(kTwoIslandAsm));
  S.analyze();

  // New leaf_b body: return the pointer argument itself instead of a
  // loaded field — changes leaf_b's scheme and caller_b's refinement.
  Module Edited = parseProgram(kTwoIslandAsm);
  uint32_t LeafB = *Edited.findFunction("leaf_b");
  Function NewBody = Edited.Funcs[LeafB];
  NewBody.Body.erase(NewBody.Body.begin() + 1); // drop the field load
  ASSERT_TRUE(S.replaceFunction("leaf_b", NewBody));
  S.analyze();

  Edited.Funcs[LeafB].Body.erase(Edited.Funcs[LeafB].Body.begin() + 1);
  EXPECT_EQ(renderSession(S), freshRender(Edited));

  const PipelineStats &Inc = S.report()->Stats;
  EXPECT_TRUE(Inc.IncrementalRun);
  EXPECT_EQ(Inc.FunctionsDirty, 1u);
  // The a-island reuses both phases.
  EXPECT_GE(Inc.SccsReused, 2u);
  EXPECT_GE(Inc.SccsSolveReused, 2u);
}

TEST(SessionTest, UpdateModuleAddAndRemoveFunctions) {
  AnalysisSession S(makeDefaultLattice());
  ASSERT_TRUE(S.loadModuleText(kTwoIslandAsm));
  S.analyze();

  // Add a function (and a call edge to it from caller_a).
  Module Edited = parseProgram(kTwoIslandAsm);
  Function NewFn;
  NewFn.Name = "new_leaf";
  {
    Instr I;
    I.Op = Opcode::MovImm;
    I.Dst = Reg::Eax;
    I.Imm = 42;
    NewFn.Body.push_back(I);
    Instr R;
    R.Op = Opcode::Ret;
    NewFn.Body.push_back(R);
  }
  uint32_t NewId = Edited.addFunction(NewFn);
  {
    uint32_t CallerA = *Edited.findFunction("caller_a");
    Instr C;
    C.Op = Opcode::Call;
    C.Target = NewId;
    auto &Body = Edited.Funcs[CallerA].Body;
    Body.insert(Body.end() - 1, C);
  }
  S.updateModule(Edited);
  S.analyze();
  EXPECT_EQ(renderSession(S), freshRender(Edited));
  EXPECT_GE(S.report()->Stats.SccsReused, 2u); // the b-island

  // Remove the function again (and the call).
  Module Back = parseProgram(kTwoIslandAsm);
  S.updateModule(Back);
  S.analyze();
  EXPECT_EQ(renderSession(S), freshRender(Back));
  EXPECT_GE(S.report()->Stats.SccsReused, 2u);
}

TEST(SessionTest, GoldenCorpusIncrementalIdentity) {
  for (const fs::path &P : corpus()) {
    std::string Text = slurp(P);
    AnalysisSession S(makeDefaultLattice());
    ASSERT_TRUE(S.loadModuleText(Text)) << P;
    S.analyze();
    std::string First = renderSession(S);
    size_t FirstSimplified = S.report()->Stats.SccsSimplified;

    // Invalidate each function in turn; every re-analysis must be
    // byte-identical and must simplify no more than the fresh run.
    for (uint32_t F = 0; F < S.module().Funcs.size(); ++F) {
      if (S.module().Funcs[F].IsExternal)
        continue;
      ASSERT_TRUE(S.invalidate(F));
      S.analyze();
      EXPECT_EQ(renderSession(S), First) << P << " fn " << F;
      EXPECT_LE(S.report()->Stats.SccsSimplified, FirstSimplified) << P;
    }
  }
}

TEST(SessionTest, TakeReportResetsQueryState) {
  AnalysisSession S(makeDefaultLattice());
  ASSERT_TRUE(S.loadModuleText(kTwoIslandAsm));
  S.analyze();
  TypeReport R = S.takeReport();
  EXPECT_FALSE(R.Funcs.empty());
  EXPECT_EQ(S.prototypeOf("leaf_a").Status, TypeQueryStatus::NotAnalyzed);
  // History is kept: the next analyze is still incremental.
  S.analyze();
  EXPECT_TRUE(S.report()->Stats.IncrementalRun);
  EXPECT_EQ(S.report()->Stats.SccsSimplified, 0u);
}

TEST(SessionTest, InvalidateReplaysGenerationFromCache) {
  // invalidate() forces the SCC cone to re-run, but nothing actually
  // changed — the regeneration should come entirely from the session's
  // generation cache (PR 4) and reproduce the previous bytes.
  AnalysisSession S(makeDefaultLattice());
  S.loadModule(parseProgram(R"(
fn leaf:
  load eax, [esp+4]
  load eax, [eax+0]
  ret
fn top:
  load eax, [esp+4]
  push eax
  call leaf
  add esp, 4
  ret
)"));
  S.analyze();
  std::string First = renderSession(S);
  EXPECT_GT(S.report()->Stats.GenCacheMisses, 0u) << "first run is cold";

  ASSERT_TRUE(S.invalidate("top"));
  S.analyze();
  EXPECT_EQ(renderSession(S), First);
  EXPECT_GT(S.report()->Stats.GenCacheHits, 0u)
      << "unchanged invalidated SCC must replay its generation";
  EXPECT_EQ(S.report()->Stats.GenCacheMisses, 0u);
}

TEST(SessionTest, StoreWarmRunResolvesNamesThroughThePoolBinding) {
  // Store payloads carry names as pool ids; a warm run batch-interns the
  // pool once and every store decode resolves names through the
  // translation table (PoolBindHits) instead of hashing strings. Reports
  // stay byte-identical with the cold run throughout.
  namespace fs2 = std::filesystem;
  fs2::path Dir = fs2::temp_directory_path() / "retypd_session_poolbind";
  fs2::remove_all(Dir);

  std::string Baseline;
  {
    SessionOptions Opts;
    Opts.StoreDir = Dir.string();
    AnalysisSession S(makeDefaultLattice(), Opts);
    ASSERT_TRUE(S.storeError().empty()) << S.storeError();
    ASSERT_TRUE(S.loadModuleText(kTwoIslandAsm));
    S.analyze();
    Baseline = renderSession(S);
  }
  {
    SessionOptions Opts;
    Opts.StoreDir = Dir.string();
    AnalysisSession S(makeDefaultLattice(), Opts);
    ASSERT_TRUE(S.storeError().empty()) << S.storeError();
    ASSERT_TRUE(S.loadModuleText(kTwoIslandAsm));
    RunMetrics::process().reset();
    S.analyze();
    EXPECT_EQ(renderSession(S), Baseline);
    EXPECT_GT(S.report()->Stats.PoolBindHits, 0u)
        << "warm store decodes did not use the pool translation table";
    EXPECT_GT(CounterSnapshot::take().PoolBinds, 0u)
        << "the pool was never batch-interned";
    EXPECT_EQ(CounterSnapshot::take().PoolBindHits,
              S.report()->Stats.PoolBindHits);
  }
  fs2::remove_all(Dir);
}

TEST(SessionTest, ConcurrentStoreWarmSessionsReportTheirOwnCounters) {
  // Two store-warm sessions, each over its own store directory, analyze
  // concurrently on two threads. PipelineStats holds each run's own
  // counters, so every counter must equal that session's solo run — a
  // report must not absorb the other session's store hits or pool binds.
  namespace fs2 = std::filesystem;
  SynthGenerator Gen;
  std::vector<Module> Mods;
  std::vector<fs2::path> Dirs;
  for (uint64_t Seed : {1, 2}) {
    SynthOptions O;
    O.Seed = Seed;
    O.TargetInstructions = 6000;
    Mods.push_back(Gen.generate("concurrent" + std::to_string(Seed), O).M);
    Dirs.push_back(fs2::temp_directory_path() /
                   ("retypd_session_concurrent_" + std::to_string(Seed)));
    fs2::remove_all(Dirs.back());
  }
  // Opens session I's store, then (after \p Start releases, when given)
  // analyzes its module at jobs 2.
  auto RunSession = [&](size_t I, std::latch *Start) {
    SessionOptions Opts;
    Opts.StoreDir = Dirs[I].string();
    Opts.Jobs = 2;
    AnalysisSession S(makeDefaultLattice(), Opts);
    EXPECT_TRUE(S.storeError().empty()) << S.storeError();
    S.loadModule(Mods[I]);
    if (Start)
      Start->arrive_and_wait();
    return S.analyze().Stats;
  };
  PipelineStats Solo[2], Together[2];
  for (size_t I = 0; I < 2; ++I) {
    RunSession(I, nullptr); // cold: populates the store
    Solo[I] = RunSession(I, nullptr);
    ASSERT_GT(Solo[I].StoreHits, 0u) << "session " << I << " not store-warm";
  }
  std::latch Start(2);
  std::thread A([&] { Together[0] = RunSession(0, &Start); });
  std::thread B([&] { Together[1] = RunSession(1, &Start); });
  A.join();
  B.join();

  for (size_t I = 0; I < 2; ++I) {
    const PipelineStats &X = Solo[I], &Y = Together[I];
#define EXPECT_SAME(Field) EXPECT_EQ(X.Field, Y.Field) << "session " << I;
    EXPECT_SAME(StoreHits);
    EXPECT_SAME(StoreAppends);
    EXPECT_SAME(PoolBindHits);
    EXPECT_SAME(GenCacheHits);
    EXPECT_SAME(GenCacheMisses);
    EXPECT_SAME(CacheHits);
    EXPECT_SAME(CacheMisses);
    EXPECT_SAME(SccCount);
    EXPECT_SAME(SccsScheduled);
    EXPECT_SAME(FunctionsDirty);
    EXPECT_SAME(SccsSimplified);
    EXPECT_SAME(SccsReused);
    EXPECT_SAME(SchemesComputed);
    EXPECT_SAME(SchemesReused);
    EXPECT_SAME(SccsSolved);
    EXPECT_SAME(SccsRefinedOnly);
    EXPECT_SAME(SccsSolveReused);
#undef EXPECT_SAME
  }
  for (const fs2::path &D : Dirs)
    fs2::remove_all(D);
}

TEST(SessionTest, StoreDirOptionJournalsAndReplays) {
  namespace fs2 = std::filesystem;
  fs2::path Dir = fs2::temp_directory_path() / "retypd_session_store";
  fs2::remove_all(Dir);

  std::string Baseline;
  {
    SessionOptions Opts;
    Opts.StoreDir = Dir.string();
    AnalysisSession S(makeDefaultLattice(), Opts);
    ASSERT_TRUE(S.storeError().empty()) << S.storeError();
    ASSERT_TRUE(S.loadModuleText(kTwoIslandAsm));
    S.analyze();
    Baseline = renderSession(S);
    EXPECT_GT(S.report()->Stats.StoreAppends, 0u)
        << "analyze() did not journal its artifacts";
  }
  // A second session (second process) over the same directory warm-runs
  // entirely from the store, byte-identically.
  {
    SessionOptions Opts;
    Opts.StoreDir = Dir.string();
    AnalysisSession S(makeDefaultLattice(), Opts);
    ASSERT_TRUE(S.storeError().empty()) << S.storeError();
    ASSERT_TRUE(S.loadModuleText(kTwoIslandAsm));
    RunMetrics::process().reset();
    S.analyze();
    EXPECT_EQ(renderSession(S), Baseline);
    EXPECT_GT(S.report()->Stats.StoreHits, 0u);
    EXPECT_EQ(S.report()->Stats.CacheMisses, 0u);
    EXPECT_EQ(CounterSnapshot::take().StorePayloadCopies, 0u);
    EXPECT_EQ(S.report()->Stats.StoreAppends, 0u)
        << "identical payloads must not be re-journaled";
  }
  fs2::remove_all(Dir);
}
