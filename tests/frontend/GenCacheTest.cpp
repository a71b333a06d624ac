//===- GenCacheTest.cpp - Generation-result cache invalidation matrix ---------===//
//
// The generation cache (PR 4) replays per-SCC constraint generation from
// binary payloads keyed by the full dependency set of the generation walk.
// These tests pin down both directions of that contract:
//
//  - REPLAY IS EXACT: a warm run's report is byte-identical to a fresh
//    run's, with zero generation-cache misses and zero constraint parses.
//  - MISS ON ANY DEPENDENCY CHANGE: a body edit, a callee scheme change,
//    and a globals-table change each force the affected functions' probes
//    to miss — while provably-unaffected functions keep hitting (and a
//    callee edit that leaves its *scheme* unchanged stops the dirtiness
//    from reaching callers, mirroring the session's early cutoff).
//
//===----------------------------------------------------------------------===//

#include "absint/ConstraintGen.h"
#include "core/SummaryCache.h"
#include "frontend/Pipeline.h"
#include "frontend/ReportPrinter.h"
#include "mir/AsmParser.h"
#include "support/Stats.h"
#include "synth/Synth.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

using namespace retypd;

namespace {

Module parseOk(const std::string &Asm) {
  AsmParser P;
  auto M = P.parse(Asm);
  EXPECT_TRUE(M.has_value()) << P.error();
  return M ? *M : Module();
}

struct RunOut {
  std::string Report;
  PipelineStats Stats;
  uint64_t ParseCalls = 0;
};

/// One-shot pipeline run over \p Asm against \p Cache, with the rendered
/// report and the run's stats.
RunOut run(const std::string &Asm, SummaryCache *Cache, unsigned Jobs = 1) {
  Module M = parseOk(Asm);
  Lattice Lat = makeDefaultLattice();
  PipelineOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Cache = Cache;
  const CounterSnapshot Before = CounterSnapshot::take();
  Pipeline Pipe(Lat, Opts);
  TypeReport R = Pipe.run(M);
  RunOut Out;
  Out.Report = renderReport(R, M, Lat);
  Out.Stats = R.Stats;
  Out.ParseCalls = Before.delta().ConstraintParseCalls;
  return Out;
}

const char *kTwoLeaves = R"(
global counter, 4
fn f:
  load eax, [esp+4]
  load ebx, [@counter]
  add eax, ebx
  ret
fn g:
  load eax, [esp+4]
  load eax, [eax+4]
  ret
)";

const char *kCallerCallee = R"(
fn callee:
  load eax, [esp+4]
  load eax, [eax+0]
  ret
fn caller:
  load eax, [esp+4]
  push eax
  call callee
  add esp, 4
  ret
)";

} // namespace

TEST(GenCacheTest, WarmRunReplaysGenerationByteForByte) {
  RunOut Plain = run(kTwoLeaves, nullptr);
  EXPECT_EQ(Plain.Stats.GenCacheHits, 0u);
  EXPECT_EQ(Plain.Stats.GenCacheMisses, 0u);

  SummaryCache Cache;
  RunOut Cold = run(kTwoLeaves, &Cache);
  EXPECT_EQ(Cold.Stats.GenCacheHits, 0u);
  EXPECT_EQ(Cold.Stats.GenCacheMisses, 2u) << "two single-function SCCs";

  RunOut Warm = run(kTwoLeaves, &Cache);
  EXPECT_EQ(Warm.Stats.GenCacheHits, 2u);
  EXPECT_EQ(Warm.Stats.GenCacheMisses, 0u);
  EXPECT_EQ(Warm.ParseCalls, 0u) << "warm generation must not parse text";

  EXPECT_EQ(Plain.Report, Cold.Report);
  EXPECT_EQ(Cold.Report, Warm.Report) << "gen-cache replay diverged";
}

TEST(GenCacheTest, BodyEditForcesMissOnlyForEditedFunction) {
  SummaryCache Cache;
  run(kTwoLeaves, &Cache);

  // Same module with g's field offset edited: g must regenerate, f must
  // keep replaying.
  std::string Edited = kTwoLeaves;
  size_t Pos = Edited.find("[eax+4]");
  ASSERT_NE(Pos, std::string::npos);
  Edited.replace(Pos, 7, "[eax+8]");

  RunOut Second = run(Edited, &Cache);
  EXPECT_EQ(Second.Stats.GenCacheHits, 1u) << "f was not edited";
  EXPECT_EQ(Second.Stats.GenCacheMisses, 1u) << "g's body changed";
  EXPECT_EQ(run(Edited, nullptr).Report, Second.Report);
}

TEST(GenCacheTest, CalleeSchemeChangeForcesCallerMiss) {
  SummaryCache Cache;
  run(kCallerCallee, &Cache);

  // Editing the callee's behaviour changes its scheme; the caller's body
  // is untouched but its generated constraints instantiated that scheme,
  // so its probe must miss too.
  std::string Edited = kCallerCallee;
  size_t Pos = Edited.find("[eax+0]");
  ASSERT_NE(Pos, std::string::npos);
  Edited.replace(Pos, 7, "[eax+12]");

  RunOut Second = run(Edited, &Cache);
  EXPECT_EQ(Second.Stats.GenCacheHits, 0u);
  EXPECT_EQ(Second.Stats.GenCacheMisses, 2u)
      << "callee (body) and caller (callee scheme) must both regenerate";
  EXPECT_EQ(run(Edited, nullptr).Report, Second.Report);
}

TEST(GenCacheTest, SchemePreservingCalleeEditKeepsCallerHit) {
  SummaryCache Cache;
  run(kCallerCallee, &Cache);

  // A trailing label-free `nop` appended via an extra basic block changes
  // the callee's body hash but not its generated constraints, hence not
  // its scheme — the caller's dependency key is unchanged and keeps
  // hitting (the generation-cache analog of the scheme-change early
  // cutoff).
  std::string Edited = kCallerCallee;
  size_t Pos = Edited.find("  load eax, [eax+0]");
  ASSERT_NE(Pos, std::string::npos);
  Edited.insert(Pos, "  nop\n");

  RunOut Second = run(Edited, &Cache);
  EXPECT_EQ(Second.Stats.GenCacheMisses, 1u) << "callee body changed";
  EXPECT_EQ(Second.Stats.GenCacheHits, 1u)
      << "caller depends on the callee's scheme, which is unchanged";
  EXPECT_EQ(run(Edited, nullptr).Report, Second.Report);
}

TEST(GenCacheTest, GlobalsTableChangeForcesAllMisses) {
  SummaryCache Cache;
  run(kTwoLeaves, &Cache);

  // Adding a global — even an unreferenced one — changes the environment
  // signature every gen key includes; the conservative contract is that
  // every probe misses.
  std::string Edited = kTwoLeaves;
  size_t Pos = Edited.find("fn f:");
  ASSERT_NE(Pos, std::string::npos);
  Edited.insert(Pos, "global spare, 8\n");

  RunOut Second = run(Edited, &Cache);
  EXPECT_EQ(Second.Stats.GenCacheHits, 0u);
  EXPECT_EQ(Second.Stats.GenCacheMisses, 2u);
  EXPECT_EQ(run(Edited, nullptr).Report, Second.Report);
}

TEST(GenCacheTest, EnvironmentSignatureCoversLattice) {
  Module M = parseOk(kTwoLeaves);
  Lattice Default = makeDefaultLattice();

  LatticeBuilder B;
  B.add("num32", Lattice::Top);
  Lattice Tiny;
  std::string Err;
  ASSERT_TRUE(B.build(Tiny, Err)) << Err;

  EXPECT_NE(ConstraintGenerator::envSig(M, Default),
            ConstraintGenerator::envSig(M, Tiny))
      << "lattice identity must be part of every generation key";
}

TEST(GenCacheTest, ReplayMatchesFreshOverRandomModules) {
  // The miss-on-any-dependency-change property test's positive half: over
  // random synthesized modules, cached replay is byte-for-byte equal to a
  // fresh run, at jobs=1 and jobs=4.
  for (uint64_t Seed : {3u, 5u, 9u}) {
    SynthOptions O;
    O.Seed = Seed;
    O.TargetInstructions = 1500;
    SynthGenerator Gen;
    SynthProgram P = Gen.generate("gencache", O);
    std::string Asm = P.AsmText;

    for (unsigned Jobs : {1u, 4u}) {
      SummaryCache Cache;
      RunOut Plain = run(Asm, nullptr, Jobs);
      RunOut Cold = run(Asm, &Cache, Jobs);
      RunOut Warm = run(Asm, &Cache, Jobs);
      EXPECT_EQ(Plain.Report, Cold.Report)
          << "seed " << Seed << " jobs " << Jobs;
      EXPECT_EQ(Cold.Report, Warm.Report)
          << "seed " << Seed << " jobs " << Jobs;
      EXPECT_GT(Warm.Stats.GenCacheHits, 0u);
      EXPECT_EQ(Warm.Stats.GenCacheMisses, 0u)
          << "seed " << Seed << " jobs " << Jobs;
      EXPECT_EQ(Warm.ParseCalls, 0u);
    }
  }
}

TEST(GenCacheTest, CorruptGenEntriesSelfHeal) {
  SummaryCache Cache;
  run(kTwoLeaves, &Cache);
  ASSERT_GT(Cache.size(), 0u);

  // Corrupt every payload IN PLACE, under its real key: the next run's
  // probes must find the corrupt bytes, reject them (counted as misses),
  // drop the entries, recompute, and overwrite — and still produce the
  // right report. Keys are not enumerable through the cache itself, so
  // journal it into a temp store and list the store's live keys; the
  // store is detached again so the corrupt in-memory bytes are what the
  // next run probes.
  std::string Dir = ::testing::TempDir() + "gencache-corrupt-store";
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(Cache.openStore(Dir));
  ASSERT_TRUE(Cache.flushToStore().has_value());
  std::vector<SummaryKey> Keys;
  for (const auto &[K, Bytes] : Cache.store()->liveEntries())
    Keys.push_back(K);
  Cache.attachStore(nullptr);
  std::filesystem::remove_all(Dir);
  ASSERT_EQ(Keys.size(), Cache.size());
  for (const SummaryKey &K : Keys)
    Cache.insertPayload(K, "corrupt");

  RunOut Fresh = run(kTwoLeaves, nullptr);
  RunOut Second = run(kTwoLeaves, &Cache);
  EXPECT_EQ(Second.Report, Fresh.Report);
  EXPECT_EQ(Second.Stats.GenCacheHits, 0u);
  EXPECT_EQ(Second.Stats.GenCacheMisses, 2u)
      << "corrupt gen payloads must probe as misses";

  RunOut Third = run(kTwoLeaves, &Cache);
  EXPECT_EQ(Third.Stats.GenCacheMisses, 0u)
      << "self-healed entries must replay";
  EXPECT_GT(Third.Stats.GenCacheHits, 0u);
  EXPECT_EQ(Third.Report, Fresh.Report);
}

TEST(GenCacheTest, GenEntriesPersistAcrossStoreProcesses) {
  // Gen payloads share the artifact store with schemes and solutions: a
  // store flushed after one process's run makes the next process's
  // generation warm.
  std::string Dir = ::testing::TempDir() + "gencache-persist-store";
  std::filesystem::remove_all(Dir);
  {
    SummaryCache Cache;
    ASSERT_TRUE(Cache.openStore(Dir));
    run(kTwoLeaves, &Cache);
    ASSERT_TRUE(Cache.flushToStore().has_value());
  }
  SummaryCache Reloaded;
  ASSERT_TRUE(Reloaded.openStore(Dir));
  RunOut Warm = run(kTwoLeaves, &Reloaded);
  EXPECT_GT(Warm.Stats.GenCacheHits, 0u);
  EXPECT_EQ(Warm.Stats.GenCacheMisses, 0u);
  EXPECT_EQ(Warm.Report, run(kTwoLeaves, nullptr).Report);
  std::filesystem::remove_all(Dir);
}
