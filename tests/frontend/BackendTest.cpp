//===- BackendTest.cpp - Solver-backend seam + cross-validation -----------===//
//
// Coverage for the SolverBackend seam (core/SolverBackend.h):
//
//  - cross-validation racing the retypd and binsub backends over the
//    golden corpus and synthetic modules, with a per-program agreement
//    summary — byte-level where the two algorithms agree, eval/Metrics
//    parity bounds where they legitimately differ;
//  - --jobs byte-identity for the binsub backend under the readiness
//    scheduler (same contract GoldenTest pins for retypd);
//  - backend-keyed caching: a binsub run over a retypd-warmed cache may
//    reuse generation results (backend-independent) but must never replay
//    a retypd scheme or solution — zero false hits;
//  - backend-tagged store records (payload tag bit 0x10) visible to
//    Store::inspect;
//  - SchedulerTest's diamond ladder under binsub at depth 40, where
//    unpruned schemes used to grow exponentially and crash.
//
//===----------------------------------------------------------------------===//

#include "core/SolverBackend.h"
#include "core/SummaryCache.h"
#include "eval/Metrics.h"
#include "frontend/Pipeline.h"
#include "frontend/ReportPrinter.h"
#include "mir/AsmParser.h"
#include "synth/Synth.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

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

Module parseAsm(const std::string &Text) {
  AsmParser Parser;
  auto M = Parser.parse(Text);
  EXPECT_TRUE(M.has_value()) << Parser.error();
  return M ? *M : Module();
}

Module parseProgram(const fs::path &P) { return parseAsm(slurp(P)); }

struct BackendRun {
  std::string Text; ///< rendered report (schemes on)
  TypeReport R;
  Module M; ///< post-run module (interfaces recovered), for scoring
};

BackendRun runBackend(Module M, BackendKind Backend, unsigned Jobs = 1,
                      SummaryCache *Cache = nullptr) {
  Lattice Lat = makeDefaultLattice();
  PipelineOptions Opts;
  Opts.Backend = Backend;
  Opts.Jobs = Jobs;
  Opts.Cache = Cache;
  Pipeline Pipe(Lat, Opts);
  BackendRun Out;
  Out.R = Pipe.run(M);
  ReportPrintOptions Print;
  Print.Schemes = true;
  Out.Text = renderReport(Out.R, M, Lat, Print);
  Out.M = std::move(M);
  return Out;
}

/// The diamond ladder of SchedulerTest: distinct call paths double per
/// layer, so any per-callsite residue a scheme carries doubles too.
std::string diamondAsm(unsigned Layers) {
  std::string Asm = "fn d0:\n  load eax, [esp+4]\n  add eax, 1\n  ret\n";
  for (unsigned I = 1; I <= Layers; ++I) {
    std::string N = std::to_string(I);
    std::string P = std::string("d").append(std::to_string(I - 1));
    Asm += "fn a" + N + ":\n  load eax, [esp+4]\n  push eax\n  call " + P +
           "\n  add esp, 4\n  ret\n";
    Asm += "fn b" + N + ":\n  load eax, [esp+4]\n  push eax\n  call " + P +
           "\n  add esp, 4\n  ret\n";
    Asm += "fn d" + N + ":\n  push " + N + "\n  call a" + N +
           "\n  add esp, 4\n  push " + N + "\n  call b" + N +
           "\n  add esp, 4\n  ret\n";
  }
  return Asm;
}

/// Per-function prototype diff between two runs of the same module.
size_t countPrototypeDiffs(const BackendRun &A, const BackendRun &B,
                           std::string &Summary) {
  size_t Diffs = 0;
  for (uint32_t F = 0; F < A.M.Funcs.size(); ++F) {
    std::string PA = A.R.prototypeOf(F, A.M);
    std::string PB = B.R.prototypeOf(F, B.M);
    if (PA != PB) {
      ++Diffs;
      Summary += "    " + A.M.Funcs[F].Name + ": retypd='" + PA +
                 "' binsub='" + PB + "'\n";
    }
  }
  return Diffs;
}

} // namespace

TEST(BackendTest, RegistryRoundTrips) {
  EXPECT_STREQ(backendName(BackendKind::Retypd), "retypd");
  EXPECT_STREQ(backendName(BackendKind::BinSub), "binsub");
  EXPECT_EQ(parseBackendKind("retypd"), BackendKind::Retypd);
  EXPECT_EQ(parseBackendKind("binsub"), BackendKind::BinSub);
  EXPECT_FALSE(parseBackendKind("binsab").has_value());
  EXPECT_FALSE(parseBackendKind("").has_value());

  SymbolTable Syms;
  Lattice Lat = makeDefaultLattice();
  SimplifyOptions SOpts;
  for (BackendKind K : {BackendKind::Retypd, BackendKind::BinSub}) {
    auto B = makeSolverBackend(K, Syms, Lat, SOpts);
    ASSERT_TRUE(B);
    EXPECT_EQ(B->kind(), K);
    EXPECT_STREQ(B->name(), backendName(K));
  }
}

TEST(BackendTest, ReportsRecordTheBackend) {
  Module M = parseProgram(corpus().front());
  EXPECT_EQ(runBackend(M, BackendKind::Retypd).R.Stats.Backend, "retypd");
  EXPECT_EQ(runBackend(M, BackendKind::BinSub).R.Stats.Backend, "binsub");
}

TEST(BackendTest, CrossValidationGoldenCorpus) {
  // Race the two backends over every golden program and print the
  // agreement report. The two algorithms are different simplification
  // theories — scheme *text* legitimately differs (binsub names its
  // existentials τ$proc$N) — so agreement is measured at the recovered
  // C-prototype level, byte-equal prototype by prototype. On this corpus
  // they agree almost everywhere, and where they don't, every
  // disagreeing function still gets *a* prototype (the divergence is
  // precision, never a dropped result).
  size_t Identical = 0, Programs = 0, DiffFuncs = 0, TotalFuncs = 0;
  std::string Report;
  for (const fs::path &P : corpus()) {
    ++Programs;
    Module M = parseProgram(P);
    BackendRun A = runBackend(M, BackendKind::Retypd);
    BackendRun B = runBackend(M, BackendKind::BinSub);
    TotalFuncs += A.M.Funcs.size();
    std::string FuncDiffs;
    size_t Diffs = countPrototypeDiffs(A, B, FuncDiffs);
    DiffFuncs += Diffs;
    if (Diffs == 0) {
      ++Identical;
      Report += "  " + P.stem().string() + ": prototypes byte-identical\n";
    } else {
      Report += "  " + P.stem().string() + ": " + std::to_string(Diffs) +
                " differing prototype(s)\n" + FuncDiffs;
    }
    // Result-coverage parity: binsub must type exactly the functions
    // retypd types (same query status function by function).
    for (uint32_t F = 0; F < A.M.Funcs.size(); ++F)
      EXPECT_EQ(A.R.prototype(F, A.M).Status, B.R.prototype(F, B.M).Status)
          << P << " fn " << A.M.Funcs[F].Name;
  }
  std::printf("cross-validation (golden corpus): %zu/%zu programs agree, "
              "%zu/%zu prototypes differ\n%s",
              Identical, Programs, DiffFuncs, TotalFuncs, Report.c_str());
  // Agreement floor, calibrated on the checked-in corpus: at most one
  // program may diverge, and only by a couple of functions.
  EXPECT_GE(Identical + 1, Programs) << Report;
  EXPECT_LE(DiffFuncs, 2u) << Report;
}

TEST(BackendTest, CrossValidationSynthMetricsParity) {
  // Where the backends disagree semantically, eval/Metrics against exact
  // synthetic ground truth bounds the gap: binsub must stay comparably
  // conservative and accurate — it is a speed/simplicity recasting, not
  // a different type system.
  SynthGenerator Gen;
  Lattice Lat = makeDefaultLattice();
  Evaluator Eval(Lat);
  std::string Report;
  for (uint64_t Seed : {1u, 7u, 23u}) {
    SynthOptions SO;
    SO.Seed = Seed;
    SO.TargetInstructions = 300;
    SynthProgram Prog = Gen.generate("xval_" + std::to_string(Seed), SO);
    BackendRun A = runBackend(Prog.M, BackendKind::Retypd);
    BackendRun B = runBackend(Prog.M, BackendKind::BinSub);
    MetricSummary MA = Eval.scoreRetypd(A.M, A.R, *Prog.Truth);
    MetricSummary MB = Eval.scoreRetypd(B.M, B.R, *Prog.Truth);
    char Line[256];
    std::snprintf(Line, sizeof(Line),
                  "  seed %llu: dist %.3f/%.3f cons %.3f/%.3f ptr %.3f/%.3f "
                  "const %.3f/%.3f (retypd/binsub)\n",
                  static_cast<unsigned long long>(Seed), MA.meanDistance(),
                  MB.meanDistance(), MA.conservativeness(),
                  MB.conservativeness(), MA.pointerAccuracy(),
                  MB.pointerAccuracy(), MA.constRecall(), MB.constRecall());
    Report += Line;
    EXPECT_EQ(MA.Slots, MB.Slots) << "seed " << Seed;
    EXPECT_LE(MB.meanDistance(), MA.meanDistance() + 0.5) << "seed " << Seed;
    EXPECT_GE(MB.conservativeness(), MA.conservativeness() - 0.05)
        << "seed " << Seed;
    EXPECT_GE(MB.pointerAccuracy(), MA.pointerAccuracy() - 0.1)
        << "seed " << Seed;
    EXPECT_GE(MB.constRecall(), MA.constRecall() - 0.1) << "seed " << Seed;
  }
  std::printf("cross-validation (synth metrics):\n%s", Report.c_str());
}

TEST(BackendTest, BinSubByteIdenticalAcrossJobs) {
  // The acceptance bar: binsub reports are byte-identical at --jobs
  // 1/4/auto. The backend's determinism contract (no interning-order
  // leakage into output) is exactly what this pins.
  for (const fs::path &P : corpus()) {
    Module M = parseProgram(P);
    std::string Seq = runBackend(M, BackendKind::BinSub, 1).Text;
    EXPECT_EQ(Seq, runBackend(M, BackendKind::BinSub, 4).Text)
        << "jobs=4 diverged: " << P;
    EXPECT_EQ(Seq, runBackend(M, BackendKind::BinSub, 0).Text)
        << "jobs=auto diverged: " << P;
  }
}

TEST(BackendTest, WarmBinSubAfterRetypdHasZeroFalseHits) {
  // One shared cache, retypd first. The binsub run may hit generation
  // entries — constraint generation precedes the solver and is shared —
  // but every scheme/solution probe must miss (backend-keyed), so its
  // total hits equal exactly its gen hits. And the cached run must be
  // byte-identical to an uncached binsub run: nothing retypd-produced
  // leaked through.
  for (const fs::path &P : corpus()) {
    std::string Plain = runBackend(parseProgram(P), BackendKind::BinSub).Text;
    SummaryCache Cache;
    runBackend(parseProgram(P), BackendKind::Retypd, 1, &Cache);
    BackendRun B = runBackend(parseProgram(P), BackendKind::BinSub, 1, &Cache);
    EXPECT_EQ(B.R.Stats.CacheHits, B.R.Stats.GenCacheHits)
        << "binsub replayed a retypd scheme/solution: " << P;
    EXPECT_EQ(B.Text, Plain) << "retypd-warmed binsub run diverged: " << P;
    // A second binsub run is fully warm in its own key space.
    BackendRun B2 =
        runBackend(parseProgram(P), BackendKind::BinSub, 1, &Cache);
    EXPECT_EQ(B2.R.Stats.CacheMisses, 0u) << P;
    EXPECT_EQ(B2.Text, Plain) << P;
  }
}

TEST(BackendTest, StoreRecordsAreBackendTagged) {
  // Both backends into one store directory: inspect must attribute the
  // records per backend via the payload tag's backend bit (0x10).
  fs::path Dir = fs::temp_directory_path() / "retypd_backend_store";
  fs::remove_all(Dir);
  const fs::path P = corpus().front();
  {
    SummaryCache Cache;
    ASSERT_TRUE(Cache.openStore(Dir.string()));
    runBackend(parseProgram(P), BackendKind::Retypd, 1, &Cache);
  }
  {
    SummaryCache Cache;
    ASSERT_TRUE(Cache.openStore(Dir.string()));
    runBackend(parseProgram(P), BackendKind::BinSub, 1, &Cache);
  }
  StoreInfo Info = Store::inspect(Dir.string(), kSummaryCacheSchemaVersion);
  ASSERT_TRUE(Info.Ok) << Info.Error;
  auto CountOf = [&](uint8_t Kind) {
    auto It = Info.LiveKindCounts.find(Kind);
    return It == Info.LiveKindCounts.end() ? size_t(0) : It->second;
  };
  const uint8_t SchemeTag = kSchemePayloadVersion;          // 0x03
  const uint8_t GenTag = 0x40 | kSchemePayloadVersion;      // 0x43
  const uint8_t BundleTag = 0x80 | kSchemePayloadVersion;   // 0x83
  EXPECT_GT(CountOf(SchemeTag), 0u) << "no retypd schemes";
  EXPECT_GT(CountOf(SchemeTag | kPayloadBackendBit), 0u) << "no binsub schemes";
  EXPECT_GT(CountOf(BundleTag), 0u) << "no retypd solutions";
  EXPECT_GT(CountOf(BundleTag | kPayloadBackendBit), 0u)
      << "no binsub solutions";
  EXPECT_GT(CountOf(GenTag), 0u) << "no gen results";
  EXPECT_EQ(CountOf(GenTag | kPayloadBackendBit), 0u)
      << "gen results are backend-independent and must not carry the bit";
  // Same kind names the CLI prints.
  EXPECT_STREQ(payloadKindName(SchemeTag), "scheme");
  EXPECT_STREQ(payloadKindName(SchemeTag | kPayloadBackendBit), "scheme");
  EXPECT_EQ(payloadBackend(SchemeTag | kPayloadBackendBit),
            BackendKind::BinSub);
  fs::remove_all(Dir);
}

TEST(BackendTest, DiamondLadderUnderBinSub) {
  // Every layer instantiates its callee's scheme twice. Before vacuous
  // components were dropped from exported schemes, each layer carried
  // twice its callee's dead additive constraints: binsub grew
  // exponentially and crashed (SIGSEGV) by depth 20. Depth 40 pins the
  // fix: the run completes, byte-identical across job counts.
  Module M = parseAsm(diamondAsm(40));
  BackendRun Seq = runBackend(M, BackendKind::BinSub, 1);
  EXPECT_EQ(Seq.R.Stats.Backend, "binsub");
  EXPECT_EQ(Seq.R.Stats.SccCount, 121u); // 1 + 3 * 40
  for (unsigned Jobs : {4u, 0u}) {
    BackendRun Par = runBackend(M, BackendKind::BinSub, Jobs);
    EXPECT_EQ(Par.Text, Seq.Text) << "diamond binsub jobs=" << Jobs;
  }
  std::printf("diamond(40) binsub: simplify=%.3fs solve=%.3fs\n",
              Seq.R.Stats.SimplifySecs, Seq.R.Stats.SolveSecs);
}
