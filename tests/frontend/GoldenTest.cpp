//===- GoldenTest.cpp - Golden end-to-end corpus ------------------------------===//
//
// Diffs full rendered type reports for the checked-in corpus under
// tests/frontend/golden/ against their .expected files, and locks down the
// parallel pipeline's contract: for every program, `--jobs 4` and
// cache-replayed runs must produce byte-identical reports to `--jobs 1`.
//
// To add a golden test: drop prog.asm into tests/frontend/golden/, run
//   build/retypd-cli analyze --schemes tests/frontend/golden/prog.asm
// redirecting stdout to tests/frontend/golden/prog.expected, and review
// the diff like any other code change.
//
//===----------------------------------------------------------------------===//

#include "core/SummaryCache.h"
#include "frontend/Pipeline.h"
#include "frontend/ReportPrinter.h"
#include "mir/AsmParser.h"
#include "support/Stats.h"

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

Module parseProgram(const fs::path &P) {
  AsmParser Parser;
  auto M = Parser.parse(slurp(P));
  EXPECT_TRUE(M.has_value()) << P << ": " << Parser.error();
  return M ? *M : Module();
}

/// Renders the exact bytes `retypd-cli analyze --schemes` would print.
std::string runReport(const fs::path &P, unsigned Jobs,
                      SummaryCache *Cache = nullptr) {
  Module M = parseProgram(P);
  Lattice Lat = makeDefaultLattice();
  PipelineOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Cache = Cache;
  Pipeline Pipe(Lat, Opts);
  TypeReport R = Pipe.run(M);
  ReportPrintOptions Print;
  Print.Schemes = true;
  return renderReport(R, M, Lat, Print);
}

} // namespace

TEST(GoldenTest, CorpusIsNonTrivial) {
  // The issue calls for >= 5 programs covering lists, callbacks, malloc
  // polymorphism, and mutual recursion.
  EXPECT_GE(corpus().size(), 5u);
}

TEST(GoldenTest, MatchesExpectedReports) {
  for (const fs::path &P : corpus()) {
    fs::path Expected = P;
    Expected.replace_extension(".expected");
    ASSERT_TRUE(fs::exists(Expected))
        << Expected
        << " missing — regenerate with retypd-cli analyze --schemes";
    EXPECT_EQ(runReport(P, 1), slurp(Expected)) << "golden diff: " << P;
  }
}

TEST(GoldenTest, ParallelRunsAreByteIdentical) {
  for (const fs::path &P : corpus()) {
    std::string Seq = runReport(P, 1);
    EXPECT_EQ(Seq, runReport(P, 4)) << "jobs=4 diverged: " << P;
    EXPECT_EQ(Seq, runReport(P, 0)) << "jobs=auto diverged: " << P;
  }
}

TEST(GoldenTest, CacheReplayIsByteIdentical) {
  for (const fs::path &P : corpus()) {
    SummaryCache Cache;
    std::string Cold = runReport(P, 2, &Cache);
    uint64_t MissesAfterCold = Cache.misses();
    // The binary data plane's contract: a warm run performs ZERO
    // ConstraintParser invocations — schemes replay through the codec.
    uint64_t ParsesBeforeWarm =
        EventCounters::ConstraintParseCalls.load(std::memory_order_relaxed);
    std::string Warm = runReport(P, 2, &Cache);
    EXPECT_EQ(
        EventCounters::ConstraintParseCalls.load(std::memory_order_relaxed),
        ParsesBeforeWarm)
        << "warm run parsed constraint text: " << P;
    EXPECT_EQ(Cold, runReport(P, 1)) << "cold cached run diverged: " << P;
    EXPECT_EQ(Cold, Warm) << "warm cached run diverged: " << P;
    // Every summarization must come from the cache on the warm run.
    EXPECT_EQ(Cache.misses(), MissesAfterCold)
        << "warm run missed the cache: " << P;
    EXPECT_GT(Cache.hits(), 0u) << P;
  }
}

TEST(GoldenTest, StoreWarmMatchesFreshRuns) {
  // A warm run over the mmap-backed artifact store, in a fresh cache (a
  // second process), must be indistinguishable in output from a fresh
  // run — and parse-free and copy-free (the zero-copy invariant).
  fs::path Dir = fs::temp_directory_path() / "retypd_golden_store";
  fs::remove_all(Dir);
  const fs::path P = corpus().front();
  std::string Fresh = runReport(P, 1);

  // One cold run populates the store.
  {
    SummaryCache Cache;
    ASSERT_TRUE(Cache.openStore(Dir.string()));
    EXPECT_EQ(runReport(P, 1, &Cache), Fresh);
    ASSERT_TRUE(Cache.flushToStore().has_value());
  }

  // Store-backed warm run from an empty in-memory cache: every probe is
  // served zero-copy out of the mapped segments.
  {
    SummaryCache Warm;
    ASSERT_TRUE(Warm.openStore(Dir.string()));
    EventCounters::reset();
    EXPECT_EQ(runReport(P, 1, &Warm), Fresh) << "store warm run diverged";
    EXPECT_EQ(EventCounters::ConstraintParseCalls.load(), 0u)
        << "store warm run parsed constraint text";
    EXPECT_EQ(Warm.misses(), 0u) << "store warm run missed";
    EXPECT_GT(EventCounters::StoreHits.load(), 0u);
    EXPECT_EQ(EventCounters::StorePayloadCopies.load(), 0u)
        << "store warm run copied payload bytes";
  }
  fs::remove_all(Dir);
}

TEST(GoldenTest, VerifyFullIsByteIdenticalAndClean) {
  // --verify=full must be a pure observer: for the whole corpus, the
  // rendered report is byte-identical to the unverified run at any job
  // count, no formation-rule violations are found, and the checks
  // actually ran (the Off-mode counter gate lives in bench_warmpath).
  for (const fs::path &P : corpus()) {
    std::string Plain = runReport(P, 1);
    for (unsigned Jobs : {1u, 4u}) {
      Module M = parseProgram(P);
      Lattice Lat = makeDefaultLattice();
      PipelineOptions Opts;
      Opts.Jobs = Jobs;
      Opts.Verify = VerifyLevel::Full;
      uint64_t Checks0 =
          EventCounters::VerifierChecks.load(std::memory_order_relaxed);
      Pipeline Pipe(Lat, Opts);
      TypeReport R = Pipe.run(M);
      EXPECT_TRUE(R.VerifyErrors.empty())
          << P << " jobs=" << Jobs << ": " << R.VerifyErrors.front();
      EXPECT_GT(EventCounters::VerifierChecks.load(std::memory_order_relaxed),
                Checks0)
          << "verify=full ran no checks: " << P;
      ReportPrintOptions Print;
      Print.Schemes = true;
      EXPECT_EQ(renderReport(R, M, Lat, Print), Plain)
          << "verify=full changed the report: " << P << " jobs=" << Jobs;
    }
  }
}

TEST(GoldenTest, VerifyFullCoversCacheReplayedArtifacts) {
  // A warm cached run under Full re-verifies the decoded artifacts; it
  // must stay clean and byte-identical too.
  const fs::path P = corpus().front();
  std::string Plain = runReport(P, 1);
  SummaryCache Cache;
  Module MCold = parseProgram(P);
  Lattice Lat = makeDefaultLattice();
  PipelineOptions Opts;
  Opts.Jobs = 2;
  Opts.Cache = &Cache;
  Opts.Verify = VerifyLevel::Full;
  {
    Pipeline Pipe(Lat, Opts);
    TypeReport R = Pipe.run(MCold);
    EXPECT_TRUE(R.VerifyErrors.empty()) << R.VerifyErrors.front();
  }
  Module MWarm = parseProgram(P);
  Pipeline Pipe(Lat, Opts);
  TypeReport R = Pipe.run(MWarm);
  EXPECT_TRUE(R.VerifyErrors.empty()) << R.VerifyErrors.front();
  EXPECT_GT(Cache.hits(), 0u);
  ReportPrintOptions Print;
  Print.Schemes = true;
  EXPECT_EQ(renderReport(R, MWarm, Lat, Print), Plain)
      << "verified warm run diverged: " << P;
}

TEST(GoldenTest, StoreWarmIsByteIdenticalAcrossJobCounts) {
  fs::path Dir = fs::temp_directory_path() / "retypd_golden_store_jobs";
  fs::remove_all(Dir);
  const fs::path P = corpus().front();
  std::string Fresh = runReport(P, 1);
  {
    SummaryCache Cache;
    ASSERT_TRUE(Cache.openStore(Dir.string()));
    EXPECT_EQ(runReport(P, 2, &Cache), Fresh);
  }
  for (unsigned Jobs : {1u, 4u}) {
    SummaryCache Warm;
    ASSERT_TRUE(Warm.openStore(Dir.string()));
    EXPECT_EQ(runReport(P, Jobs, &Warm), Fresh)
        << "store warm diverged at jobs=" << Jobs;
    EXPECT_EQ(Warm.misses(), 0u);
  }
  fs::remove_all(Dir);
}
