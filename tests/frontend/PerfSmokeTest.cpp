//===- PerfSmokeTest.cpp - Tiny fixed-input warm-path smoke test --------------===//
//
// The `perf-smoke` CTest label (wired into check-tier1): a small
// fixed-input module analyzed cold then warm against one shared summary
// cache. Asserts the warm-path invariants that the benchmarks measure at
// scale, in a form cheap and deterministic enough for every CI run:
//
//   - nonzero cache reuse on the warm run (every summarization replays);
//   - zero ConstraintParser invocations while warm (binary codec only);
//   - warm wall time <= cold wall time (the generous bar: warm skips all
//     simplification work, so even on a noisy machine it must not LOSE;
//     the >=2x speedup target lives in bench_warmpath/BENCH_pipeline.json
//     where a bigger module makes it meaningful);
//   - byte-identical reports cold vs warm.
//
//===----------------------------------------------------------------------===//

#include "core/SummaryCache.h"
#include "frontend/Pipeline.h"
#include "frontend/ReportPrinter.h"
#include "support/Stats.h"
#include "synth/Synth.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>

using namespace retypd;

namespace {

double timedRun(const Module &Prog, const Lattice &Lat, SummaryCache *Cache,
                std::string *OutReport) {
  Module M = Prog; // run on a copy: the pipeline mutates the module
  PipelineOptions Opts;
  Opts.Jobs = 1;
  Opts.Cache = Cache;
  auto T0 = std::chrono::steady_clock::now();
  Pipeline Pipe(Lat, Opts);
  TypeReport R = Pipe.run(M);
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
  if (OutReport)
    *OutReport = renderReport(R, M, Lat);
  return Secs;
}

} // namespace

TEST(PerfSmokeTest, WarmCacheNeverLosesAndNeverParses) {
  Lattice Lat = makeDefaultLattice();
  SynthOptions O;
  O.Seed = 23; // fixed input: same module every run
  O.TargetInstructions = 6000;
  SynthGenerator Gen;
  SynthProgram P = Gen.generate("perf-smoke", O);

  SummaryCache Cache;
  std::string ColdReport, WarmReport;
  double Cold = timedRun(P.M, Lat, &Cache, &ColdReport);
  uint64_t MissesAfterCold = Cache.misses();
  uint64_t HitsAfterCold = Cache.hits();
  ASSERT_GT(MissesAfterCold, 0u) << "cold run must populate the cache";
  // Single wall-clock samples flake under scheduler noise (and TSan).
  // Cold gets a second sample against a fresh cache; warm gets two
  // against the shared one; the invariant compares the minima.
  {
    SummaryCache Fresh;
    Cold = std::min(Cold, timedRun(P.M, Lat, &Fresh, nullptr));
  }

  const CounterSnapshot BeforeWarm = CounterSnapshot::take();
  double Warm = timedRun(P.M, Lat, &Cache, &WarmReport);
  Warm = std::min(Warm, timedRun(P.M, Lat, &Cache, nullptr));

  // Nonzero cache reuse: every summarization replays, none recompute.
  EXPECT_GT(Cache.hits(), HitsAfterCold) << "warm run reused nothing";
  EXPECT_EQ(Cache.misses(), MissesAfterCold) << "warm run missed the cache";

  // Zero text parsing on the warm path.
  EXPECT_EQ(BeforeWarm.delta().ConstraintParseCalls, 0u)
      << "warm run invoked ConstraintParser";

  // Same bytes out.
  EXPECT_EQ(ColdReport, WarmReport);

  // The perf floor. Warm skips simplification entirely, so even with
  // scheduler noise it must come in at or under the cold time.
  EXPECT_LE(Warm, Cold) << "warm run slower than cold (" << Warm << "s vs "
                        << Cold << "s)";
}

TEST(PerfSmokeTest, StoreWarmPathIsParseFreeZeroCopyAndByteIdentical) {
  // The artifact-store analog of the warm-path invariants: a second
  // process (modeled by a fresh SummaryCache over the same directory)
  // replays the whole analysis out of the memory-mapped store — zero
  // ConstraintParser calls, zero cache misses, zero payload-byte copies.
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "retypd_perfsmoke_store";
  fs::remove_all(Dir);

  Lattice Lat = makeDefaultLattice();
  SynthOptions O;
  O.Seed = 23;
  O.TargetInstructions = 6000;
  SynthGenerator Gen;
  SynthProgram P = Gen.generate("perf-smoke-store", O);

  std::string ColdReport, WarmReport;
  {
    SummaryCache Cold;
    ASSERT_TRUE(Cold.openStore(Dir.string()));
    timedRun(P.M, Lat, &Cold, &ColdReport);
    EXPECT_GT(Cold.store()->keyCount(), 0u) << "cold run journaled nothing";
  }
  SummaryCache Warm;
  ASSERT_TRUE(Warm.openStore(Dir.string()));
  const CounterSnapshot Before = CounterSnapshot::take();
  timedRun(P.M, Lat, &Warm, &WarmReport);
  const CounterSnapshot D = Before.delta();
  EXPECT_EQ(ColdReport, WarmReport);
  EXPECT_EQ(D.ConstraintParseCalls, 0u)
      << "store warm run invoked ConstraintParser";
  EXPECT_EQ(Warm.misses(), 0u) << "store warm run missed the cache";
  EXPECT_GT(D.StoreHits, 0u);
  EXPECT_EQ(D.StorePayloadCopies, 0u)
      << "store warm run copied payload bytes off the mmap path";
  fs::remove_all(Dir);
}
