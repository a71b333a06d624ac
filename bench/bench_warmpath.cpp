//===- bench_warmpath.cpp - Warm-cache phase breakdown --------------------===//
//
// Measures the warm summary cache path directly instead of inferring it
// from end-to-end times: one synthetic module analyzed cold (populating a
// shared cache) and then warm, with the per-phase wall-clock accumulators
// (support/Stats.h PhaseTimes) split out for each run:
//
//   pipeline.generate / simplify / solve / convert   the classic phases
//   cache.hash                                       structural key hashing
//   gencache.key                                     generation-cache keys
//   cache.encode / cache.decode                      binary codec work
//   parser.parse                                     ConstraintParser time
//
// plus the EventCounters (constraint parses, scheme encodes/decodes, and
// generation-cache hits/misses). The content-addressed data plane's claims
// are checkable right here: warm runs must show parser.parse == 0, zero
// ConstraintParseCalls, zero cache misses of ANY payload kind (schemes,
// solutions, generation results), and nonzero gen-cache hits — the
// generate phase replays binary payloads instead of re-walking bodies.
//
// A fourth mode measures the STORE-warm fresh process: a brand-new
// SummaryCache attached to the artifact store written by the warm cache.
// Its gates are the v3 zero-deserialization invariants: zero payload-byte
// copies off the mmap, every store decode resolving names through the
// pool translation table (nonzero PoolBindHits), and cache.decode staying
// under a per-instruction budget (default 1 microsecond/instruction — a
// regression backstop with CI-runner headroom; the paper-target 0.5 us/instr
// is recorded in the JSON as store_decode_secs vs instructions,
// --decode-budget overrides) — the "mmapped bytes ARE the runtime
// representation" claim as a number.
//
// Results go to BENCH_warmpath.json. Exits nonzero unless both warm runs
// are clean, which is exactly what the CI bench-smoke job gates on.
//
//===----------------------------------------------------------------------===//

#include "core/SummaryCache.h"
#include "frontend/Pipeline.h"
#include "support/Stats.h"
#include "synth/Synth.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

using namespace retypd;

namespace {

constexpr unsigned kSamples = 3;

struct RunResult {
  double WallSecs = 0;
  // PhaseTimes::snapshot() is already sorted by phase name (a documented
  // contract, pinned by tests/support/StatsTest.cpp) — keep it verbatim
  // instead of re-sorting through a std::map.
  std::vector<std::pair<std::string, double>> Phases;
  CounterSnapshot Counters; ///< delta over the run
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t SccsScheduled = 0;
  uint64_t BatchesFormed = 0;
  uint64_t MaxReadyQueue = 0;
  uint64_t CommitStalls = 0;
};

RunResult timedRun(const SynthProgram &P, const Lattice &Lat,
                   SummaryCache *Cache) {
  Module M = P.M; // run on a copy: the pipeline mutates the module
  PipelineOptions Opts;
  Opts.Jobs = 1; // single-core phase attribution (no overlap double-count)
  Opts.Cache = Cache;
  PhaseTimes::reset();
  EventCounters::reset();
  const CounterSnapshot Counters0 = CounterSnapshot::take();
  uint64_t Hits0 = Cache ? Cache->hits() : 0;
  uint64_t Misses0 = Cache ? Cache->misses() : 0;
  auto T0 = std::chrono::steady_clock::now();
  Pipeline Pipe(Lat, Opts);
  TypeReport R = Pipe.run(M);
  RunResult Out;
  Out.SccsScheduled = R.Stats.SccsScheduled;
  Out.BatchesFormed = R.Stats.BatchesFormed;
  Out.MaxReadyQueue = R.Stats.MaxReadyQueue;
  Out.CommitStalls = R.Stats.CommitStalls;
  Out.WallSecs = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - T0)
                     .count();
  Out.Phases = PhaseTimes::snapshot();
  Out.Counters = Counters0.delta();
  if (Cache) {
    Out.CacheHits = Cache->hits() - Hits0;
    Out.CacheMisses = Cache->misses() - Misses0;
  }
  return Out;
}

double phase(const RunResult &R, const char *Name) {
  // Phases is sorted by name (snapshot() contract), so binary search.
  auto It = std::lower_bound(
      R.Phases.begin(), R.Phases.end(), Name,
      [](const std::pair<std::string, double> &E, const char *N) {
        return E.first < N;
      });
  return It != R.Phases.end() && It->first == Name ? It->second : 0.0;
}

void printRun(const char *Title, const RunResult &R) {
  std::printf("%s: %.3f s wall\n", Title, R.WallSecs);
  for (const auto &[Name, Secs] : R.Phases)
    std::printf("    %-22s %8.4f s\n", Name.c_str(), Secs);
  std::printf("    %-22s %8llu\n", "constraint parses",
              static_cast<unsigned long long>(R.Counters.ConstraintParseCalls));
  std::printf("    %-22s %8llu / %llu\n", "scheme encodes/decodes",
              static_cast<unsigned long long>(R.Counters.SchemeEncodes),
              static_cast<unsigned long long>(R.Counters.SchemeDecodes));
  std::printf("    %-22s %8llu / %llu\n", "cache hits/misses",
              static_cast<unsigned long long>(R.CacheHits),
              static_cast<unsigned long long>(R.CacheMisses));
  std::printf("    %-22s %8llu / %llu\n", "gen-cache hits/misses",
              static_cast<unsigned long long>(R.Counters.GenCacheHits),
              static_cast<unsigned long long>(R.Counters.GenCacheMisses));
}

void emitPhases(FILE *J, const RunResult &R, const char *Indent) {
  std::fprintf(J,
               "%s\"phase0_secs\": %.6f,\n"
               "%s\"generate_secs\": %.6f,\n"
               "%s\"simplify_secs\": %.6f,\n"
               "%s\"solveprep_secs\": %.6f,\n"
               "%s\"solve_secs\": %.6f,\n"
               "%s\"convert_secs\": %.6f,\n"
               "%s\"hash_secs\": %.6f,\n"
               "%s\"genkey_secs\": %.6f,\n"
               "%s\"encode_secs\": %.6f,\n"
               "%s\"decode_secs\": %.6f,\n"
               "%s\"parse_secs\": %.6f,\n"
               "%s\"parse_calls\": %llu,\n"
               "%s\"scheme_encodes\": %llu,\n"
               "%s\"scheme_decodes\": %llu,\n"
               "%s\"cache_hits\": %llu,\n"
               "%s\"cache_misses\": %llu,\n"
               "%s\"gen_cache_hits\": %llu,\n"
               "%s\"gen_cache_misses\": %llu,\n"
               "%s\"store_hits\": %llu,\n"
               "%s\"store_payload_copies\": %llu,\n"
               "%s\"pool_bind_hits\": %llu,\n"
               "%s\"verifier_checks\": %llu,\n"
               "%s\"trace_events\": %llu,\n"
               "%s\"sccs_scheduled\": %llu,\n"
               "%s\"batches_formed\": %llu,\n"
               "%s\"max_ready_queue\": %llu,\n"
               "%s\"commit_stalls\": %llu,\n"
               "%s\"wall_secs\": %.6f\n",
               Indent, phase(R, "pipeline.phase0"), Indent,
               phase(R, "pipeline.generate"), Indent,
               phase(R, "pipeline.simplify"), Indent,
               phase(R, "pipeline.solveprep"), Indent,
               phase(R, "pipeline.solve"), Indent,
               phase(R, "pipeline.convert"), Indent, phase(R, "cache.hash"),
               Indent, phase(R, "gencache.key"), Indent,
               phase(R, "cache.encode"), Indent,
               phase(R, "cache.decode"), Indent, phase(R, "parser.parse"),
               Indent,
               static_cast<unsigned long long>(R.Counters.ConstraintParseCalls),
               Indent,
               static_cast<unsigned long long>(R.Counters.SchemeEncodes),
               Indent,
               static_cast<unsigned long long>(R.Counters.SchemeDecodes),
               Indent, static_cast<unsigned long long>(R.CacheHits), Indent,
               static_cast<unsigned long long>(R.CacheMisses), Indent,
               static_cast<unsigned long long>(R.Counters.GenCacheHits), Indent,
               static_cast<unsigned long long>(R.Counters.GenCacheMisses),
               Indent, static_cast<unsigned long long>(R.Counters.StoreHits),
               Indent,
               static_cast<unsigned long long>(R.Counters.StorePayloadCopies),
               Indent, static_cast<unsigned long long>(R.Counters.PoolBindHits),
               Indent,
               static_cast<unsigned long long>(R.Counters.VerifierChecks),
               Indent, static_cast<unsigned long long>(R.Counters.TraceEvents),
               Indent, static_cast<unsigned long long>(R.SccsScheduled), Indent,
               static_cast<unsigned long long>(R.BatchesFormed), Indent,
               static_cast<unsigned long long>(R.MaxReadyQueue), Indent,
               static_cast<unsigned long long>(R.CommitStalls), Indent,
               R.WallSecs);
}

} // namespace

int main(int argc, char **argv) {
  unsigned Size = 50000;
  double DecodeBudget = 0; // 0 = derive from instruction count below
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--small") == 0) {
      Size = 10000;
    } else if (std::strcmp(argv[I], "--instr") == 0 && I + 1 < argc) {
      Size = static_cast<unsigned>(std::strtoul(argv[++I], nullptr, 10));
    } else if (std::strcmp(argv[I], "--decode-budget") == 0 && I + 1 < argc) {
      DecodeBudget = std::strtod(argv[++I], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--small | --instr N] [--decode-budget SECS]\n"
                   "  --small    10k instructions (alias for --instr 10000)\n"
                   "  --instr N  synthesize ~N instructions (default 50000;\n"
                   "             CI smoke uses a small N)\n"
                   "  --decode-budget SECS  fail if the store-warm run's\n"
                   "             cache.decode exceeds SECS (default:\n"
                   "             1 microsecond per instruction)\n",
                   argv[0]);
      return 2;
    }
  }
  if (Size == 0) {
    std::fprintf(stderr, "--instr requires a positive count\n");
    return 2;
  }
  Lattice Lat = makeDefaultLattice();
  SynthGenerator Gen;
  SynthOptions O;
  O.Seed = 23;
  O.TargetInstructions = Size;
  SynthProgram P = Gen.generate("warmpath", O);

  std::printf("warm-path phase breakdown (%zu instructions, 1 thread, "
              "min of %u runs per mode)\n\n",
              P.M.instructionCount(), kSamples);

  // Single samples flake under scheduler noise on small containers; take
  // the min-wall run of each mode (the same discipline bench_fig11 uses).
  // Counters are deterministic across samples, so any run's are honest.
  auto minRun = [](RunResult A, const RunResult &B) {
    return B.WallSecs < A.WallSecs ? B : A;
  };
  // Per-phase minima across a mode's samples: phase ratios computed
  // min-over-min are far less noise-sensitive than any single run's.
  auto minPhase = [](const std::vector<RunResult> &Runs, const char *Name) {
    double Min = 0;
    bool Have = false;
    for (const RunResult &R : Runs) {
      double V = phase(R, Name);
      if (!Have || V < Min) {
        Min = V;
        Have = true;
      }
    }
    return Min;
  };

  std::vector<RunResult> NoCacheRuns, WarmRuns;
  RunResult NoCache = timedRun(P, Lat, nullptr);
  NoCacheRuns.push_back(NoCache);
  for (unsigned I = 1; I < kSamples; ++I) {
    NoCacheRuns.push_back(timedRun(P, Lat, nullptr));
    NoCache = minRun(NoCache, NoCacheRuns.back());
  }
  printRun("no cache        ", NoCache);

  // Cold samples each need a fresh cache (a second run against a populated
  // one would be warm); the last populated cache feeds the warm runs.
  SummaryCache Cache;
  RunResult Cold = timedRun(P, Lat, &Cache);
  for (unsigned I = 1; I < kSamples; ++I) {
    Cache.clear();
    Cold = minRun(Cold, timedRun(P, Lat, &Cache));
  }
  printRun("cold cache      ", Cold);

  RunResult Warm = timedRun(P, Lat, &Cache);
  WarmRuns.push_back(Warm);
  for (unsigned I = 1; I < kSamples; ++I) {
    WarmRuns.push_back(timedRun(P, Lat, &Cache));
    Warm = minRun(Warm, WarmRuns.back());
  }
  printRun("warm cache      ", Warm);

  double Speedup = Warm.WallSecs > 0 ? NoCache.WallSecs / Warm.WallSecs : 0;
  std::printf("\nwarm speedup vs no-cache: %.2fx\n", Speedup);
  double WarmGen = minPhase(WarmRuns, "pipeline.generate");
  double GenSpeedup =
      WarmGen > 0 ? minPhase(NoCacheRuns, "pipeline.generate") / WarmGen : 0;
  std::printf("warm generate-phase speedup vs no-cache: %.2fx "
              "(per-phase min over %u samples)\n",
              GenSpeedup, kSamples);
  // The bench never sets --verify or --trace, so the verifier AND the
  // trace recorder must be provably absent from the measured path: not
  // one check and not one trace event may have been recorded. This is
  // the zero-cost-when-off contract as a gated number.
  bool WarmClean =
      Warm.Counters.ConstraintParseCalls == 0 && Warm.CacheMisses == 0 &&
      Warm.CacheHits > 0 && Warm.Counters.GenCacheMisses == 0 &&
      Warm.Counters.GenCacheHits > 0 && Warm.Counters.VerifierChecks == 0 &&
      NoCache.Counters.VerifierChecks == 0 &&
      Cold.Counters.VerifierChecks == 0 && Warm.Counters.TraceEvents == 0 &&
      NoCache.Counters.TraceEvents == 0 && Cold.Counters.TraceEvents == 0;
  std::printf("warm path clean (0 parses, 0 misses, hits > 0, "
              "0 gen misses, gen hits > 0, 0 verifier checks, "
              "0 trace events): %s\n",
              WarmClean ? "yes" : "NO");

  // ---- Store-warm: a fresh process over the mmapped artifact store -----
  // The warm cache's artifacts journal to a store; each sample attaches a
  // brand-new SummaryCache to it, modelling a fresh process whose only
  // state is the mmapped bytes.
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "retypd_bench_warmpath_store";
  fs::remove_all(Dir);
  if (!Cache.openStore(Dir.string()) || !Cache.flushToStore()) {
    std::fprintf(stderr, "cannot populate artifact store %s\n",
                 Dir.string().c_str());
    return 1;
  }
  std::vector<RunResult> StoreRuns;
  RunResult StoreWarm;
  for (unsigned I = 0; I < kSamples; ++I) {
    SummaryCache Fresh;
    if (!Fresh.openStore(Dir.string())) {
      std::fprintf(stderr, "cannot reopen artifact store\n");
      return 1;
    }
    RunResult R = timedRun(P, Lat, &Fresh);
    StoreRuns.push_back(R);
    StoreWarm = I == 0 ? R : minRun(StoreWarm, R);
  }
  printRun("store warm      ", StoreWarm);

  double StoreDecode = minPhase(StoreRuns, "cache.decode");
  if (DecodeBudget <= 0)
    DecodeBudget = 1.0e-6 * static_cast<double>(P.M.instructionCount());
  bool StoreClean = StoreWarm.Counters.ConstraintParseCalls == 0 &&
                    StoreWarm.CacheMisses == 0 &&
                    StoreWarm.Counters.GenCacheMisses == 0 &&
                    StoreWarm.Counters.StoreHits > 0 &&
                    StoreWarm.Counters.StorePayloadCopies == 0 &&
                    StoreWarm.Counters.PoolBindHits > 0 &&
                    StoreWarm.Counters.VerifierChecks == 0 &&
                    StoreWarm.Counters.TraceEvents == 0 &&
                    StoreDecode <= DecodeBudget;
  std::printf("store-warm decode: %.4f s (budget %.4f s)\n", StoreDecode,
              DecodeBudget);
  std::printf("store-warm clean (0 parses, 0 misses, store hits > 0, "
              "0 payload copies, pool-bind hits > 0, 0 trace events, "
              "decode in budget): %s\n",
              StoreClean ? "yes" : "NO");
  fs::remove_all(Dir);

  FILE *J = std::fopen("BENCH_warmpath.json", "w");
  if (J) {
    std::fprintf(J,
                 "{\n"
                 "  \"benchmark\": \"warmpath_phase_breakdown\",\n"
                 "  \"instructions\": %zu,\n"
                 "  \"hardware_threads\": %u,\n"
                 "  \"jobs\": 1,\n"
                 "  \"warm_speedup_vs_nocache\": %.3f,\n"
                 "  \"warm_generate_speedup_vs_nocache\": %.3f,\n"
                 "  \"warm_parse_free\": %s,\n"
                 "  \"store_decode_secs\": %.6f,\n"
                 "  \"decode_budget_secs\": %.6f,\n"
                 "  \"store_warm_clean\": %s,\n",
                 P.M.instructionCount(),
                 std::max(1u, std::thread::hardware_concurrency()), Speedup,
                 GenSpeedup, WarmClean ? "true" : "false", StoreDecode,
                 DecodeBudget, StoreClean ? "true" : "false");
    std::fprintf(J, "  \"no_cache\": {\n");
    emitPhases(J, NoCache, "    ");
    std::fprintf(J, "  },\n  \"cold\": {\n");
    emitPhases(J, Cold, "    ");
    std::fprintf(J, "  },\n  \"warm\": {\n");
    emitPhases(J, Warm, "    ");
    std::fprintf(J, "  },\n  \"store_warm\": {\n");
    emitPhases(J, StoreWarm, "    ");
    std::fprintf(J, "  }\n}\n");
    std::fclose(J);
    std::printf("wrote BENCH_warmpath.json\n");
  }
  return WarmClean && StoreClean ? 0 : 1;
}
