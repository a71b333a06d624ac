//===- bench_store.cpp - Artifact-store data-plane benchmark --------------===//
//
// Measures the durable artifact store (store/Store.h) on one synthetic
// module:
//
//   append      flushToStore() of a cold run's artifacts: records/s, MB/s
//   warm (mmap) a fresh SummaryCache over the store directory — every
//               probe decodes zero-copy out of the mapped segments
//   compact     fold a store with ~50% dead bytes into a new generation
//
// The store-warm run is also the CI gate: this binary exits nonzero
// unless it performed ZERO ConstraintParser calls, ZERO cache misses,
// ZERO payload-byte copies (the mmap zero-copy invariant), a nonzero
// number of store hits, a nonzero number of pool-bind hits (every store
// decode resolves its names through the pool translation table — no
// per-payload string hashing), and cache.decode within a per-instruction
// budget (default 1 microsecond/instruction as a regression backstop
// with CI-runner headroom; --decode-budget
// overrides). Results go to BENCH_store.json.
//
//===----------------------------------------------------------------------===//

#include "core/SummaryCache.h"
#include "frontend/Pipeline.h"
#include "support/Stats.h"
#include "synth/Synth.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

using namespace retypd;
namespace fs = std::filesystem;

namespace {

constexpr unsigned kSamples = 3;

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double runOnce(const SynthProgram &P, const Lattice &Lat,
               SummaryCache *Cache) {
  Module M = P.M; // run on a copy: the pipeline mutates the module
  PipelineOptions Opts;
  Opts.Jobs = 1;
  Opts.Cache = Cache;
  Clock::time_point T0 = Clock::now();
  Pipeline Pipe(Lat, Opts);
  TypeReport R = Pipe.run(M);
  (void)R;
  return secondsSince(T0);
}

} // namespace

int main(int argc, char **argv) {
  unsigned Size = 20000;
  double DecodeBudget = 0; // 0 = derive from instruction count below
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--instr") == 0 && I + 1 < argc) {
      Size = static_cast<unsigned>(std::strtoul(argv[++I], nullptr, 10));
    } else if (std::strcmp(argv[I], "--decode-budget") == 0 && I + 1 < argc) {
      DecodeBudget = std::strtod(argv[++I], nullptr);
    } else {
      std::fprintf(stderr, "usage: %s [--instr N] [--decode-budget SECS]\n",
                   argv[0]);
      return 2;
    }
  }
  Lattice Lat = makeDefaultLattice();
  SynthGenerator Gen;
  SynthOptions O;
  O.Seed = 23;
  O.TargetInstructions = Size;
  SynthProgram P = Gen.generate("store-bench", O);

  fs::path Dir = fs::temp_directory_path() / "retypd_bench_store";
  fs::remove_all(Dir);

  std::printf("artifact-store data plane (%zu instructions, 1 thread, "
              "min of %u runs per mode)\n\n",
              P.M.instructionCount(), kSamples);

  // ---- Populate: one cold run into a memory-only cache ------------------
  SummaryCache Cold;
  double ColdWall = runOnce(P, Lat, &Cold);
  size_t Entries = Cold.size();
  size_t PayloadBytes = Cold.payloadBytes();
  std::printf("cold run           %8.3f s  (%zu entries, %zu payload "
              "bytes)\n",
              ColdWall, Entries, PayloadBytes);

  // ---- Append throughput: journal the whole artifact set ---------------
  if (!Cold.openStore(Dir.string())) {
    std::fprintf(stderr, "cannot open store %s\n", Dir.string().c_str());
    return 1;
  }
  Clock::time_point T0 = Clock::now();
  auto Appended = Cold.flushToStore();
  double AppendSecs = secondsSince(T0);
  if (!Appended || *Appended == 0) {
    std::fprintf(stderr, "flushToStore appended nothing\n");
    return 1;
  }
  double AppendRecsPerSec = static_cast<double>(*Appended) / AppendSecs;
  double AppendMbPerSec =
      static_cast<double>(PayloadBytes) / (1024.0 * 1024.0) / AppendSecs;
  std::printf("append             %8.3f s  (%zu records, %.0f rec/s, "
              "%.1f MiB/s)\n",
              AppendSecs, *Appended, AppendRecsPerSec, AppendMbPerSec);

  // ---- Warm wall: mmap store -------------------------------------------
  // Each sample models a fresh process: the wall includes attaching the
  // store (openStore maps segments) plus the analysis itself. A fresh
  // SummaryCache per sample keeps the decoded-value memo out of the
  // measurement.
  if (DecodeBudget <= 0)
    DecodeBudget = 1.0e-6 * static_cast<double>(P.M.instructionCount());
  double StoreWarm = 0, DecodeSecs = 0;
  bool StoreClean = true;
  uint64_t StoreHits = 0, StoreCopies = 0, PoolBindHits = 0;
  for (unsigned I = 0; I < kSamples; ++I) {
    SummaryCache Warm;
    EventCounters::reset();
    PhaseTimes::reset();
    Clock::time_point W0 = Clock::now();
    if (!Warm.openStore(Dir.string())) {
      std::fprintf(stderr, "cannot reopen store\n");
      return 1;
    }
    double Wall = secondsSince(W0) + runOnce(P, Lat, &Warm);
    StoreWarm = I == 0 ? Wall : std::min(StoreWarm, Wall);
    double Decode = 0;
    for (const auto &[Phase, Secs] : PhaseTimes::snapshot())
      if (Phase == "cache.decode")
        Decode = Secs;
    DecodeSecs = I == 0 ? Decode : std::min(DecodeSecs, Decode);
    StoreHits = EventCounters::StoreHits.load();
    StoreCopies = EventCounters::StorePayloadCopies.load();
    PoolBindHits = EventCounters::PoolBindHits.load();
    StoreClean =
        StoreClean &&
        EventCounters::ConstraintParseCalls.load() == 0 &&
        Warm.misses() == 0 && StoreHits > 0 && StoreCopies == 0 &&
        PoolBindHits > 0;
  }
  StoreClean = StoreClean && DecodeSecs <= DecodeBudget;
  std::printf("warm (mmap store)  %8.3f s  (%llu store hits, %llu copies)\n",
              StoreWarm, static_cast<unsigned long long>(StoreHits),
              static_cast<unsigned long long>(StoreCopies));
  std::printf("store-warm decode  %8.3f s  (budget %.3f s, %llu pool-bind "
              "hits)\n",
              DecodeSecs, DecodeBudget,
              static_cast<unsigned long long>(PoolBindHits));
  std::printf("store-warm clean (0 parses, 0 misses, hits > 0, "
              "0 payload copies, pool binds > 0, decode <= budget): %s\n",
              StoreClean ? "yes" : "NO");

  // ---- Compaction: ~half the store dead --------------------------------
  // Re-append every live payload once (copied out first — a PayloadRef
  // pins the store's reader lock, and append wants the writer lock).
  Store *S = Cold.store();
  std::vector<std::pair<Hash128, std::string>> Copies;
  for (const auto &[K, Len] : S->liveEntries()) {
    Store::PayloadRef Ref = S->lookup(K);
    if (Ref)
      Copies.emplace_back(K, std::string(Ref.view()));
  }
  for (const auto &[K, Body] : Copies)
    S->append(K, Body);
  if (!S->flush()) {
    std::fprintf(stderr, "duplicate-append flush failed\n");
    return 1;
  }
  StoreInfo Before = Store::inspect(Dir.string(), kSummaryCacheSchemaVersion);
  T0 = Clock::now();
  auto Compacted = S->compact();
  double CompactSecs = secondsSince(T0);
  if (!Compacted || Compacted->ReclaimedBytes < Before.DeadBytes) {
    std::fprintf(stderr, "compaction reclaimed less than reported dead "
                         "bytes\n");
    return 1;
  }
  std::printf("compact            %8.3f s  (%zu live records, reclaimed "
              "%zu of %zu dead bytes)\n",
              CompactSecs, Compacted->LiveRecords, Compacted->ReclaimedBytes,
              Before.DeadBytes);

  FILE *J = std::fopen("BENCH_store.json", "w");
  if (J) {
    std::fprintf(
        J,
        "{\n"
        "  \"benchmark\": \"artifact_store_data_plane\",\n"
        "  \"instructions\": %zu,\n"
        "  \"hardware_threads\": %u,\n"
        "  \"entries\": %zu,\n"
        "  \"payload_bytes\": %zu,\n"
        "  \"append_secs\": %.6f,\n"
        "  \"append_records_per_sec\": %.1f,\n"
        "  \"append_mib_per_sec\": %.3f,\n"
        "  \"warm_store_wall_secs\": %.6f,\n"
        "  \"store_hits\": %llu,\n"
        "  \"store_payload_copies\": %llu,\n"
        "  \"pool_bind_hits\": %llu,\n"
        "  \"warm_decode_secs\": %.6f,\n"
        "  \"decode_budget_secs\": %.6f,\n"
        "  \"store_warm_clean\": %s,\n"
        "  \"compact_secs\": %.6f,\n"
        "  \"compact_reclaimed_bytes\": %zu,\n"
        "  \"dead_bytes_before_compact\": %zu\n"
        "}\n",
        P.M.instructionCount(),
        std::max(1u, std::thread::hardware_concurrency()), Entries,
        PayloadBytes, AppendSecs, AppendRecsPerSec, AppendMbPerSec,
        StoreWarm,
        static_cast<unsigned long long>(StoreHits),
        static_cast<unsigned long long>(StoreCopies),
        static_cast<unsigned long long>(PoolBindHits), DecodeSecs,
        DecodeBudget, StoreClean ? "true" : "false", CompactSecs,
        Compacted->ReclaimedBytes, Before.DeadBytes);
    std::fclose(J);
    std::printf("wrote BENCH_store.json\n");
  }
  fs::remove_all(Dir);
  return StoreClean ? 0 : 1;
}
