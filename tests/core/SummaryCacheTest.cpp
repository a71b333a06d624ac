//===- SummaryCacheTest.cpp - Content-addressed scheme cache tests ------------===//
//
// Covers structural-hash key canonicalization (hit/miss semantics), binary
// codec round trips through the cache, corrupt-entry self-healing,
// sharded-state invariants, persistence through the artifact store, and a
// many-tiny-SCCs stress run through the parallel pipeline with a shared
// cache.
//
//===----------------------------------------------------------------------===//

#include "core/ConstraintParser.h"
#include "core/SummaryCache.h"
#include "support/Stats.h"
#include "frontend/Pipeline.h"
#include "frontend/ReportPrinter.h"
#include "mir/AsmParser.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

using namespace retypd;

namespace {

class SummaryCacheTest : public ::testing::Test {
protected:
  SummaryCacheTest() : Lat(makeDefaultLattice()), Parser(Syms, Lat) {}

  ConstraintSet parse(const std::string &Text) {
    auto C = Parser.parse(Text);
    if (!C) {
      ADD_FAILURE() << Parser.error();
      return ConstraintSet();
    }
    return *C;
  }

  TypeVariable var(const std::string &Name) {
    return TypeVariable::var(Syms.intern(Name));
  }

  /// A small simplified scheme to use as cache content.
  TypeScheme makeScheme(const std::string &Proc) {
    Simplifier Simp(Syms, Lat);
    ConstraintSet C = parse(Proc + ".in0 <= x\nx <= " + Proc + ".out");
    TypeScheme S = Simp.simplify(C, var(Proc), {});
    S.Constraints = S.Constraints.canonicalized(Syms, Lat);
    return S;
  }

  SymbolTable Syms;
  Lattice Lat;
  ConstraintParser Parser;
  SimplifyOptions Opts;
};

} // namespace

TEST_F(SummaryCacheTest, KeyIsContentAddressed) {
  ConstraintSet A = parse("x <= F.out\nF.in0 <= x");
  // Same content, different insertion order: same canonical key.
  ConstraintSet B = parse("F.in0 <= x\nx <= F.out");
  // Different content: different key.
  ConstraintSet C = parse("F.in0 <= x\nx <= F.in0");

  auto Key = [&](const ConstraintSet &S) {
    return SummaryCache::keyFor(S, var("F"), {}, Opts, Syms, Lat);
  };
  EXPECT_EQ(Key(A), Key(B));
  EXPECT_FALSE(Key(A) == Key(C));

  // The interesting set and the simplify options are part of the problem.
  auto KeyI = SummaryCache::keyFor(A, var("F"), {"g0"}, Opts, Syms, Lat);
  EXPECT_FALSE(Key(A) == KeyI);
  SimplifyOptions Other;
  Other.BloatSlack = 99;
  auto KeyO = SummaryCache::keyFor(A, var("F"), {}, Other, Syms, Lat);
  EXPECT_FALSE(Key(A) == KeyO);

  // Interesting-name ORDER must not matter.
  auto KeyAB = SummaryCache::keyFor(A, var("F"), {"g0", "g1"}, Opts, Syms, Lat);
  auto KeyBA = SummaryCache::keyFor(A, var("F"), {"g1", "g0"}, Opts, Syms, Lat);
  EXPECT_EQ(KeyAB, KeyBA);
}

TEST_F(SummaryCacheTest, KeyIsSymbolTableIndependent) {
  // The same structural content must key identically from a symbol table
  // with a completely different id allocation history — that is what
  // makes keys (and stored payloads) portable across processes.
  ConstraintSet A = parse("F.in0 <= x\nx <= F.out");
  auto K1 = SummaryCache::keyFor(A, var("F"), {}, Opts, Syms, Lat);

  SymbolTable Other;
  for (int I = 0; I < 100; ++I)
    Other.intern("unrelated" + std::to_string(I)); // shift every id
  ConstraintParser P2(Other, Lat);
  auto B = P2.parse("x <= F.out\nF.in0 <= x");
  ASSERT_TRUE(B.has_value());
  auto K2 = SummaryCache::keyFor(
      *B, TypeVariable::var(Other.intern("F")), {}, Opts, Other, Lat);
  EXPECT_EQ(K1, K2);
}

TEST_F(SummaryCacheTest, CacheRoundTripsSchemes) {
  SummaryCache Cache;
  TypeScheme Scheme = makeScheme("F");
  auto K = SummaryCache::keyFor(Scheme.Constraints, var("F"), {}, Opts, Syms,
                                Lat);
  Cache.insert(K, Scheme, Syms, Lat);

  auto Back = Cache.lookup(K, Syms, Lat);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->ProcVar, Scheme.ProcVar);
  EXPECT_EQ(Back->Existentials, Scheme.Existentials);
  // Exact reproduction: text AND internal constraint order.
  EXPECT_EQ(Back->str(Syms, Lat), Scheme.str(Syms, Lat));
  EXPECT_EQ(Back->Constraints.subtypes(), Scheme.Constraints.subtypes());
}

TEST_F(SummaryCacheTest, HitMissAndClear) {
  SummaryCache Cache;
  ConstraintSet C = parse("F.in0 <= F.out");
  auto K = SummaryCache::keyFor(C, var("F"), {}, Opts, Syms, Lat);

  EXPECT_FALSE(Cache.lookup(K, Syms, Lat).has_value());
  EXPECT_EQ(Cache.misses(), 1u);

  Cache.insert(K, makeScheme("F"), Syms, Lat);
  auto Hit = Cache.lookup(K, Syms, Lat);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.size(), 1u);

  // clear() models invalidation: the entry is gone, the next probe misses.
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_FALSE(Cache.lookup(K, Syms, Lat).has_value());
}

TEST_F(SummaryCacheTest, CorruptEntrySelfHeals) {
  SummaryCache Cache;
  ConstraintSet C = parse("F.in0 <= F.out");
  auto K = SummaryCache::keyFor(C, var("F"), {}, Opts, Syms, Lat);

  Cache.insertPayload(K, "not a scheme at all");
  ASSERT_TRUE(Cache.lookupPayload(K).has_value());

  // The decode failure is invisible to the caller: the probe is a miss,
  // never a hit, and the corrupt bytes are dropped on the spot...
  EXPECT_FALSE(Cache.lookup(K, Syms, Lat).has_value());
  EXPECT_EQ(Cache.hits(), 0u);
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.size(), 0u);

  // ...and insert() overwrites rather than keeping stale bytes.
  Cache.insert(K, makeScheme("F"), Syms, Lat);
  Cache.insert(K, makeScheme("G"), Syms, Lat);
  auto Fresh = Cache.lookup(K, Syms, Lat);
  ASSERT_TRUE(Fresh.has_value());
  EXPECT_EQ(Syms.name(Fresh->ProcVar.symbol()), "G");
}

TEST_F(SummaryCacheTest, ContentChangeInvalidatesNaturally) {
  // Content addressing needs no explicit invalidation: touching the
  // constraint set moves the key, so stale entries can never be returned.
  SummaryCache Cache;
  ConstraintSet C1 = parse("F.in0 <= F.out");
  auto K1 = SummaryCache::keyFor(C1, var("F"), {}, Opts, Syms, Lat);
  Cache.insert(K1, makeScheme("F"), Syms, Lat);

  ConstraintSet C2 = parse("F.in0 <= F.out\nint <= F.out");
  auto K2 = SummaryCache::keyFor(C2, var("F"), {}, Opts, Syms, Lat);
  EXPECT_FALSE(K1 == K2);
  EXPECT_FALSE(Cache.lookup(K2, Syms, Lat).has_value());
  EXPECT_TRUE(
      Cache.lookup(K1, Syms, Lat).has_value()); // old entry intact for old key
}

TEST_F(SummaryCacheTest, ConcurrentShardedAccessIsSafe) {
  // Hammer the sharded read/write paths from several threads: concurrent
  // inserts of identical content, shared-lock probes, and decode-on-read.
  // TSan (the check-tier1 preset) vets the locking discipline.
  SummaryCache Cache;
  std::vector<TypeScheme> Schemes;
  std::vector<SummaryKey> Keys;
  for (int I = 0; I < 64; ++I) {
    TypeScheme S = makeScheme("proc" + std::to_string(I));
    Keys.push_back(SummaryCache::keyFor(
        S.Constraints, S.ProcVar, {}, Opts, Syms, Lat));
    Schemes.push_back(std::move(S));
  }
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&, T] {
      for (int Round = 0; Round < 20; ++Round)
        for (size_t I = T; I < Keys.size(); I += 2) {
          if ((Round + T) % 3 == 0)
            Cache.insert(Keys[I], Schemes[I], Syms, Lat);
          else
            Cache.lookup(Keys[I], Syms, Lat);
        }
    });
  for (std::thread &T : Threads)
    T.join();
  // Every inserted entry decodes back to its scheme.
  for (size_t I = 0; I < Keys.size(); ++I) {
    if (auto Hit = Cache.lookup(Keys[I], Syms, Lat)) {
      EXPECT_EQ(Hit->str(Syms, Lat), Schemes[I].str(Syms, Lat));
    }
  }
}

TEST_F(SummaryCacheTest, ManyTinySccsStress) {
  // A module with hundreds of tiny, independent SCCs — the worst case for
  // per-task overhead and the best case for wave width. Everything must
  // solve identically with and without cache, cold and warm, at any job
  // count.
  std::string Asm;
  for (int I = 0; I < 150; ++I) {
    std::string N = std::to_string(I);
    Asm += "fn leaf" + N + ":\n  load eax, [esp+4]\n  ret\n";
    Asm += "fn mid" + N + ":\n  load eax, [esp+4]\n  push eax\n  call leaf" +
           N + "\n  add esp, 4\n  ret\n";
  }
  AsmParser P;
  auto M = P.parse(Asm);
  ASSERT_TRUE(M.has_value()) << P.error();

  SummaryCache Cache;
  auto Run = [&](unsigned Jobs, SummaryCache *UseCache) {
    Module Copy = *M;
    PipelineOptions PO;
    PO.Jobs = Jobs;
    PO.Cache = UseCache;
    Pipeline Pipe(Lat, PO);
    TypeReport R = Pipe.run(Copy);
    EXPECT_EQ(R.Funcs.size(), 300u);
    return renderReport(R, Copy, Lat);
  };

  std::string Baseline = Run(1, nullptr);
  EXPECT_EQ(Baseline, Run(4, nullptr));
  EXPECT_EQ(Baseline, Run(4, &Cache)); // cold
  uint64_t MissesCold = Cache.misses();
  EXPECT_GT(MissesCold, 0u);
  EXPECT_EQ(Baseline, Run(4, &Cache)); // warm
  EXPECT_EQ(Cache.misses(), MissesCold);
  EXPECT_GE(Cache.hits(), 300u);
  EXPECT_EQ(Baseline, Run(2, &Cache)); // warm, different job count
}

//===----------------------------------------------------------------------===//
// Durable artifact store backing (store/Store.h)
//===----------------------------------------------------------------------===//

namespace {

/// Fresh per-test store directory, removed on scope exit.
struct TempStoreDir {
  std::filesystem::path P;
  explicit TempStoreDir(const char *Tag) {
    P = std::filesystem::temp_directory_path() /
        (std::string("retypd_cache_store_") + Tag);
    std::filesystem::remove_all(P);
  }
  ~TempStoreDir() { std::filesystem::remove_all(P); }
  std::string str() const { return P.string(); }
};

} // namespace

TEST_F(SummaryCacheTest, StoreBackedLookupIsZeroCopyAndCountsHits) {
  TempStoreDir Dir("zerocopy");
  TypeScheme Scheme = makeScheme("F");
  auto K = SummaryCache::keyFor(Scheme.Constraints, var("F"), {}, Opts, Syms,
                                Lat);
  {
    SummaryCache Writer;
    ASSERT_TRUE(Writer.openStore(Dir.str()));
    Writer.insert(K, Scheme, Syms, Lat);
    auto Appended = Writer.flushToStore();
    ASSERT_TRUE(Appended.has_value());
    EXPECT_EQ(*Appended, 1u);
    // Re-flushing identical bytes journals nothing.
    auto Again = Writer.flushToStore();
    ASSERT_TRUE(Again.has_value());
    EXPECT_EQ(*Again, 0u);
  }
  // A different cache object (a second process): the in-memory map is
  // empty, so the probe decodes straight out of the mapped store.
  SummaryCache Reader;
  ASSERT_TRUE(Reader.openStore(Dir.str()));
  EXPECT_FALSE(Reader.lookupPayload(K).has_value())
      << "store payloads must not be copied into the memory map";
  EventCounters::reset();
  auto Back = Reader.lookup(K, Syms, Lat);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->str(Syms, Lat), Scheme.str(Syms, Lat));
  EXPECT_EQ(Reader.hits(), 1u);
  EXPECT_EQ(Reader.misses(), 0u);
  EXPECT_EQ(EventCounters::StoreHits.load(), 1u);
  EXPECT_EQ(EventCounters::StorePayloadCopies.load(), 0u)
      << "mmap read path copied payload bytes";
}

TEST_F(SummaryCacheTest, FlushAndReopenPreserveEntries) {
  TempStoreDir Dir("roundtrip");
  TypeScheme Scheme = makeScheme("F");
  auto K = SummaryCache::keyFor(Scheme.Constraints, var("F"), {}, Opts, Syms,
                                Lat);
  {
    SummaryCache Cache;
    ASSERT_TRUE(Cache.openStore(Dir.str()));
    Cache.insert(K, Scheme, Syms, Lat);
    ASSERT_TRUE(Cache.flushToStore().has_value());
  }

  SummaryCache Loaded;
  ASSERT_TRUE(Loaded.openStore(Dir.str()));
  EXPECT_EQ(Loaded.store()->liveEntries().size(), 1u);

  // Decode into a FRESH symbol table in a fresh cache (a second process):
  // names resolve through the store's pool, not the writer's ids.
  SymbolTable Fresh;
  auto Hit = Loaded.lookup(K, Fresh, Lat);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->str(Fresh, Lat), Scheme.str(Syms, Lat));
}

TEST_F(SummaryCacheTest, PoolBindingTranslatesStoreNamesOnce) {
  TempStoreDir Dir("poolbind");
  TypeScheme Scheme = makeScheme("F");
  auto K = SummaryCache::keyFor(Scheme.Constraints, var("F"), {}, Opts, Syms,
                                Lat);
  SummaryCache Cache;
  ASSERT_TRUE(Cache.openStore(Dir.str()));
  Cache.insert(K, Scheme, Syms, Lat);
  ASSERT_TRUE(Cache.flushToStore().has_value());
  Cache.clear(); // force every probe through the mapped store

  EventCounters::reset();
  ASSERT_TRUE(Cache.lookup(K, Syms, Lat).has_value());
  uint64_t Binds = EventCounters::PoolBinds.load();
  EXPECT_GT(Binds, 0u) << "first store probe batch-interns the name pool";
  EXPECT_EQ(EventCounters::PoolBindHits.load(), 1u)
      << "flushed payloads must decode in pool name mode";

  // Second probe: the pool grew by nothing, so the translation table is
  // reused as-is — zero per-payload string hashing.
  ASSERT_TRUE(Cache.lookup(K, Syms, Lat).has_value());
  EXPECT_EQ(EventCounters::PoolBinds.load(), Binds)
      << "unchanged pool re-interned names";
  EXPECT_EQ(EventCounters::PoolBindHits.load(), 2u);

  // Compaction carries the pool verbatim (ids preserved): the binding
  // stays valid — no re-interning afterwards either.
  ASSERT_TRUE(Cache.store()->compact().has_value());
  ASSERT_TRUE(Cache.lookup(K, Syms, Lat).has_value());
  EXPECT_EQ(EventCounters::PoolBinds.load(), Binds)
      << "compaction invalidated the pool translation table";
  EXPECT_EQ(EventCounters::PoolBindHits.load(), 3u);

  // A different symbol table needs its own translation (decoded ids are
  // table-relative) and still answers correctly.
  SymbolTable Other;
  auto FromOther = Cache.lookup(K, Other, Lat);
  ASSERT_TRUE(FromOther.has_value());
  EXPECT_EQ(FromOther->str(Other, Lat), Scheme.str(Syms, Lat));
  EXPECT_GT(EventCounters::PoolBinds.load(), Binds);
}

TEST_F(SummaryCacheTest, PayloadReplacementServesTheNewValue) {
  SummaryCache Cache;
  TypeScheme F = makeScheme("F"), G = makeScheme("G");
  auto K = SummaryCache::keyFor(F.Constraints, var("F"), {}, Opts, Syms, Lat);
  Cache.insert(K, F, Syms, Lat);
  ASSERT_TRUE(Cache.lookup(K, Syms, Lat).has_value());
  // Replacing the payload must not serve the previous decoded value.
  Cache.insert(K, G, Syms, Lat);
  auto Back = Cache.lookup(K, Syms, Lat);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->str(Syms, Lat), G.str(Syms, Lat));
}

TEST_F(SummaryCacheTest, CorruptStoreRecordIsAMissNotAPoisoning) {
  TempStoreDir Dir("corrupt");
  TypeScheme Scheme = makeScheme("F");
  auto Good = SummaryCache::keyFor(Scheme.Constraints, var("F"), {}, Opts,
                                   Syms, Lat);
  SummaryKey Bad{0x1234, 0x5678};
  {
    SummaryCache Writer;
    ASSERT_TRUE(Writer.openStore(Dir.str()));
    Writer.insert(Good, Scheme, Syms, Lat);
    Writer.insertPayload(Bad, "not a scheme payload");
    ASSERT_TRUE(Writer.flushToStore().has_value());
  }
  SummaryCache Reader;
  ASSERT_TRUE(Reader.openStore(Dir.str()));
  // The CRC is fine (the garbage was written as-is), but decoding fails:
  // a plain miss, not an error, and the good neighbor still decodes.
  EXPECT_FALSE(Reader.lookup(Bad, Syms, Lat).has_value());
  EXPECT_EQ(Reader.misses(), 1u);
  ASSERT_TRUE(Reader.lookup(Good, Syms, Lat).has_value());
  EXPECT_EQ(Reader.hits(), 1u);
}
