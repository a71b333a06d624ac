//===- StoreTest.cpp - Durable artifact store unit + crash tests --------------===//
//
// Unit coverage for store/Store.h: record round trips across reopen,
// last-writer-wins resolution, segment rolling, cross-object visibility
// (two Store objects on one directory stand in for two processes), and
// the crash-consistency contract — torn tails dropped and healed, CRC
// byte flips contained to one record, a killed compaction invisible
// until its MANIFEST rename, and compaction reclaiming at least the dead
// bytes inspect reports.
//
//===----------------------------------------------------------------------===//

#include "store/Store.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

using namespace retypd;
namespace fs = std::filesystem;

namespace {

constexpr unsigned kTestSchema = 7;

struct StoreTest : ::testing::Test {
  fs::path Dir;

  void SetUp() override {
    Dir = fs::temp_directory_path() /
          ("retypd_store_test_" +
           std::to_string(::testing::UnitTest::GetInstance()
                              ->random_seed()) +
           "_" + ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name());
    fs::remove_all(Dir);
  }
  void TearDown() override { fs::remove_all(Dir); }

  StoreOptions opts(size_t MaxSegmentBytes = 8u << 20) {
    StoreOptions O;
    O.SchemaVersion = kTestSchema;
    O.MaxSegmentBytes = MaxSegmentBytes;
    O.Fsync = false; // keep the suite fast; the protocol is what's tested
    return O;
  }

  /// Options with a validator mimicking the summary cache's: the payload
  /// is a decimal pool id, structurally valid only when the pool
  /// resolves it. Lets the pool crash tests assert "never dangling ids".
  StoreOptions poolOpts() {
    StoreOptions O = opts();
    O.Validator = [](std::string_view P, uint64_t PoolSize) {
      if (P.empty())
        return false;
      uint64_t Id = 0;
      for (char C : P) {
        if (C < '0' || C > '9')
          return false;
        Id = Id * 10 + static_cast<uint64_t>(C - '0');
      }
      return Id < PoolSize;
    };
    return O;
  }

  std::unique_ptr<Store> openStore(size_t MaxSegmentBytes = 8u << 20) {
    std::string Err;
    auto S = Store::open(Dir.string(), opts(MaxSegmentBytes), &Err);
    EXPECT_TRUE(S) << Err;
    return S;
  }

  static Hash128 key(uint64_t N) { return Hash128{N * 1000003ull + 17, N}; }

  static std::string payload(uint64_t N, size_t Len = 10) {
    std::string P(Len, '\0');
    for (size_t I = 0; I < Len; ++I)
      P[I] = static_cast<char>('a' + (N + I) % 26);
    return P;
  }

  /// The store's segment files in MANIFEST-independent name order.
  std::vector<fs::path> segmentFiles() {
    std::vector<fs::path> Out;
    for (const auto &E : fs::directory_iterator(Dir))
      if (E.path().extension() == ".rseg")
        Out.push_back(E.path());
    std::sort(Out.begin(), Out.end());
    return Out;
  }

  size_t segmentBytesTotal() {
    size_t N = 0;
    for (const fs::path &P : segmentFiles())
      N += static_cast<size_t>(fs::file_size(P));
    return N;
  }
};

TEST_F(StoreTest, RoundTripAndReopen) {
  {
    auto S = openStore();
    ASSERT_TRUE(S);
    EXPECT_EQ(S->generation(), 1u);
    EXPECT_EQ(S->keyCount(), 0u);
    for (uint64_t I = 0; I < 20; ++I)
      S->append(key(I), payload(I, 5 + I * 3));
    EXPECT_EQ(S->pendingRecords(), 20u);
    EXPECT_EQ(S->keyCount(), 0u) << "pending records are not yet visible";
    std::string Err;
    ASSERT_TRUE(S->flush(&Err)) << Err;
    EXPECT_EQ(S->pendingRecords(), 0u);
    EXPECT_EQ(S->keyCount(), 20u);
    for (uint64_t I = 0; I < 20; ++I) {
      Store::PayloadRef R = S->lookup(key(I));
      ASSERT_TRUE(R) << I;
      EXPECT_EQ(R.view(), payload(I, 5 + I * 3)) << I;
    }
    EXPECT_FALSE(S->lookup(key(999)));
    EXPECT_TRUE(S->payloadEquals(key(3), payload(3, 14)));
    EXPECT_FALSE(S->payloadEquals(key(3), "other bytes"));
  }
  // Fresh object (a new process): everything persisted.
  auto S = openStore();
  ASSERT_TRUE(S);
  EXPECT_EQ(S->keyCount(), 20u);
  for (uint64_t I = 0; I < 20; ++I) {
    Store::PayloadRef R = S->lookup(key(I));
    ASSERT_TRUE(R) << I;
    EXPECT_EQ(R.view(), payload(I, 5 + I * 3)) << I;
  }
}

TEST_F(StoreTest, LastWriterWinsWithinAndAcrossFlushes) {
  auto S = openStore();
  S->append(key(1), "first");
  S->append(key(1), "second"); // same flush: later record wins
  ASSERT_TRUE(S->flush());
  EXPECT_EQ(S->lookup(key(1)).view(), "second");
  S->append(key(1), "third"); // later flush wins again
  ASSERT_TRUE(S->flush());
  EXPECT_EQ(S->lookup(key(1)).view(), "third");
  EXPECT_EQ(S->keyCount(), 1u);
  // Reopen resolves the journal the same way.
  auto S2 = openStore();
  EXPECT_EQ(S2->lookup(key(1)).view(), "third");
  // The superseded records are dead bytes inspect can see.
  StoreInfo Info = Store::inspect(Dir.string(), kTestSchema);
  ASSERT_TRUE(Info.Ok) << Info.Error;
  EXPECT_EQ(Info.KeyCount, 1u);
  EXPECT_GT(Info.DeadBytes, 0u);
}

TEST_F(StoreTest, SegmentRollKeepsEverythingVisible) {
  // A tiny roll threshold forces several segments.
  auto S = openStore(/*MaxSegmentBytes=*/256);
  for (uint64_t I = 0; I < 30; ++I) {
    S->append(key(I), payload(I, 40));
    ASSERT_TRUE(S->flush());
  }
  EXPECT_GT(segmentFiles().size(), 2u) << "roll threshold never tripped";
  for (uint64_t I = 0; I < 30; ++I)
    EXPECT_TRUE(S->lookup(key(I))) << I;
  // A reopen walks all manifest segments.
  auto S2 = openStore(256);
  EXPECT_EQ(S2->keyCount(), 30u);
  StoreInfo Info = Store::inspect(Dir.string(), kTestSchema);
  ASSERT_TRUE(Info.Ok);
  EXPECT_GT(Info.Segments.size(), 2u);
}

TEST_F(StoreTest, CrossObjectVisibilityViaRefresh) {
  auto A = openStore();
  auto B = openStore();
  A->append(key(42), "from A");
  ASSERT_TRUE(A->flush());
  // B's view predates the append; refresh picks it up without a lock.
  EXPECT_FALSE(B->lookup(key(42)));
  std::string Err;
  ASSERT_TRUE(B->refresh(&Err)) << Err;
  ASSERT_TRUE(B->lookup(key(42)));
  EXPECT_EQ(B->lookup(key(42)).view(), "from A");
  // And across a compaction by A (generation change).
  ASSERT_TRUE(A->compact().has_value());
  ASSERT_TRUE(B->refresh(&Err)) << Err;
  EXPECT_EQ(B->generation(), A->generation());
  EXPECT_EQ(B->lookup(key(42)).view(), "from A");
}

TEST_F(StoreTest, TornTailDroppedOnOpenAndHealedByNextAppend) {
  {
    auto S = openStore();
    for (uint64_t I = 0; I < 5; ++I)
      S->append(key(I), payload(I, 50));
    ASSERT_TRUE(S->flush());
  }
  // Crash mid-append: the last record loses its final 20 bytes.
  fs::path Seg = segmentFiles().at(0);
  size_t Full = static_cast<size_t>(fs::file_size(Seg));
  fs::resize_file(Seg, Full - 20);
  {
    auto S = openStore();
    EXPECT_EQ(S->keyCount(), 4u) << "torn tail record must be dropped";
    EXPECT_FALSE(S->lookup(key(4)));
    for (uint64_t I = 0; I < 4; ++I)
      EXPECT_TRUE(S->lookup(key(I))) << I;
    // Inspect agrees and counts the debris as dead bytes.
    StoreInfo Info = Store::inspect(Dir.string(), kTestSchema);
    ASSERT_TRUE(Info.Ok);
    EXPECT_EQ(Info.KeyCount, 4u);
    EXPECT_GT(Info.DeadBytes, 0u);
    // The next locked append truncates the debris and writes clean.
    S->append(key(100), "healed");
    ASSERT_TRUE(S->flush());
  }
  auto S = openStore();
  EXPECT_EQ(S->keyCount(), 5u);
  EXPECT_EQ(S->lookup(key(100)).view(), "healed");
  StoreInfo Info = Store::inspect(Dir.string(), kTestSchema);
  ASSERT_TRUE(Info.Ok);
  for (const StoreSegmentInfo &Seg2 : Info.Segments)
    EXPECT_EQ(Seg2.CorruptRecords, 0u);
}

TEST_F(StoreTest, CrcFlipSkipsRecordWithoutPoisoningNeighbors) {
  // Fixed-size payloads make the middle record's body offset computable:
  // header, then records of 1 + 16 + 4 + 1 + 10 = 32 bytes each.
  {
    auto S = openStore();
    for (uint64_t I = 0; I < 3; ++I)
      S->append(key(I), payload(I, 10));
    ASSERT_TRUE(S->flush());
  }
  fs::path Seg = segmentFiles().at(0);
  size_t HeaderBytes = 0;
  {
    std::ifstream In(Seg, std::ios::binary);
    std::string Line;
    std::getline(In, Line);
    HeaderBytes = Line.size() + 1;
  }
  {
    std::fstream F(Seg, std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(static_cast<std::streamoff>(HeaderBytes + 32 + 22 + 4));
    F.put('#'); // flip a byte inside record 1's body
  }
  auto S = openStore();
  EXPECT_EQ(S->keyCount(), 2u);
  EXPECT_TRUE(S->lookup(key(0))) << "record before the flip lost";
  EXPECT_FALSE(S->lookup(key(1))) << "corrupt record served";
  EXPECT_TRUE(S->lookup(key(2))) << "record after the flip lost";
  StoreInfo Info = Store::inspect(Dir.string(), kTestSchema);
  ASSERT_TRUE(Info.Ok);
  EXPECT_EQ(Info.Segments.at(0).CorruptRecords, 1u);
  // Compaction folds the corrupt record away.
  auto R = S->compact();
  ASSERT_TRUE(R);
  EXPECT_EQ(R->LiveRecords, 2u);
  Info = Store::inspect(Dir.string(), kTestSchema);
  ASSERT_TRUE(Info.Ok);
  EXPECT_EQ(Info.Segments.at(0).CorruptRecords, 0u);
  EXPECT_EQ(Info.DeadBytes, 0u);
}

TEST_F(StoreTest, KilledMidCompactionOpensPreviousGeneration) {
  {
    auto S = openStore();
    for (uint64_t I = 0; I < 4; ++I)
      S->append(key(I), payload(I));
    ASSERT_TRUE(S->flush());
  }
  // Simulate a compaction killed after writing its new-generation
  // segment and staging MANIFEST, but before the rename published it.
  std::ofstream(Dir / "seg-000002-000000.rseg", std::ios::binary)
      << "retypd-segment v1 schema " << kTestSchema << "\n";
  std::ofstream(Dir / "MANIFEST.tmp.999.0", std::ios::binary)
      << "half a manifest";
  {
    auto S = openStore();
    EXPECT_EQ(S->generation(), 1u) << "unpublished compaction leaked in";
    EXPECT_EQ(S->keyCount(), 4u);
    // The next real compaction IS the killed one's retry: it overwrites
    // the orphan segment under the same gen-2 name and cleans up.
    auto R = S->compact();
    ASSERT_TRUE(R);
    EXPECT_EQ(S->keyCount(), 4u);
  }
  EXPECT_FALSE(fs::exists(Dir / "MANIFEST.tmp.999.0"));
  auto S = openStore();
  EXPECT_EQ(S->keyCount(), 4u);
}

TEST_F(StoreTest, TornPoolTailAndDanglingPoolIdsAreContainedOnReopen) {
  std::string Err;
  {
    auto S = Store::open(Dir.string(), poolOpts(), &Err);
    ASSERT_TRUE(S) << Err;
    ASSERT_TRUE(S->flushWith(
        [&](Store::Txn &T) {
          EXPECT_EQ(T.poolIdFor("alpha"), 0u);
          EXPECT_EQ(T.poolIdFor("beta"), 1u);
          EXPECT_EQ(T.poolIdFor("alpha"), 0u) << "pool ids are per-name stable";
          T.append(key(0), "0");
          T.append(key(1), "1");
          return true;
        },
        &Err))
        << Err;
    EXPECT_EQ(S->poolSize(), 2u);
    // A record referencing a pool id that was never published — the
    // state a writer killed between segment write and pool durability
    // would leave if the pool-first ordering were violated. Plant it
    // directly (own-process appends skip the validator): the scan-time
    // validator must contain it on the next open.
    S->append(key(2), "7");
    ASSERT_TRUE(S->flush(&Err)) << Err;
  }
  // Tear the pool's tail: half a record from a killed mid-append writer.
  fs::path Pool;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".rpool")
      Pool = E.path();
  ASSERT_FALSE(Pool.empty());
  std::ofstream(Pool, std::ios::binary | std::ios::app) << "\x01\x02\x03";

  auto S = Store::open(Dir.string(), poolOpts(), &Err);
  ASSERT_TRUE(S) << Err;
  EXPECT_EQ(S->poolSize(), 2u) << "torn pool tail must be dropped";
  EXPECT_TRUE(S->lookup(key(0)));
  EXPECT_TRUE(S->lookup(key(1)));
  EXPECT_FALSE(S->lookup(key(2)))
      << "a record with a dangling pool id must never be indexed";

  // The next pool append heals the torn tail in place; the healed pool
  // extends the old one (ids stable), and the new record resolves.
  ASSERT_TRUE(S->flushWith(
      [&](Store::Txn &T) {
        EXPECT_EQ(T.poolIdFor("gamma"), 2u);
        T.append(key(3), "2");
        return true;
      },
      &Err))
      << Err;
  auto S2 = Store::open(Dir.string(), poolOpts(), &Err);
  ASSERT_TRUE(S2) << Err;
  EXPECT_EQ(S2->poolSize(), 3u);
  std::vector<std::string> Names;
  S2->forEachPoolNameFrom(
      0, [&](uint64_t, std::string_view N) { Names.emplace_back(N); });
  EXPECT_EQ(Names, (std::vector<std::string>{"alpha", "beta", "gamma"}));
  EXPECT_TRUE(S2->lookup(key(3)));
}

TEST_F(StoreTest, KilledBeforeFirstPoolPublicationStaysInvisible) {
  {
    auto S = openStore();
    S->append(key(0), payload(0));
    ASSERT_TRUE(S->flush());
  }
  // The first pool is published by the MANIFEST gaining a pool line.
  // Simulate a writer killed after writing the pool file but before the
  // rename: an orphan pool plus a staged manifest.
  std::ofstream(Dir / "pool-000001.rpool", std::ios::binary)
      << "retypd-pool v1 schema " << kTestSchema << "\n";
  std::ofstream(Dir / "MANIFEST.tmp.123.9", std::ios::binary)
      << "half a manifest";
  {
    auto S = openStore();
    ASSERT_TRUE(S);
    EXPECT_EQ(S->poolSize(), 0u) << "unpublished pool leaked in";
    EXPECT_TRUE(S->lookup(key(0)));
    ASSERT_TRUE(S->compact());
  }
  EXPECT_FALSE(fs::exists(Dir / "pool-000001.rpool"))
      << "orphan pool survived compaction";
  EXPECT_FALSE(fs::exists(Dir / "MANIFEST.tmp.123.9"));
}

TEST_F(StoreTest, KilledMidCompactionKeepsPoolVerbatimAndEpochStable) {
  std::string Err;
  auto A = Store::open(Dir.string(), poolOpts(), &Err);
  ASSERT_TRUE(A) << Err;
  ASSERT_TRUE(A->flushWith(
      [&](Store::Txn &T) {
        T.poolIdFor("alpha");
        T.poolIdFor("beta");
        T.append(key(0), "0");
        T.append(key(1), "1");
        return true;
      },
      &Err))
      << Err;
  A.reset();

  // A compaction killed after writing its gen-2 segment AND gen-2 pool,
  // but before the MANIFEST rename published either.
  std::ofstream(Dir / "seg-000002-000000.rseg", std::ios::binary)
      << "retypd-segment v1 schema " << kTestSchema << "\n";
  std::ofstream(Dir / "pool-000002.rpool", std::ios::binary)
      << "retypd-pool v1 schema " << kTestSchema << "\n";
  std::ofstream(Dir / "MANIFEST.tmp.999.1", std::ios::binary)
      << "half a manifest";

  A = Store::open(Dir.string(), poolOpts(), &Err);
  ASSERT_TRUE(A) << Err;
  EXPECT_EQ(A->generation(), 1u) << "unpublished compaction leaked in";
  EXPECT_EQ(A->poolSize(), 2u) << "previous pool must stay authoritative";
  EXPECT_TRUE(A->lookup(key(0)));

  // A second object (another process) holds its translation table across
  // the retry compaction: the pool is carried verbatim, so its epoch —
  // and with it every table built against it — must survive.
  auto B = Store::open(Dir.string(), poolOpts(), &Err);
  ASSERT_TRUE(B) << Err;
  uint64_t Epoch0 = B->poolEpoch();

  auto R = A->compact(&Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_EQ(A->poolSize(), 2u);
  std::vector<std::string> Names;
  A->forEachPoolNameFrom(
      0, [&](uint64_t, std::string_view N) { Names.emplace_back(N); });
  EXPECT_EQ(Names, (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_TRUE(A->lookup(key(0)));
  EXPECT_TRUE(A->lookup(key(1)));

  ASSERT_TRUE(B->refresh(&Err)) << Err;
  EXPECT_EQ(B->poolEpoch(), Epoch0)
      << "verbatim pool carry must not invalidate reader translation tables";
  EXPECT_TRUE(B->lookup(key(1)));
  EXPECT_FALSE(fs::exists(Dir / "MANIFEST.tmp.999.1"));
}

TEST_F(StoreTest, CompactionReclaimsAtLeastReportedDeadBytes) {
  auto S = openStore();
  for (uint64_t I = 0; I < 10; ++I)
    S->append(key(I), payload(I, 100));
  ASSERT_TRUE(S->flush());
  for (uint64_t I = 0; I < 10; ++I)
    S->append(key(I), payload(I + 1, 80)); // supersede everything
  ASSERT_TRUE(S->flush());

  StoreInfo Before = Store::inspect(Dir.string(), kTestSchema);
  ASSERT_TRUE(Before.Ok);
  EXPECT_GT(Before.DeadBytes, 1000u);
  size_t BytesBefore = segmentBytesTotal();

  auto R = S->compact();
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Generation, 2u);
  EXPECT_EQ(R->LiveRecords, 10u);
  EXPECT_EQ(R->DroppedRecords, 10u);
  EXPECT_GE(R->ReclaimedBytes, Before.DeadBytes)
      << "compaction must reclaim at least the dead bytes reported";
  size_t BytesAfter = segmentBytesTotal();
  EXPECT_EQ(BytesBefore - BytesAfter, R->ReclaimedBytes);

  for (uint64_t I = 0; I < 10; ++I)
    EXPECT_EQ(S->lookup(key(I)).view(), payload(I + 1, 80)) << I;
  StoreInfo After = Store::inspect(Dir.string(), kTestSchema);
  ASSERT_TRUE(After.Ok);
  EXPECT_EQ(After.DeadBytes, 0u);
  EXPECT_EQ(After.Generation, 2u);
}

TEST_F(StoreTest, CompactWithFilterDropsRejectedKeys) {
  auto S = openStore();
  for (uint64_t I = 0; I < 6; ++I)
    S->append(key(I), payload(I));
  ASSERT_TRUE(S->flush());
  auto R = S->compact(
      [](const Hash128 &K, size_t) { return K.Lo % 2 == 0; });
  ASSERT_TRUE(R);
  EXPECT_EQ(R->LiveRecords, 3u);
  EXPECT_TRUE(S->lookup(key(0)));
  EXPECT_FALSE(S->lookup(key(1)));
  EXPECT_TRUE(S->lookup(key(2)));
}

TEST_F(StoreTest, StaleSchemaRefusedThenRegeneratedOnOptIn) {
  {
    auto S = openStore();
    S->append(key(1), "old schema payload");
    ASSERT_TRUE(S->flush());
  }
  // A binary with a newer payload schema arrives.
  StoreOptions Newer = opts();
  Newer.SchemaVersion = kTestSchema + 1;
  std::string Err;
  EXPECT_FALSE(Store::open(Dir.string(), Newer, &Err));
  EXPECT_NE(Err.find("re-run analyze"), std::string::npos) << Err;
  StoreInfo Info = Store::inspect(Dir.string(), kTestSchema + 1);
  EXPECT_FALSE(Info.Ok);
  EXPECT_TRUE(Info.Stale);
  EXPECT_NE(Info.Error.find("re-run analyze"), std::string::npos);
  // The analyze path opts into regeneration: stale = cold.
  Newer.RegenerateStale = true;
  auto S = Store::open(Dir.string(), Newer, &Err);
  ASSERT_TRUE(S) << Err;
  EXPECT_EQ(S->keyCount(), 0u);
  EXPECT_FALSE(S->lookup(key(1)));
  // The reverse direction — a store from the FUTURE — is never touched.
  StoreOptions Older = opts();
  Older.SchemaVersion = kTestSchema;
  Older.RegenerateStale = true;
  EXPECT_FALSE(Store::open(Dir.string(), Older, &Err));
  EXPECT_NE(Err.find("newer than this binary"), std::string::npos) << Err;
  Info = Store::inspect(Dir.string(), kTestSchema);
  EXPECT_TRUE(Info.Newer);
  EXPECT_EQ(Store::inspect(Dir.string(), kTestSchema + 1).Ok, true)
      << "regenerated store must be current for the new schema";
}

TEST_F(StoreTest, ForeignDirectoryRefused) {
  fs::create_directories(Dir);
  std::ofstream(Dir / "MANIFEST", std::ios::binary) << "hello world\n";
  std::string Err;
  EXPECT_FALSE(Store::open(Dir.string(), opts(), &Err));
  EXPECT_NE(Err.find("unrecognized MANIFEST header"), std::string::npos)
      << Err;
  StoreInfo Info = Store::inspect(Dir.string(), kTestSchema);
  EXPECT_FALSE(Info.Ok);
  EXPECT_FALSE(Info.Stale);
}

TEST_F(StoreTest, EventCountersTrackAppendsAndCompactions) {
  RunMetrics::process().reset();
  auto S = openStore();
  for (uint64_t I = 0; I < 7; ++I)
    S->append(key(I), payload(I));
  ASSERT_TRUE(S->flush());
  EXPECT_EQ(CounterSnapshot::take().StoreAppends, 7u);
  ASSERT_TRUE(S->compact().has_value());
  EXPECT_EQ(CounterSnapshot::take().StoreCompactions, 1u);
  // mmap served: the zero-copy invariant counter stays at zero.
  for (uint64_t I = 0; I < 7; ++I)
    EXPECT_TRUE(S->lookup(key(I)));
  EXPECT_EQ(CounterSnapshot::take().StorePayloadCopies, 0u);
}

TEST_F(StoreTest, ConcurrentReadersWritersAndCompaction) {
  auto S = openStore();
  for (uint64_t I = 0; I < 16; ++I)
    S->append(key(I), payload(I, 64));
  ASSERT_TRUE(S->flush());

  std::atomic<bool> Stop{false};
  std::atomic<size_t> Hits{0};
  std::vector<std::thread> Readers;
  for (int T = 0; T < 3; ++T)
    Readers.emplace_back([&] {
      uint64_t I = 0;
      while (!Stop.load(std::memory_order_relaxed)) {
        Store::PayloadRef R = S->lookup(key(I % 16));
        if (R && !R.view().empty())
          Hits.fetch_add(1, std::memory_order_relaxed);
        ++I;
      }
    });
  std::thread Writer([&] {
    for (int Round = 0; Round < 20; ++Round) {
      for (uint64_t I = 0; I < 16; ++I)
        S->append(key(I), payload(I + Round, 64));
      ASSERT_TRUE(S->flush());
      if (Round % 7 == 6) {
        ASSERT_TRUE(S->compact().has_value());
      }
    }
    Stop.store(true, std::memory_order_relaxed);
  });
  Writer.join();
  for (std::thread &T : Readers)
    T.join();
  EXPECT_GT(Hits.load(), 0u);
  EXPECT_EQ(S->keyCount(), 16u);
}

} // namespace
