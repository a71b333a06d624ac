//===- SummaryCache.cpp - Content-addressed type-scheme cache -------------===//

#include "core/SummaryCache.h"

#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>

#include <unistd.h>

using namespace retypd;

namespace {

/// Streams a name set into \p H order-independently: sorted, each name
/// followed by a separator. Shared by scheme and solve keys so the name
/// hashing discipline can never diverge between them.
void hashSortedNames(Fnv128 &H, const std::vector<std::string> &Names) {
  std::vector<const std::string *> Sorted;
  Sorted.reserve(Names.size());
  for (const std::string &N : Names)
    Sorted.push_back(&N);
  std::sort(Sorted.begin(), Sorted.end(),
            [](const std::string *A, const std::string *B) { return *A < *B; });
  for (const std::string *N : Sorted) {
    H.update(*N);
    H.sep();
  }
}

} // namespace

SummaryKey SummaryCache::keyFor(const Hash128 &SetHash,
                                std::string_view ProcName,
                                const std::vector<std::string> &InterestingNames,
                                const SimplifyOptions &Opts,
                                BackendKind Backend) {
  Fnv128 H;
  H.update("retypd-summary-v4");
  H.sep();
  H.updateU64(SetHash.Hi);
  H.updateU64(SetHash.Lo);
  H.sep();
  H.update(ProcName);
  H.sep();
  hashSortedNames(H, InterestingNames);
  H.sep();
  H.updateU64(Opts.MaxTidyIterations);
  H.updateU64(Opts.BloatSlack);
  // The salt names the scheme format: v4 schemes have their vacuous
  // components dropped (dropVacuousComponents), so a leaf whose input set
  // and key are otherwise unchanged must not replay an older, unpruned
  // scheme. Other backends extend the default stream and land in a
  // disjoint key space.
  if (Backend != BackendKind::Retypd) {
    H.sep();
    H.update(backendName(Backend));
  }
  return H.digest();
}

SummaryKey SummaryCache::keyFor(const ConstraintSet &C, TypeVariable ProcVar,
                                const std::vector<std::string> &InterestingNames,
                                const SimplifyOptions &Opts,
                                const SymbolTable &Syms, const Lattice &Lat,
                                BackendKind Backend) {
  // The canonical structural hash is the content identity — insertion
  // order and symbol-id allocation cannot leak into it.
  ScopedPhaseTimer Timer("cache.hash");
  return keyFor(constraintSetHash(C, Syms, Lat),
                Syms.name(ProcVar.symbol()), InterestingNames, Opts, Backend);
}

SummaryKey SummaryCache::solveKeyFor(const Hash128 &SetHash,
                                     const std::vector<std::string>
                                         &WantedNames,
                                     BackendKind Backend) {
  Fnv128 H;
  H.update("retypd-solve-v1");
  H.sep();
  H.updateU64(SetHash.Hi);
  H.updateU64(SetHash.Lo);
  H.sep();
  hashSortedNames(H, WantedNames);
  if (Backend != BackendKind::Retypd) {
    H.sep();
    H.update(backendName(Backend));
  }
  return H.digest();
}

std::shared_ptr<const SummaryCache::PoolBinding>
SummaryCache::poolBindingFor(SymbolTable &Syms, const Lattice &Lat) const {
  // Snapshot the guards first; the pool can grow between these reads and
  // the build below, but never shrink within an epoch — a too-small
  // binding only means the probe retries after refreshing.
  const uint64_t Epoch = Backing->poolEpoch();
  const uint64_t Size = Backing->poolSize();
  const uint64_t Uid = Syms.uid();
  {
    std::lock_guard<std::mutex> L(BindingM);
    if (Binding && Binding->Epoch == Epoch && Binding->SymsUid == Uid &&
        Binding->Lat == &Lat && Binding->SymIds.size() >= Size)
      return Binding;
  }
  // Build (or extend) OUTSIDE the store's read path: forEachPoolNameFrom
  // takes the store's shared lock, so no PayloadRef may be alive here.
  auto B = std::make_shared<PoolBinding>();
  B->Epoch = Epoch;
  B->SymsUid = Uid;
  B->Lat = &Lat;
  uint64_t From = 0;
  {
    std::lock_guard<std::mutex> L(BindingM);
    if (Binding && Binding->Epoch == Epoch && Binding->SymsUid == Uid &&
        Binding->Lat == &Lat) {
      // Same epoch: the pool only grew, so the old table is a valid
      // prefix — copy it and intern just the tail.
      B->SymIds = Binding->SymIds;
      B->LatElems = Binding->LatElems;
      From = B->SymIds.size();
    }
  }
  uint64_t Added = 0;
  {
    ScopedPhaseTimer Timer("cache.poolbind");
    Backing->forEachPoolNameFrom(From, [&](uint64_t, std::string_view N) {
      B->SymIds.push_back(Syms.intern(N));
      std::optional<LatticeElem> E = Lat.lookup(N);
      B->LatElems.push_back(E ? static_cast<uint32_t>(*E) + 1 : 0);
      ++Added;
    });
  }
  if (Added) {
    EventCounters::PoolBinds.fetch_add(Added, std::memory_order_relaxed);
    trace::instant("pool.bind", "store", static_cast<int64_t>(Added));
  }
  std::lock_guard<std::mutex> L(BindingM);
  // Keep whichever binding is further along (a racing builder may have
  // published a longer table while we interned).
  if (!Binding || Binding->Epoch != Epoch || Binding->SymsUid != Uid ||
      Binding->Lat != &Lat || Binding->SymIds.size() < B->SymIds.size())
    Binding = B;
  return Binding;
}

template <typename DecodeFn, typename TrustedFn>
auto SummaryCache::probeImpl(const SummaryKey &K, SymbolTable &Syms,
                             const Lattice &Lat, DecodeFn Decode,
                             TrustedFn DecodeTrusted, bool Count) const
    -> decltype(Decode(std::string_view())) {
  using Result = decltype(Decode(std::string_view()));
  Shard &Sh = shard(K);
  Result Out;
  bool FoundMem = false;
  {
    // In-memory payloads decode in place under the shard's shared lock:
    // readers never block readers, and entries never mutate — only
    // insert_or_assign replaces whole strings, under the exclusive lock.
    std::shared_lock<std::shared_mutex> Lock(Sh.M);
    auto It = Sh.Entries.find(K);
    if (It != Sh.Entries.end()) {
      FoundMem = true;
      ScopedPhaseTimer Timer("cache.decode");
      Out = Decode(std::string_view(It->second));
    }
  }
  if (FoundMem && !Out) {
    // Self-healing: drop the corrupt entry so the caller's recomputed
    // insert overwrites it (unless a racing insert already replaced it
    // with bytes that decode — re-check under the exclusive lock). The
    // attached store below may still serve the key.
    std::unique_lock<std::shared_mutex> Lock(Sh.M);
    auto It = Sh.Entries.find(K);
    if (It != Sh.Entries.end() && !Decode(std::string_view(It->second)))
      Sh.Entries.erase(It);
  }
  if (!Out && Backing) {
    // The translation table is grabbed BEFORE the payload view: its
    // build takes the store's shared lock, which must never nest inside
    // a held PayloadRef.
    std::shared_ptr<const PoolBinding> B = poolBindingFor(Syms, Lat);
    for (int Attempt = 0; Attempt < 2 && !Out; ++Attempt) {
      bool PoolMode = false;
      {
        // Decode straight out of the store's mapped segment — the view
        // is borrowed, no payload bytes are copied. Records were
        // structurally validated at segment scan, so this is the
        // codec's trusted fast path; without a validating store (test
        // seam) the payload is validated here instead.
        Store::PayloadRef Ref = Backing->lookup(K);
        if (!Ref)
          break;
        std::string_view V = Ref.view();
        PoolMode =
            V.size() >= 2 && static_cast<unsigned char>(V[1]) == 1;
        if (!Backing->validatesPayloads() &&
            !validatePayload(V, B->SymIds.size()))
          break;
        PoolBindingView PV;
        PV.SymIds = B->SymIds.data();
        PV.LatElems = B->LatElems.data();
        PV.Size = B->SymIds.size();
        ScopedPhaseTimer Timer("cache.decode");
        Out = DecodeTrusted(V, &PV);
      }
      if (Out) {
        EventCounters::StoreHits.fetch_add(1, std::memory_order_relaxed);
        if (PoolMode)
          EventCounters::PoolBindHits.fetch_add(1,
                                                std::memory_order_relaxed);
      } else if (PoolMode && Attempt == 0) {
        // The payload may reference pool ids added after our binding
        // snapshot (another process flushed between the binding build
        // and the lookup). Refresh once; a second failure is a genuine
        // reject.
        B = poolBindingFor(Syms, Lat);
      } else {
        // A store payload that fails to decode is a plain miss here;
        // the record itself is folded away by the next compaction.
        break;
      }
    }
  }
  if (Out) {
    if (Count)
      Hits.fetch_add(1, std::memory_order_relaxed);
    return Out;
  }
  if (Count)
    Misses.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

std::optional<TypeScheme> SummaryCache::lookup(const SummaryKey &K,
                                               SymbolTable &Syms,
                                               const Lattice &Lat) const {
  return probeImpl(
      K, Syms, Lat,
      [&](std::string_view P) { return decodeScheme(P, Syms, Lat); },
      [&](std::string_view P, const PoolBindingView *Pool) {
        return decodeSchemeTrusted(P, Syms, Lat, Pool);
      });
}

std::optional<std::vector<SketchBinding>>
SummaryCache::lookupSolution(const SummaryKey &K, SymbolTable &Syms,
                             const Lattice &Lat) const {
  return probeImpl(
      K, Syms, Lat,
      [&](std::string_view P) { return decodeSketchBundle(P, Syms, Lat); },
      [&](std::string_view P, const PoolBindingView *Pool) {
        return decodeSketchBundleTrusted(P, Syms, Lat, Pool);
      });
}

std::optional<DecodedGenResult> SummaryCache::lookupGen(const SummaryKey &K,
                                                        SymbolTable &Syms,
                                                        const Lattice &Lat)
    const {
  auto Out = probeImpl(
      K, Syms, Lat,
      [&](std::string_view P) { return decodeGenResult(P, Syms, Lat); },
      [&](std::string_view P, const PoolBindingView *Pool) {
        return decodeGenResultTrusted(P, Syms, Lat, Pool);
      });
  if (Out)
    EventCounters::GenCacheHits.fetch_add(1, std::memory_order_relaxed);
  else
    EventCounters::GenCacheMisses.fetch_add(1, std::memory_order_relaxed);
  return Out;
}

std::optional<GenResultMeta>
SummaryCache::lookupGenMeta(const SummaryKey &K, SymbolTable &Syms,
                            const Lattice &Lat) const {
  auto Out = probeImpl(
      K, Syms, Lat,
      [&](std::string_view P) -> std::optional<GenResultMeta> {
        // In-memory entries skipped store-side validation; check here.
        if (!validatePayload(P, 0))
          return std::nullopt;
        return decodeGenResultMetaTrusted(P, Syms, Lat);
      },
      [&](std::string_view P, const PoolBindingView *Pool) {
        return decodeGenResultMetaTrusted(P, Syms, Lat, Pool);
      });
  if (Out)
    EventCounters::GenCacheHits.fetch_add(1, std::memory_order_relaxed);
  else
    EventCounters::GenCacheMisses.fetch_add(1, std::memory_order_relaxed);
  return Out;
}

std::optional<DecodedGenResult>
SummaryCache::materializeGen(const SummaryKey &K, SymbolTable &Syms,
                             const Lattice &Lat) const {
  return probeImpl(
      K, Syms, Lat,
      [&](std::string_view P) { return decodeGenResult(P, Syms, Lat); },
      [&](std::string_view P, const PoolBindingView *Pool) {
        return decodeGenResultTrusted(P, Syms, Lat, Pool);
      },
      /*Count=*/false);
}

bool SummaryCache::openStore(const std::string &Dir, std::string *Err) {
  StoreOptions O;
  O.SchemaVersion = kSummaryCacheSchemaVersion;
  // The analyze path owns regeneration: a stale store is a cold store,
  // exactly like a stale cache file (which load() simply ignores).
  O.RegenerateStale = true;
  // Structural validation runs once per record at segment scan; every
  // probe afterwards decodes through the codec's trusted fast path.
  O.Validator = [](std::string_view Payload, uint64_t PoolSize) {
    return validatePayload(Payload, PoolSize);
  };
  auto S = Store::open(Dir, O, Err);
  if (!S)
    return false;
  attachStore(std::move(S));
  return true;
}

void SummaryCache::attachStore(std::unique_ptr<Store> S) {
  Backing = std::move(S);
  // Pool epochs are relative to the attached store; drop the table.
  std::lock_guard<std::mutex> L(BindingM);
  Binding.reset();
}

std::optional<size_t> SummaryCache::flushToStore(std::string *Err) {
  if (!Backing) {
    if (Err)
      *Err = "no store attached";
    return std::nullopt;
  }
  // Snapshot (key, payload) per shard FIRST: no shard lock is ever held
  // across a store call (the store's lock and the shard locks must never
  // nest in both orders). Sorted by key so pool id assignment — and with
  // it the store's byte content — is deterministic for a given entry
  // set, independent of insertion timing.
  std::vector<std::pair<SummaryKey, std::string>> Snap;
  for (unsigned I = 0; I < kNumShards; ++I) {
    std::shared_lock<std::shared_mutex> Lock(Shards[I].M);
    for (const auto &E : Shards[I].Entries)
      Snap.emplace_back(E.first, E.second);
  }
  std::sort(Snap.begin(), Snap.end(), [](const auto &A, const auto &B) {
    return A.first < B.first;
  });
  size_t Appended = 0;
  ScopedPhaseTimer Timer("store.flush");
  bool Ok = Backing->flushWith(
      [&](Store::Txn &T) {
        Appended = 0;
        for (const auto &E : Snap) {
          // Transcode names to pool ids under the flush lock: id
          // assignment is race-free across processes, and the store
          // writes the pool additions durably before these records.
          std::optional<std::string> Pooled = transcodeNamesToPool(
              E.second,
              [&](std::string_view N) { return T.poolIdFor(N); });
          const std::string &P = Pooled ? *Pooled : E.second;
          if (T.payloadEquals(E.first, P))
            continue; // unchanged: nothing to journal
          T.append(E.first, P,
                   P.empty() ? 0
                             : static_cast<uint8_t>(
                                   static_cast<unsigned char>(P[0])));
          ++Appended;
        }
        return true;
      },
      Err);
  if (!Ok)
    return std::nullopt;
  return Appended;
}

void SummaryCache::insertGen(const SummaryKey &K, const ConstraintSet &C,
                             const Hash128 &SetHash,
                             const std::vector<TypeVariable> &Interesting,
                             const std::vector<TypeVariable> &Callsites,
                             const SymbolTable &Syms, const Lattice &Lat) {
  std::string Payload;
  {
    ScopedPhaseTimer Timer("cache.encode");
    Payload = encodeGenResult(C, SetHash, Interesting, Callsites, Syms, Lat);
  }
  insertPayload(K, std::move(Payload));
}

void SummaryCache::insertSolution(
    const SummaryKey &K,
    const std::vector<std::pair<TypeVariable, const Sketch *>> &Entries,
    const SymbolTable &Syms, const Lattice &Lat, BackendKind Backend) {
  std::string Payload;
  {
    ScopedPhaseTimer Timer("cache.encode");
    Payload = encodeSketchBundle(Entries, Syms, Lat, Backend);
  }
  insertPayload(K, std::move(Payload));
}

void SummaryCache::insert(const SummaryKey &K, const TypeScheme &Scheme,
                          const SymbolTable &Syms, const Lattice &Lat,
                          BackendKind Backend) {
  std::string Payload;
  {
    ScopedPhaseTimer Timer("cache.encode");
    Payload = encodeScheme(Scheme, Syms, Lat, Backend);
  }
  insertPayload(K, std::move(Payload));
}

std::optional<std::string> SummaryCache::lookupPayload(const SummaryKey &K) const {
  Shard &Sh = shard(K);
  std::shared_lock<std::shared_mutex> Lock(Sh.M);
  auto It = Sh.Entries.find(K);
  if (It == Sh.Entries.end())
    return std::nullopt;
  return It->second;
}

void SummaryCache::insertPayload(const SummaryKey &K, std::string Payload) {
  Shard &Sh = shard(K);
  std::unique_lock<std::shared_mutex> Lock(Sh.M);
  // Replacement matters for self-healing: a corrupt entry that failed to
  // decode gets overwritten by the freshly recomputed scheme. Concurrent
  // duplicate inserts are benign because entries for one key are always
  // identical by construction.
  Sh.Entries.insert_or_assign(K, std::move(Payload));
}

size_t SummaryCache::size() const {
  size_t N = 0;
  for (const Shard &Sh : Shards) {
    std::shared_lock<std::shared_mutex> Lock(Sh.M);
    N += Sh.Entries.size();
  }
  return N;
}

void SummaryCache::clear() {
  for (Shard &Sh : Shards) {
    std::unique_lock<std::shared_mutex> Lock(Sh.M);
    Sh.Entries.clear();
  }
}

size_t SummaryCache::payloadBytes() const {
  size_t Bytes = 0;
  for (const Shard &Sh : Shards) {
    std::shared_lock<std::shared_mutex> Lock(Sh.M);
    for (const auto &E : Sh.Entries)
      Bytes += E.second.size();
  }
  return Bytes;
}

size_t SummaryCache::pruneToBytes(size_t MaxBytes) {
  // Hold every shard exclusively (fixed order — the same order save() and
  // the copy paths use) so the victim choice sees one consistent snapshot.
  std::array<std::unique_lock<std::shared_mutex>, kNumShards> Locks;
  for (unsigned I = 0; I < kNumShards; ++I)
    Locks[I] = std::unique_lock<std::shared_mutex>(Shards[I].M);
  size_t Total = 0;
  std::vector<const std::pair<const SummaryKey, std::string> *> Sorted;
  for (Shard &Sh : Shards)
    for (const auto &E : Sh.Entries) {
      Total += E.second.size();
      Sorted.push_back(&E);
    }
  if (Total <= MaxBytes)
    return 0;
  // Deterministic victim order: largest payloads first, key order on ties.
  std::sort(Sorted.begin(), Sorted.end(), [](const auto *A, const auto *B) {
    if (A->second.size() != B->second.size())
      return A->second.size() > B->second.size();
    return std::make_pair(A->first.Hi, A->first.Lo) <
           std::make_pair(B->first.Hi, B->first.Lo);
  });
  size_t Dropped = 0;
  for (const auto *E : Sorted) {
    if (Total <= MaxBytes)
      break;
    Total -= E->second.size();
    const SummaryKey K = E->first; // copy: E points into the erased node
    Shards[shardOf(K)].Entries.erase(K);
    ++Dropped;
  }
  return Dropped;
}

namespace {

/// Parses the version header line. Accepts only the current layout:
///   retypd-summary-cache v<FileVersion> schema <SchemaVersion>
bool parseHeader(const std::string &Line, unsigned &FileVersion,
                 unsigned &SchemaVersion) {
  unsigned V = 0, S = 0;
  if (std::sscanf(Line.c_str(), "retypd-summary-cache v%u schema %u", &V,
                  &S) != 2)
    return false;
  FileVersion = V;
  SchemaVersion = S;
  return true;
}

bool fileVersionIsNewer(unsigned FileVersion, unsigned SchemaVersion) {
  return FileVersion > kSummaryCacheFileVersion ||
         (FileVersion == kSummaryCacheFileVersion &&
          SchemaVersion > kSummaryCacheSchemaVersion);
}

std::string versionMismatchError(unsigned FileVersion,
                                 unsigned SchemaVersion) {
  std::string Versions = "(v" + std::to_string(FileVersion) + " schema " +
                         std::to_string(SchemaVersion) + "; this binary: v" +
                         std::to_string(kSummaryCacheFileVersion) +
                         " schema " +
                         std::to_string(kSummaryCacheSchemaVersion) + ")";
  // Direction matters: an OLDER file is stale and safe to regenerate; a
  // NEWER file was written by a newer binary, and "regenerate" would
  // destroy its valid contents.
  if (fileVersionIsNewer(FileVersion, SchemaVersion))
    return "cache file is newer than this binary " + Versions +
           " — upgrade the binary or point it at a different cache file";
  return "stale cache file " + Versions +
         " — re-run analyze to regenerate it";
}

} // namespace

// File format (version kSummaryCacheFileVersion):
//   retypd-summary-cache v3 schema 2
//   entry <hex key> <byte count>\n
//   <binary payload bytes>\n
//   ... repeated ...
// Older headers (v1's unversioned "retypd-summary-cache-v1", v2's textual
// schemes) are rejected wholesale: a stale cache is a cold cache.
bool SummaryCache::load(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  // File size bounds every entry's claimed byte count: the count is
  // untrusted input, and allocating a string from a corrupt multi-GB (or
  // 2^64-1) value would abort the process instead of treating the entry
  // as a malformed tail.
  In.seekg(0, std::ios::end);
  const std::streamoff End = In.tellg();
  In.seekg(0, std::ios::beg);
  std::string Line;
  unsigned FileVersion = 0, SchemaVersion = 0;
  if (!std::getline(In, Line) ||
      !parseHeader(Line, FileVersion, SchemaVersion) ||
      FileVersion != kSummaryCacheFileVersion ||
      SchemaVersion != kSummaryCacheSchemaVersion)
    return false;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    unsigned long long Hi = 0, Lo = 0, Bytes = 0;
    if (std::sscanf(Line.c_str(), "entry %16llx%16llx %llu", &Hi, &Lo,
                    &Bytes) != 3)
      return true; // ignore malformed tail
    std::streamoff Pos = In.tellg();
    if (Pos < 0 ||
        Bytes > static_cast<unsigned long long>(End - Pos))
      return true; // claimed payload exceeds the file: malformed tail
    std::string Payload(Bytes, '\0');
    In.read(Payload.data(), static_cast<std::streamsize>(Bytes));
    if (static_cast<unsigned long long>(In.gcount()) != Bytes)
      return true;
    In.get(); // trailing newline
    SummaryKey K{Hi, Lo};
    Shard &Sh = shard(K);
    std::unique_lock<std::shared_mutex> Lock(Sh.M);
    Sh.Entries.try_emplace(K, std::move(Payload));
  }
  return true;
}

bool SummaryCache::save(const std::string &Path) const {
  // Unique staging name per save: concurrent saves to one shared cache
  // file — from other processes or other threads of this one — must not
  // interleave writes into the same tmp file (each rename below stays
  // atomic; last writer wins wholesale).
  static std::atomic<uint64_t> SaveSeq{0};
  std::string Tmp = Path + ".tmp." +
                    std::to_string(static_cast<long>(::getpid())) + "." +
                    std::to_string(SaveSeq.fetch_add(1));
  bool Written = false;
  {
    std::ofstream OutF(Tmp, std::ios::binary | std::ios::trunc);
    if (!OutF)
      return false;
    OutF << "retypd-summary-cache v" << kSummaryCacheFileVersion << " schema "
         << kSummaryCacheSchemaVersion << '\n';
    // One consistent snapshot across shards (shared locks, fixed order).
    std::array<std::shared_lock<std::shared_mutex>, kNumShards> Locks;
    for (unsigned I = 0; I < kNumShards; ++I)
      Locks[I] = std::shared_lock<std::shared_mutex>(Shards[I].M);
    // Deterministic file contents: sort by key across all shards.
    std::vector<const std::pair<const SummaryKey, std::string> *> Sorted;
    for (const Shard &Sh : Shards)
      for (const auto &E : Sh.Entries)
        Sorted.push_back(&E);
    std::sort(Sorted.begin(), Sorted.end(), [](const auto *A, const auto *B) {
      return std::make_pair(A->first.Hi, A->first.Lo) <
             std::make_pair(B->first.Hi, B->first.Lo);
    });
    for (const auto *E : Sorted) {
      OutF << "entry " << E->first.hex() << ' ' << E->second.size() << '\n';
      OutF.write(E->second.data(),
                 static_cast<std::streamsize>(E->second.size()));
      OutF << '\n';
    }
    Written = static_cast<bool>(OutF);
  }
  // Never abandon the uniquely-named staging file: failed saves would
  // otherwise accumulate one orphan per attempt next to the cache.
  if (!Written || std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

CacheFileInfo SummaryCache::inspectFile(const std::string &Path) {
  CacheFileInfo Info;
  Info.ShardEntryCounts.assign(kNumShards, 0);
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Info.Error = "cannot open file";
    return Info;
  }
  std::string Line;
  if (!std::getline(In, Line)) {
    Info.Error = "empty file";
    return Info;
  }
  if (!parseHeader(Line, Info.FileVersion, Info.SchemaVersion)) {
    // The pre-versioning v1 layout ("retypd-summary-cache-v1") is still a
    // cache file — tell the user how to move on, not just that the header
    // is odd.
    if (Line.rfind("retypd-summary-cache", 0) == 0) {
      Info.Stale = true;
      Info.FileVersion = 1;
      Info.SchemaVersion = 1;
      Info.Error = versionMismatchError(1, 1);
    } else {
      Info.Error = "unrecognized header: " + Line;
    }
    return Info;
  }
  if (Info.FileVersion != kSummaryCacheFileVersion ||
      Info.SchemaVersion != kSummaryCacheSchemaVersion) {
    if (fileVersionIsNewer(Info.FileVersion, Info.SchemaVersion))
      Info.Newer = true;
    else
      Info.Stale = true;
    Info.Error = versionMismatchError(Info.FileVersion, Info.SchemaVersion);
    return Info;
  }
  // Bound payload skips by the real file size: seekg past EOF does not
  // fail until the next read, which would count a truncated final entry
  // as present (and disagree with what load() accepts). Measure on the
  // one open stream — a reopen could race with unlink/chmod and return
  // -1, silently neutralizing the bound.
  const std::streamoff HeaderEnd = In.tellg();
  In.seekg(0, std::ios::end);
  const std::streamoff End = In.tellg();
  In.seekg(HeaderEnd, std::ios::beg);
  if (HeaderEnd < 0 || End < 0) {
    Info.Error = "cannot determine file size";
    return Info;
  }
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    unsigned long long Hi = 0, Lo = 0, Bytes = 0;
    if (std::sscanf(Line.c_str(), "entry %16llx%16llx %llu", &Hi, &Lo,
                    &Bytes) != 3)
      break; // malformed tail: count what parsed
    std::streamoff Pos = In.tellg();
    // Compare in the unsigned domain: a corrupt 2^63+ byte count would
    // cast to a negative streamoff and slip past a signed comparison.
    if (Pos < 0 || Bytes > static_cast<unsigned long long>(End - Pos))
      break; // truncated payload: load() rejects it too
    In.seekg(static_cast<std::streamoff>(Bytes + 1), std::ios::cur);
    ++Info.EntryCount;
    ++Info.ShardEntryCounts[shardOf(SummaryKey{Hi, Lo})];
    Info.PayloadBytes += Bytes;
  }
  Info.Ok = true;
  return Info;
}
