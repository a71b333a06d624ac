//===- SummaryCache.cpp - Content-addressed type-scheme cache -------------===//

#include "core/SummaryCache.h"

#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <mutex>

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
  ScopedPhaseTimer Timer(Phase::CacheHash);
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
    ScopedPhaseTimer Timer(Phase::CachePoolBind);
    Backing->forEachPoolNameFrom(From, [&](uint64_t, std::string_view N) {
      B->SymIds.push_back(Syms.intern(N));
      std::optional<LatticeElem> E = Lat.lookup(N);
      B->LatElems.push_back(E ? static_cast<uint32_t>(*E) + 1 : 0);
      ++Added;
    });
  }
  if (Added) {
    countEvent(Counter::PoolBinds, Added);
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
      ScopedPhaseTimer Timer(Phase::CacheDecode);
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
        ScopedPhaseTimer Timer(Phase::CacheDecode);
        Out = DecodeTrusted(V, &PV);
      }
      if (Out) {
        countEvent(Counter::StoreHits);
        if (PoolMode)
          countEvent(Counter::PoolBindHits);
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
    countEvent(Counter::GenCacheHits);
  else
    countEvent(Counter::GenCacheMisses);
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
    countEvent(Counter::GenCacheHits);
  else
    countEvent(Counter::GenCacheMisses);
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
  // The analyze path owns regeneration: a stale store is a cold store.
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
  ScopedPhaseTimer Timer(Phase::StoreFlush);
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
    ScopedPhaseTimer Timer(Phase::CacheEncode);
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
    ScopedPhaseTimer Timer(Phase::CacheEncode);
    Payload = encodeSketchBundle(Entries, Syms, Lat, Backend);
  }
  insertPayload(K, std::move(Payload));
}

void SummaryCache::insert(const SummaryKey &K, const TypeScheme &Scheme,
                          const SymbolTable &Syms, const Lattice &Lat,
                          BackendKind Backend) {
  std::string Payload;
  {
    ScopedPhaseTimer Timer(Phase::CacheEncode);
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
