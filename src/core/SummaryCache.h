//===- SummaryCache.h - Content-addressed type-scheme cache ---*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed cache of simplified type schemes. Simplification
/// (graph construction + saturation + trimming) dominates pipeline cost
/// and is a pure function of
///
///   (constraint-set structure, procedure name, interesting-variable
///    names, simplification options),
///
/// so its result can be keyed by a 128-bit structural hash of that tuple
/// (core/SchemeCodec.h): the hash streams names and packed labels in
/// canonical order, never rendering the set to text. Repeated runs over
/// the same binary, identical SCCs across binaries of one cluster
/// (Figure 10's shared statically-linked utility code), and shared
/// library SCCs all collapse into cache hits that skip saturation
/// entirely.
///
/// Entries store the scheme in the *binary payload format* of
/// core/SchemeCodec.h, not as interned ids and not as text: symbol ids are
/// meaningless across symbol tables and across processes, while a payload
/// carries its own name table and decodes with a single linear pass that
/// interns each name once — no ConstraintParser on the warm path.
/// lookup() hands back a decoded TypeScheme value. Payloads round-trip
/// losslessly (schemes are canonicalized before storage and decode
/// reproduces the canonical set exactly, order included), so the cache is
/// safe to persist.
///
/// Thread safe and SHARDED: entries are distributed over 16 shards by key
/// hash, each guarded by its own shared_mutex. Worker threads of the
/// parallel pipeline probe under shared (read) locks — the warm path takes
/// no exclusive lock at all — and inserts touch only the owning shard.
///
/// Durability is the multi-process artifact store (store/Store.h, the
/// `--store DIR` flag of retypd-cli), attached with openStore() and
/// appended to with flushToStore(): probes that miss the in-memory map
/// decode zero-copy out of the store's memory-mapped journal segments,
/// and appends are incremental under an advisory file lock. The store is
/// opened with a structural validator, so every record is checked ONCE at
/// segment scan and probes run the codec's trusted decoders straight off
/// the mapping.
/// Store payloads carry names as ids into the store's name pool; the
/// cache batch-interns the pool once per (store pool epoch, symbol
/// table) into a translation table (PoolBindingView), so a warm probe
/// performs zero per-payload string hashing
/// (EventCounters::PoolBinds/PoolBindHits).
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_CORE_SUMMARYCACHE_H
#define RETYPD_CORE_SUMMARYCACHE_H

#include "core/ConstraintSet.h"
#include "core/SchemeCodec.h"
#include "core/Simplifier.h"
#include "store/Store.h"
#include "support/Hash128.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace retypd {

/// The payload schema a store is stamped with; tracks
/// kSchemePayloadVersion. A bump invalidates every older store *cleanly at
/// open time* — one MANIFEST check instead of per-entry decode failures
/// silently degrading hit rates.
inline constexpr unsigned kSummaryCacheSchemaVersion = kSchemePayloadVersion;

/// 128-bit content hash identifying one cached problem (a simplification
/// or a solve). Exactly a Hash128 value — aliased rather than wrapped so
/// key plumbing and structural hashing share one type.
using SummaryKey = Hash128;
using SummaryKeyHash = Hash128Hasher;

/// Content-addressed, optionally persistent scheme cache.
class SummaryCache {
public:
  /// Number of independently locked shards.
  static constexpr unsigned kNumShards = 16;

  /// Which shard a key lives in (stable across processes: derived from the
  /// key's content hash only).
  static unsigned shardOf(const SummaryKey &K) {
    return static_cast<unsigned>(K.Lo & (kNumShards - 1));
  }

  /// Computes the content key for simplifying \p C into a scheme for
  /// \p ProcVar with \p Interesting preserved. Hashing walks the set's
  /// canonical structural view, so two structurally identical problems key
  /// identically regardless of symbol ids or constraint insertion order —
  /// and no canonical text is ever materialized. \p Backend participates
  /// in the key (non-default backends extend the retypd byte stream), so
  /// artifacts produced by different solver backends never collide. The
  /// stream is salted with the scheme format version, so scheme entries
  /// written before a format change miss instead of replaying.
  static SummaryKey keyFor(const ConstraintSet &C, TypeVariable ProcVar,
                           const std::vector<std::string> &InterestingNames,
                           const SimplifyOptions &Opts,
                           const SymbolTable &Syms, const Lattice &Lat,
                           BackendKind Backend = BackendKind::Retypd);

  /// Same, over a precomputed structural hash of the (already canonical)
  /// constraint set. The pipeline hashes each SCC's combined set once and
  /// keys every member against it.
  static SummaryKey keyFor(const Hash128 &SetHash, std::string_view ProcName,
                           const std::vector<std::string> &InterestingNames,
                           const SimplifyOptions &Opts,
                           BackendKind Backend = BackendKind::Retypd);

  /// Computes the content key for SOLVING an (already canonical) constraint
  /// set for the given wanted-variable names (Algorithm F.2's per-SCC raw
  /// solution — a pure function of exactly these inputs). Domain-separated
  /// from scheme keys, so the two entry kinds can share one store.
  /// Backend-separated like keyFor.
  static SummaryKey solveKeyFor(const Hash128 &SetHash,
                                const std::vector<std::string> &WantedNames,
                                BackendKind Backend = BackendKind::Retypd);

  /// Returns the decoded scheme for \p K, if cached. Decoding interns the
  /// payload's names into \p Syms; a payload that fails to decode is NOT
  /// reported here — callers never see it — the entry is dropped and the
  /// probe counted as a miss (self-healing, hit counters stay honest).
  std::optional<TypeScheme> lookup(const SummaryKey &K, SymbolTable &Syms,
                                   const Lattice &Lat) const;

  /// Encodes and inserts (or replaces) the scheme for \p K. \p Backend
  /// stamps the payload tag (and must match the backend folded into the
  /// key).
  void insert(const SummaryKey &K, const TypeScheme &Scheme,
              const SymbolTable &Syms, const Lattice &Lat,
              BackendKind Backend = BackendKind::Retypd);

  /// Returns the decoded sketch bindings for a solve key, if cached. Same
  /// self-healing/miss-accounting contract as lookup().
  std::optional<std::vector<SketchBinding>>
  lookupSolution(const SummaryKey &K, SymbolTable &Syms,
                 const Lattice &Lat) const;

  /// Returns the decoded generation result for a gen key (the content key
  /// the session combines from ConstraintGenerator::genKey values —
  /// already domain-separated from scheme and solve keys), if cached. Same
  /// self-healing contract as lookup(); additionally bumps
  /// EventCounters::GenCacheHits/Misses so benchmarks can report
  /// generation reuse separately.
  std::optional<DecodedGenResult> lookupGen(const SummaryKey &K,
                                            SymbolTable &Syms,
                                            const Lattice &Lat) const;

  /// Decodes only the meta prefix of a cached generation result — set
  /// hash, interesting/callsite variables, constraint count — WITHOUT
  /// materializing the constraint set. The fully warm path probes this;
  /// it only falls back to lookupGen for SCCs whose downstream scheme or
  /// solution probe misses. Bumps the same GenCacheHits/Misses counters
  /// as lookupGen (one SCC probes exactly one of the two).
  std::optional<GenResultMeta> lookupGenMeta(const SummaryKey &K,
                                             SymbolTable &Syms,
                                             const Lattice &Lat) const;

  /// Materializes the full generation result for a key whose META probe
  /// already hit — the residual decode the warm path defers until a
  /// downstream scheme or solution probe actually misses. Counter-SILENT
  /// (no GenCacheHits/Misses, no Hits/Misses): the logical probe was
  /// already counted by lookupGenMeta, and this is its second half, not a
  /// new probe. Can still return nullopt — the entry may have been
  /// evicted or pruned since the meta probe — in which case the caller
  /// regenerates.
  std::optional<DecodedGenResult> materializeGen(const SummaryKey &K,
                                                 SymbolTable &Syms,
                                                 const Lattice &Lat) const;

  /// Encodes and inserts (or replaces) a generation result for \p K.
  /// \p C must already be canonical and \p SetHash its canonicalSetHash
  /// (both replay verbatim on lookup).
  void insertGen(const SummaryKey &K, const ConstraintSet &C,
                 const Hash128 &SetHash,
                 const std::vector<TypeVariable> &Interesting,
                 const std::vector<TypeVariable> &Callsites,
                 const SymbolTable &Syms, const Lattice &Lat);

  /// Encodes and inserts (or replaces) a solver solution for \p K.
  void insertSolution(
      const SummaryKey &K,
      const std::vector<std::pair<TypeVariable, const Sketch *>> &Entries,
      const SymbolTable &Syms, const Lattice &Lat,
      BackendKind Backend = BackendKind::Retypd);

  // --- Durable artifact store (store/Store.h) ---------------------------
  /// Opens (creating if needed; reinitializing if stale — a stale store
  /// is a cold store) the artifact store in \p Dir and attaches it
  /// behind this cache: probes that miss the in-memory map fall through
  /// to the store and decode ZERO-COPY straight out of its memory-mapped
  /// segments (EventCounters::StoreHits / StorePayloadCopies), and
  /// flushToStore() appends this cache's new entries under the store's
  /// advisory file lock. Returns false with \p Err on foreign, newer, or
  /// unwritable directories.
  bool openStore(const std::string &Dir, std::string *Err = nullptr);

  /// Attaches an externally opened store (test seam for custom
  /// StoreOptions). Drops the pool translation table: its epochs are
  /// store-relative.
  void attachStore(std::unique_ptr<Store> S);

  /// The attached store, or nullptr.
  Store *store() { return Backing.get(); }
  const Store *store() const { return Backing.get(); }

  /// Appends every in-memory entry whose bytes are not already the
  /// store's live value for its key (last writer wins per key), then
  /// durably flushes the journal. Entries are transcoded to pool name
  /// mode under the store's flush lock (pool id assignment is race-free
  /// across processes), and the pool additions become durable before any
  /// record referencing them. Returns the number of records appended —
  /// 0 is a successful no-op — or nullopt on I/O failure.
  std::optional<size_t> flushToStore(std::string *Err = nullptr);

  /// Raw-payload probe of the IN-MEMORY map only, no decoding and no
  /// store fall-through. Test/inspection seam.
  std::optional<std::string> lookupPayload(const SummaryKey &K) const;

  /// Inserts a raw payload without validation. Test seam for corruption
  /// coverage; insert() is the production path.
  void insertPayload(const SummaryKey &K, std::string Payload);

  size_t size() const;
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }

  /// Drops every entry (tests use this to model invalidation).
  void clear();

  /// Total serialized-scheme bytes across all entries.
  size_t payloadBytes() const;

private:
  struct Shard {
    mutable std::shared_mutex M;
    std::unordered_map<SummaryKey, std::string, SummaryKeyHash> Entries;
  };

  Shard &shard(const SummaryKey &K) const { return Shards[shardOf(K)]; }

  /// The pool -> interned translation table: PoolBindingView arrays plus
  /// the guards that scope their validity. Immutable once published
  /// (extending builds a successor and swaps the shared_ptr), so probes
  /// decode through a grabbed snapshot with no lock held.
  struct PoolBinding {
    uint64_t Epoch = 0;        ///< Store::poolEpoch at build
    uint64_t SymsUid = 0;      ///< decoded ids belong to this table
    const Lattice *Lat = nullptr;
    std::vector<uint32_t> SymIds;
    std::vector<uint32_t> LatElems; ///< elem + 1; 0 = not a lattice name
  };

  /// Returns a binding current for (store pool, \p Syms, \p Lat),
  /// batch-interning any pool names added since the last build
  /// (EventCounters::PoolBinds per name). Never called while a store
  /// PayloadRef is alive — the build takes the store's shared lock.
  std::shared_ptr<const PoolBinding> poolBindingFor(SymbolTable &Syms,
                                                    const Lattice &Lat) const;

  /// The shared probe shape: the in-memory map (decoding in place under
  /// the shard's shared lock, validating decoders), then the attached
  /// store (trusted decoders zero-copy out of the mapped segment, with
  /// the pool translation table resolving pool-mode names).
  /// \p Count=false skips the Hits/Misses bump (materializeGen's second
  /// half of an already-counted probe).
  template <typename DecodeFn, typename TrustedFn>
  auto probeImpl(const SummaryKey &K, SymbolTable &Syms, const Lattice &Lat,
                 DecodeFn Decode, TrustedFn DecodeTrusted,
                 bool Count = true) const
      -> decltype(Decode(std::string_view()));

  mutable std::array<Shard, kNumShards> Shards;
  mutable std::atomic<uint64_t> Hits{0}, Misses{0};
  std::unique_ptr<Store> Backing;
  mutable std::mutex BindingM; ///< guards the Binding pointer swap
  mutable std::shared_ptr<const PoolBinding> Binding;
};

} // namespace retypd

#endif // RETYPD_CORE_SUMMARYCACHE_H
