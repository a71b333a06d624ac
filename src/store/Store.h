//===- Store.h - Durable multi-process artifact store ---------*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An on-disk, multi-process artifact store for content-addressed binary
/// payloads — the durable backing of core/SummaryCache and the only way a
/// scheme reaches disk. The store is a directory of append-only
/// *journaled segments* plus a generation-numbered MANIFEST, designed so
/// that
///
///  - **appends are incremental**: a run adds only its new payloads, as
///    framed records at the tail of the active segment;
///  - **reads are zero-copy**: segments are memory-mapped, and lookups
///    hand back `string_view`s straight into the mapping — the binary
///    codec (core/SchemeCodec.h) decodes from the mapped bytes without
///    ever copying the payload;
///  - **many processes share one store**: appenders serialize on an
///    advisory file lock (`LOCK`, flock) while readers never take any
///    lock at all. Concurrent appends of one key are resolved
///    last-writer-wins; per-record CRC32C framing means a reader racing
///    an append sees either a whole record or a detectably torn tail;
///  - **corruption is contained per record**: a CRC mismatch skips that
///    record only, a torn/truncated tail is dropped on open and healed
///    (truncated away) by the next locked append, and a crash between
///    compaction's segment write and its MANIFEST rename leaves the
///    previous generation fully intact;
///  - **space is reclaimed explicitly**: `compact()` folds the live
///    record per key into a fresh segment under a new MANIFEST
///    generation and deletes the superseded segments (plus any orphans a
///    killed compaction left behind).
///
/// On-disk layout (`<dir>/`):
///
///   MANIFEST                        retypd-store v1 schema <S>
///                                   generation <G>
///                                   pool <name>           (at most one)
///                                   segment <name>        (one per line;
///                                   ...                    last = active)
///   LOCK                            empty flock target for appenders
///   seg-<gen%06x>-<seq%06x>.rseg    segments: one header line
///                                   ("retypd-segment v1 schema <S>"),
///                                   then records back to back:
///
///   record := kind:u8  key:u64le*2  crc32c:u32le  len:LEB128  body[len]
///
///   pool-<gen%06x>.rpool            the name pool: one header line
///                                   ("retypd-pool v1 schema <S>"), then
///                                   append-only name records back to
///                                   back; a name's pool id is its
///                                   ordinal in the file:
///
///   name := crc32c:u32le  len:u32le  bytes[len]
///
/// The CRC covers kind, key, the LEB length bytes, and the body, so any
/// torn or flipped byte in a record is detected without trusting the
/// record's own framing. `schema` tracks the payload codec version
/// (kSchemePayloadVersion via the owning cache): a store written by an
/// older codec is stale wholesale and is either refused with an
/// actionable message or, when the caller opts in (the analyze path),
/// reinitialized empty.
///
/// The name pool makes payload name resolution a batch operation: pool-
/// mode payloads reference names as u32 ids into the pool, and a reader
/// interns each pool name exactly once per store generation (building an
/// id -> SymbolId translation table) instead of hashing strings out of
/// every payload. Pool ids are assigned under the flush lock and the
/// pool records are fdatasync'd BEFORE any segment record that uses them
/// lands, so a published payload can never reference a name id the pool
/// does not durably hold. Compaction carries the pool verbatim into a
/// generation-stamped successor file before the MANIFEST flips, same
/// crash discipline as segments.
///
/// Thread safety: one `Store` object may be shared by the pipeline's
/// worker threads. Lookups take a shared lock (the returned `PayloadRef`
/// keeps it until destroyed, pinning the mapping); append buffering,
/// flush, refresh, and compaction take the exclusive lock.
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_STORE_STORE_H
#define RETYPD_STORE_STORE_H

#include "support/Hash128.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace retypd {

/// Container-format version of the store directory layout (MANIFEST +
/// segment framing). Distinct from the payload schema version, which the
/// owning cache supplies via StoreOptions.
inline constexpr unsigned kStoreFormatVersion = 1;

struct StoreOptions {
  /// Payload schema stamped into MANIFEST and segment headers. A store
  /// whose schema differs is stale (older) or unusable (newer) wholesale.
  unsigned SchemaVersion = 1;
  /// Appends roll to a fresh segment once the active one exceeds this.
  size_t MaxSegmentBytes = 8u << 20;
  /// fdatasync segment appends and fsync compaction artifacts. Tests
  /// turn this off; the durability claims assume it on.
  bool Fsync = true;
  /// When the directory holds a STALE store (older format or schema),
  /// wipe and reinitialize it instead of failing. The analyze path opts
  /// in — "a stale cache is a cold cache" — while inspect/prune keep it
  /// off so they can report instead of destroy. Newer-than-this-binary
  /// stores are never touched.
  bool RegenerateStale = false;
  /// Structural payload validator, run ONCE per frame-valid record at
  /// segment scan (open/sync) with the payload bytes and the pool size
  /// visible at that point. Records it rejects are not indexed — exactly
  /// like a CRC mismatch, contained per record. With a validator
  /// installed, lookups may decode through the codec's trusted fast path
  /// (no per-probe validation); EventCounters::SegmentValidates counts
  /// the scan-time runs.
  std::function<bool(std::string_view Payload, uint64_t PoolSize)> Validator;
};

/// Per-segment accounting from Store::inspect.
struct StoreSegmentInfo {
  std::string Name;
  size_t FileBytes = 0;
  size_t Records = 0;        ///< frame-complete records (live + dead)
  size_t LiveRecords = 0;    ///< latest record per key
  size_t LiveBytes = 0;      ///< whole-record bytes of live records
  size_t DeadBytes = 0;      ///< superseded + corrupt + torn-tail bytes
  size_t CorruptRecords = 0; ///< frame-complete but CRC-mismatched
};

/// What Store::inspect learned about a store directory.
struct StoreInfo {
  bool Ok = false;
  std::string Error; ///< why not, when !Ok
  bool Stale = false; ///< recognized store, OLDER format/schema
  bool Newer = false; ///< recognized store written by a NEWER binary
  unsigned FormatVersion = 0;
  unsigned SchemaVersion = 0;
  uint64_t Generation = 0;
  size_t KeyCount = 0; ///< distinct live keys across segments
  size_t LiveBytes = 0;
  size_t DeadBytes = 0;
  size_t PoolNames = 0; ///< valid name records in the pool file
  size_t PoolBytes = 0; ///< pool file size on disk
  /// Live records per record kind byte. The kind is the payload's leading
  /// tag byte by convention, which encodes both the payload kind and the
  /// producing solver backend (core/SchemeCodec.h: payloadKindName /
  /// payloadBackend), so `cache inspect` can attribute stored artifacts
  /// per backend without decoding a single body.
  std::map<uint8_t, size_t> LiveKindCounts;
  std::vector<StoreSegmentInfo> Segments;
};

/// One violation found by Store::fsck, localized to the exact file and
/// byte offset of the containing record (or header / torn tail), plus
/// the record's key when its frame was readable.
struct StoreFsckViolation {
  std::string File;    ///< file name within the store directory
  uint64_t Offset = 0; ///< byte offset of the violating record/site
  bool HasKey = false; ///< Key holds the containing record's key
  Hash128 Key{};
  std::string Message;
};

/// What Store::fsck found. `Ok` means the directory was readable as a
/// store of the wanted schema and the full scan ran; `clean()` means Ok
/// with zero violations. A store that cannot even be scanned (missing,
/// foreign, stale, or newer) reports !Ok with Error set.
struct StoreFsckReport {
  bool Ok = false;
  std::string Error;  ///< why the scan could not run, when !Ok
  bool Stale = false; ///< recognized store, OLDER format/schema
  bool Newer = false; ///< recognized store written by a NEWER binary
  uint64_t Generation = 0;
  size_t SegmentsScanned = 0;
  size_t RecordsScanned = 0; ///< frame-complete records across segments
  size_t LiveRecords = 0;    ///< LWW-live among the frame-valid records
  size_t PoolNames = 0;      ///< valid name records in the pool file
  std::vector<StoreFsckViolation> Violations;

  bool clean() const { return Ok && Violations.empty(); }
};

/// Outcome of one Store::compact call.
struct StoreCompactResult {
  uint64_t Generation = 0;   ///< the new MANIFEST generation
  size_t LiveRecords = 0;    ///< records carried into the new segment
  size_t LiveBytes = 0;      ///< payload bytes carried over
  size_t DroppedRecords = 0; ///< superseded/corrupt/filtered records folded
  size_t ReclaimedBytes = 0; ///< directory bytes freed (>= reported dead)
};

/// A durable, multi-process, append-only artifact store.
class Store {
public:
  /// Opens (creating or, with RegenerateStale, reinitializing) the store
  /// in \p Dir. Returns nullptr with \p Err set on unreadable, foreign,
  /// or newer-versioned directories.
  static std::unique_ptr<Store> open(const std::string &Dir,
                                     const StoreOptions &Opts,
                                     std::string *Err = nullptr);
  ~Store();
  Store(const Store &) = delete;
  Store &operator=(const Store &) = delete;

  /// A zero-copy view of one stored payload. Holds the store's shared
  /// lock for its lifetime, pinning the segment mapping the view points
  /// into — decode from it, then drop it before taking other locks.
  class PayloadRef {
  public:
    PayloadRef() = default;
    explicit operator bool() const { return Found; }
    std::string_view view() const { return View; }

  private:
    friend class Store;
    std::shared_lock<std::shared_mutex> Lock;
    std::string_view View;
    bool Found = false;
  };

  /// Looks up the live payload for \p K (last writer wins). The view
  /// points into the mapped segment — no payload bytes are copied; when
  /// a segment could not be memory-mapped the fallback read is counted
  /// on EventCounters::StorePayloadCopies.
  PayloadRef lookup(const Hash128 &K) const;

  /// True when the live payload for \p K equals \p Bytes exactly. The
  /// flush path uses this to skip re-appending unchanged entries.
  bool payloadEquals(const Hash128 &K, std::string_view Bytes) const;

  /// Buffers one record for the next flush(). \p Kind is informational
  /// (by convention the payload's leading tag byte).
  void append(const Hash128 &K, std::string_view Payload, uint8_t Kind = 0);

  size_t pendingRecords() const;

  /// Takes the advisory file lock, absorbs any records other processes
  /// appended since our last sync, heals a torn tail, rolls the segment
  /// if oversized, writes the pending records, and updates the in-memory
  /// index. Counted on EventCounters::StoreAppends per record written.
  bool flush(std::string *Err = nullptr);

  /// The write half of a flushWith() call: a scope in which the caller
  /// builds records against the LOCKED, freshly synced store — so pool
  /// id assignment and duplicate checks are race-free across processes.
  class Txn {
  public:
    /// The pool id for \p Name, assigning the next ordinal on first use.
    /// Ids handed out here become durable before any record appended
    /// through this transaction.
    uint32_t poolIdFor(std::string_view Name);
    /// True when the live payload for \p K equals \p Bytes exactly —
    /// checked against the synced view, so a record another process just
    /// published is seen.
    bool payloadEquals(const Hash128 &K, std::string_view Bytes) const;
    /// Buffers one record for this flush.
    void append(const Hash128 &K, std::string_view Payload, uint8_t Kind = 0);

  private:
    friend class Store;
    explicit Txn(Store &S) : S(S) {}
    Store &S;
  };

  /// Locked flush with a build callback: takes the advisory file lock,
  /// syncs, then runs \p Fill(Txn) to stage records (and pool names),
  /// then writes pool additions — fdatasync'd FIRST — followed by the
  /// segment records. If \p Fill returns false or any write fails, pool
  /// ids assigned by this transaction and records it staged are rolled
  /// back. Records append()ed before the call are flushed too.
  bool flushWith(const std::function<bool(Txn &)> &Fill,
                 std::string *Err = nullptr);

  /// Number of names in the (synced) pool. Ids < poolSize() are valid.
  uint64_t poolSize() const;

  /// Streams pool names with id >= \p From, in id order, under the
  /// store's shared lock. The summary cache batch-extends its pool ->
  /// SymbolTable translation table with this. Do not call with a
  /// PayloadRef alive (both take the same shared mutex).
  void forEachPoolNameFrom(
      uint64_t From,
      const std::function<void(uint64_t Id, std::string_view Name)> &Fn) const;

  /// Bumped whenever a reload replaces pool contents with something that
  /// is NOT a pure extension of what we had (compaction by another
  /// process, wholesale reload). Translation tables built against an
  /// older epoch must be discarded; tables from the same epoch are valid
  /// prefixes and only need extending.
  uint64_t poolEpoch() const;

  /// True when a Validator is installed (every indexed record passed it).
  bool validatesPayloads() const { return static_cast<bool>(Opts.Validator); }

  /// Re-reads MANIFEST and the active segment tail to pick up work other
  /// processes published. Lock-free on disk (readers never block).
  bool refresh(std::string *Err = nullptr);

  /// Folds the live record per key into a fresh segment under generation
  /// + 1, then deletes superseded segments and any orphans of a killed
  /// earlier compaction. Flushes pending appends first. The overload
  /// with \p Keep additionally drops live keys the predicate rejects
  /// (the prune path). Counted on EventCounters::StoreCompactions.
  std::optional<StoreCompactResult> compact(std::string *Err = nullptr);
  std::optional<StoreCompactResult>
  compact(const std::function<bool(const Hash128 &, size_t PayloadBytes)>
              &Keep,
          std::string *Err = nullptr);

  uint64_t generation() const;
  size_t keyCount() const;
  /// Whole-record bytes of live records (the mapped working set).
  size_t liveBytes() const;
  /// (key, payload bytes) of every live record, unordered — the prune
  /// path sizes its victims with this before compacting with a filter.
  std::vector<std::pair<Hash128, size_t>> liveEntries() const;
  const std::string &dir() const { return Dir; }

  /// Reads a store directory's MANIFEST and segments without opening (or
  /// creating, or healing) anything. Stale/newer stores set the matching
  /// flag and an actionable Error.
  static StoreInfo inspect(const std::string &Dir,
                           unsigned SchemaVersion = 0);

  /// Offline fsck over a store directory — the auditor behind
  /// `retypd-cli cache verify`. Opens nothing, heals nothing, writes
  /// nothing; every finding is localized to file + offset (+ record key
  /// where the frame was readable):
  ///
  ///  - MANIFEST cross-references: every named segment/pool file exists
  ///    and carries a well-formed header of the manifest's schema;
  ///    unreferenced `*.rseg`/`*.rpool` files are reported as orphans.
  ///  - Per record: CRC32C over the whole frame, the kind-byte/payload
  ///    tag convention, and (when \p ValidatePayload is supplied — pass
  ///    the owning cache's structural validator) payload validation
  ///    against the pool size, which covers pool-id referential
  ///    integrity. Torn tails are reported at their exact offset.
  ///  - The pool file: per-name CRC walk distinguishing a corrupt record
  ///    (every later pool id is invalidated) from a torn tail.
  ///  - LWW liveness: fsck's own last-writer-wins accounting is
  ///    reconciled against inspect() — key count, per-segment live
  ///    records, live/dead bytes must agree.
  static StoreFsckReport
  fsck(const std::string &Dir, unsigned SchemaVersion = 0,
       const std::function<bool(std::string_view Payload, uint64_t PoolSize)>
           &ValidatePayload = {});

  /// True when \p Path is an empty directory (a leftover LOCK file is
  /// tolerated) — the state a `--store` path is in before the first
  /// analyze. The CLI reports such directories as a clean empty
  /// store instead of an error, and must NOT initialize them: a read
  /// verb against a mistyped path should leave no files behind.
  static bool isUninitializedDir(const std::string &Path);

private:
  struct Segment;
  struct Loc {
    uint32_t Seg = 0;
    uint64_t BodyOff = 0;
    uint32_t BodyLen = 0;
  };

  Store(std::string Dir, StoreOptions Opts);
  bool initializeLocked(std::string *Err);
  bool loadViewLocked(std::string *Err);
  bool syncLocked(std::string *Err);
  bool scanSegmentTail(size_t SegIdx, std::string *Err);
  bool remapSegment(Segment &S, std::string *Err);
  bool loadPoolLocked(const std::string &Name, std::string *Err);
  bool flushLocked(const std::function<bool(Txn &)> *Fill, std::string *Err);
  bool writePoolAdditionsLocked(size_t FromId, std::string *Err);
  bool writePendingLocked(std::string *Err);
  bool payloadEqualsLocked(const Hash128 &K, std::string_view Bytes) const;
  uint32_t poolIdForLocked(std::string_view Name);
  void appendLocked(const Hash128 &K, std::string_view Payload, uint8_t Kind);
  std::optional<StoreCompactResult>
  compactImpl(const std::function<bool(const Hash128 &, size_t)> *Keep,
              std::string *Err);

  std::string Dir;
  StoreOptions Opts;

  mutable std::shared_mutex M;
  uint64_t Generation = 0;
  std::vector<Segment> Segments;
  std::unordered_map<Hash128, Loc, Hash128Hasher> Index;
  bool ReadOnly = false;

  /// The name pool, mirrored from the pool file. PoolNames[id] holds the
  /// bytes; PoolIds is the reverse map (owning keys — PoolNames entries
  /// can move when the vector grows, so views into them are not stable).
  std::vector<std::string> PoolNames;
  std::unordered_map<std::string, uint32_t> PoolIds;
  std::string PoolName;     ///< pool file name from MANIFEST ("" = none)
  size_t PoolValidEnd = 0;  ///< byte offset scanned so far in pool file
  uint64_t PoolEpoch = 0;   ///< bumped on non-extension reloads
  size_t PoolSynced = 0;    ///< names that exist durably in the file

  std::string PendingBytes; ///< serialized records awaiting flush
  struct PendingRec {
    Hash128 Key;
    size_t BodyOff = 0; ///< into PendingBytes
    uint32_t BodyLen = 0;
  };
  std::vector<PendingRec> Pending;
};

} // namespace retypd

#endif // RETYPD_STORE_STORE_H
