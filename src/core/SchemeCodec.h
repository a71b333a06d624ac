//===- SchemeCodec.h - Binary type-scheme codec + structural hash -*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The binary data plane for type schemes. Three related facilities, all
/// operating on the *interned structural form* of a scheme rather than its
/// rendered text:
///
///  1. A fixed-layout binary codec (payload schema v3 of the summary cache
///     format). Payloads are offset-based records — flat u32/u64 arrays at
///     computable offsets, read in place through alignment-safe accessors
///     (support/Endian.h) — so the mmapped store bytes ARE the runtime
///     representation: no varint parsing, no per-element bounds dance.
///     Structural validation (validatePayload) is a separate single pass
///     that checks every count, offset table, and index range against the
///     payload length; the artifact store runs it once per record at
///     segment-open, after which probes use the *Trusted decoders that
///     read the arrays straight off the mapping.
///
///     Names are referenced by dense index. A payload carries them in one
///     of two modes (byte 1 of the header): INLINE — a payload-local
///     offset table plus blob, self-contained across processes — or POOL —
///     u32 ids into the store's persistent name pool, resolved through a
///     per-store translation table (PoolBindingView) that is batch-built
///     once instead of hashing strings per payload. Bodies reference names
///     only by index, so the store can transcode inline payloads to pool
///     mode (transcodeNamesToPool) without understanding the body.
///
///  2. 128-bit structural hashes (support/Hash128.h) over the canonical
///     view of a constraint set / scheme. These hash *names and packed
///     labels*, never symbol ids, so they are stable across processes —
///     they key the summary cache and drive the session's scheme-change
///     early cutoff without materializing canonical text.
///
///  3. The legacy line-oriented text serialization (serializeSchemeText /
///     parseSchemeText). Kept as the human-readable reference format: the
///     codec property tests prove encode/decode agrees with it
///     semantically. The warm analysis path never touches it.
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_CORE_SCHEMECODEC_H
#define RETYPD_CORE_SCHEMECODEC_H

#include "core/BackendKind.h"
#include "core/ConstraintSet.h"
#include "core/Sketch.h"
#include "support/Hash128.h"

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace retypd {

/// Version tag of the binary payload layout. The low bits of the first
/// payload byte, and the store MANIFEST's schema version. v3 is the
/// fixed-layout offset format; v2 (LEB128 streams) payloads are refused.
inline constexpr unsigned kSchemePayloadVersion = 3;

/// Bit 4 of the payload tag byte marks scheme and sketch-bundle payloads
/// produced by the BinSub backend (core/BinSub.h). Generation results are
/// backend-independent (they precede the solver) and never carry the bit.
/// The bit rides the payload's leading byte into the store's record kind
/// (Store::append copies byte 0 by convention), so `cache inspect` can
/// attribute stored artifacts to their backend without decoding bodies.
inline constexpr uint8_t kPayloadBackendBit = 0x10;

/// Which backend produced a payload whose leading tag byte is \p Tag.
inline BackendKind payloadBackend(uint8_t Tag) {
  return (Tag & kPayloadBackendBit) ? BackendKind::BinSub
                                    : BackendKind::Retypd;
}

/// Human-readable payload kind ("scheme", "gen", "sketches") for a tag
/// byte, or nullptr if the tag is not a known v3 payload kind. Backend
/// bit is masked before matching.
const char *payloadKindName(uint8_t Tag);

/// Translation tables from a store name-pool id to this process's interned
/// representation. Built once per (store generation, symbol table) by the
/// summary cache; pool-mode payloads resolve every name through these two
/// arrays — zero string hashing on the probe path.
struct PoolBindingView {
  /// Pool id -> SymbolId (every pool name is interned at bind time).
  const uint32_t *SymIds = nullptr;
  /// Pool id -> LatticeElem + 1, or 0 when the name is not a lattice
  /// element (so rank-1 bases resolve without a by-name lattice lookup).
  const uint32_t *LatElems = nullptr;
  size_t Size = 0;
};

/// Structurally validates a payload of any kind (scheme, gen result,
/// sketch bundle) against the v3 layout: header, name section, every
/// count, offset table monotonicity, index ranges, label raws, and that
/// the sections exactly tile the payload length. Pool-mode name ids must
/// be < \p PoolSize. Semantic checks that depend on the session (unknown
/// lattice constant names) are NOT covered — the trusted decoders still
/// reject those. A payload accepted here is safe to hand to the matching
/// *Trusted decoder: no read it performs can leave the payload.
bool validatePayload(std::string_view Payload, uint64_t PoolSize);

/// Encodes \p Scheme into the self-contained (inline-name-mode) binary
/// payload format. The scheme's constraint order is preserved verbatim
/// (canonicalize before encoding; decode then reproduces the canonical
/// set exactly, order included). \p Backend stamps kPayloadBackendBit
/// into the tag byte for non-retypd producers; the body layout is
/// backend-independent.
std::string encodeScheme(const TypeScheme &Scheme, const SymbolTable &Syms,
                         const Lattice &Lat,
                         BackendKind Backend = BackendKind::Retypd);

/// Decodes a payload produced by encodeScheme, interning names into
/// \p Syms. Validates first: returns nullopt on any corruption; never
/// throws, never reads out of bounds. Rejects pool-mode payloads (they
/// only exist inside a store, whose cache probes use the trusted path).
std::optional<TypeScheme> decodeScheme(std::string_view Payload,
                                       SymbolTable &Syms, const Lattice &Lat);

/// Decodes a scheme payload that already passed validatePayload (e.g. at
/// segment-open). Skips structural validation; still returns nullopt on
/// lattice-constant names unknown to \p Lat. \p Pool is required for
/// pool-mode payloads and ignored for inline ones.
std::optional<TypeScheme>
decodeSchemeTrusted(std::string_view Payload, SymbolTable &Syms,
                    const Lattice &Lat,
                    const PoolBindingView *Pool = nullptr);

/// Streams the structural content of \p C — canonical order, names and
/// packed labels only — into \p H. Stable across symbol tables and
/// processes.
void hashConstraintSet(Fnv128 &H, const ConstraintSet &C,
                       const SymbolTable &Syms, const Lattice &Lat);

/// One-shot structural hash of a constraint set (any order: hashes the
/// canonical view, deriving sort keys and checking order).
Hash128 constraintSetHash(const ConstraintSet &C, const SymbolTable &Syms,
                          const Lattice &Lat);

/// Structural hash of a set whose stored order is ALREADY canonical
/// (i.e. canonicalize() just ran or the set round-tripped the codec).
/// Identical value to constraintSetHash, without re-deriving sort keys —
/// the hot path hashes each SCC right after canonicalizing it.
Hash128 canonicalSetHash(const ConstraintSet &C, const SymbolTable &Syms,
                         const Lattice &Lat);

/// Structural hash of a whole scheme (procedure name, existentials in
/// order, constraints in canonical order). Replaces textual scheme
/// comparison in the session's incremental early cutoff.
Hash128 schemeStructuralHash(const TypeScheme &Scheme, const SymbolTable &Syms,
                             const Lattice &Lat);

/// A decoded generation-result payload: one SCC's merged, *already
/// canonicalized* constraint set (order preserved verbatim by the codec),
/// its structural hash (computed at encode time, so replay skips both the
/// canonical sort and the rehash), the interesting variables, and the
/// callsite instance variables the generation walk interned. This is the
/// third payload kind of the summary cache (after schemes and sketch
/// bundles): replaying one skips the whole abstract-interpretation walk —
/// and the merge/canonicalize/hash that follows it — for an SCC whose
/// dependency set is unchanged.
struct DecodedGenResult {
  ConstraintSet C;
  /// canonicalSetHash(C) as computed when the payload was encoded. A
  /// corrupted stored hash cannot make results wrong — it only misdirects
  /// downstream scheme/solution cache probes into recomputing.
  Hash128 SetHash;
  std::vector<TypeVariable> Interesting;
  std::vector<TypeVariable> Callsites;
};

/// The cheap prefix of a generation-result payload: everything a fully
/// warm run needs — the set hash (keys the scheme cache), the interesting
/// and callsite variables, and the constraint count — WITHOUT
/// materializing the ConstraintSet itself. When every downstream probe
/// hits, the constraints are never needed; the session only materializes
/// them (via a full lookupGen) for SCCs whose scheme or solution cache
/// misses.
struct GenResultMeta {
  Hash128 SetHash;
  std::vector<TypeVariable> Interesting;
  std::vector<TypeVariable> Callsites;
  /// Total constraints in the encoded set (subtype + var + addsub) —
  /// drives Report.ConstraintsGenerated and the phase-2 empty-SCC gate.
  uint64_t ConstraintCount = 0;
};

/// Encodes a generation result (inline name mode; same header discipline
/// as scheme payloads, a distinct first byte separates the kinds). \p C
/// must already be canonical and \p SetHash its canonicalSetHash.
/// \p Interesting may arrive in any order — it is sorted by name
/// internally so identical results encode to identical bytes;
/// \p Callsites order (generation order) is preserved.
std::string encodeGenResult(const ConstraintSet &C, const Hash128 &SetHash,
                            const std::vector<TypeVariable> &Interesting,
                            const std::vector<TypeVariable> &Callsites,
                            const SymbolTable &Syms, const Lattice &Lat);

/// Decodes a generation-result payload, interning names into \p Syms.
/// Validates first; returns nullopt on any corruption. Inline mode only.
std::optional<DecodedGenResult> decodeGenResult(std::string_view Payload,
                                                SymbolTable &Syms,
                                                const Lattice &Lat);

/// Trusted-path variant (payload already validated; \p Pool required for
/// pool mode).
std::optional<DecodedGenResult>
decodeGenResultTrusted(std::string_view Payload, SymbolTable &Syms,
                       const Lattice &Lat,
                       const PoolBindingView *Pool = nullptr);

/// Decodes only the meta prefix of a (validated) generation-result
/// payload — no ConstraintSet materialization, no DTV table walk.
std::optional<GenResultMeta>
decodeGenResultMetaTrusted(std::string_view Payload, SymbolTable &Syms,
                           const Lattice &Lat,
                           const PoolBindingView *Pool = nullptr);

/// One (type variable, sketch) binding of a cached solver solution.
using SketchBinding = std::pair<TypeVariable, Sketch>;

/// Encodes a solver solution — the raw sketches for a solve's wanted
/// variables — as a binary bundle (inline name mode; variable and lattice
/// names pooled once; sketch nodes as flat columnar arrays with labels as
/// their packed u64). The first payload byte distinguishes bundles from
/// scheme payloads, so a key mixup decodes to a clean rejection rather
/// than garbage.
std::string
encodeSketchBundle(const std::vector<std::pair<TypeVariable, const Sketch *>>
                       &Entries,
                   const SymbolTable &Syms, const Lattice &Lat,
                   BackendKind Backend = BackendKind::Retypd);

/// Decodes a sketch bundle, interning variable names into \p Syms and
/// resolving lattice marks by name. Validates first; returns nullopt on
/// any corruption or on marks unknown to \p Lat. Inline mode only.
std::optional<std::vector<SketchBinding>>
decodeSketchBundle(std::string_view Payload, SymbolTable &Syms,
                   const Lattice &Lat);

/// Trusted-path variant (payload already validated; \p Pool required for
/// pool mode).
std::optional<std::vector<SketchBinding>>
decodeSketchBundleTrusted(std::string_view Payload, SymbolTable &Syms,
                          const Lattice &Lat,
                          const PoolBindingView *Pool = nullptr);

/// Rewrites a *valid, inline-mode* payload of any kind into pool name
/// mode: the name section becomes u32 pool ids obtained from \p PoolIdFor
/// (one call per distinct name) and the body is copied verbatim. The
/// artifact store calls this under its flush lock so pool id assignment
/// is race-free across processes. Returns nullopt if the payload is not
/// a valid inline-mode payload.
std::optional<std::string> transcodeNamesToPool(
    std::string_view Payload,
    const std::function<uint32_t(std::string_view)> &PoolIdFor);

/// Legacy text serialization ("proc F\nexistentials ...\n<constraints>").
std::string serializeSchemeText(const TypeScheme &Scheme,
                                const SymbolTable &Syms, const Lattice &Lat);

/// Parses the legacy text serialization (uses ConstraintParser). Test and
/// migration reference only — the warm path decodes binary payloads.
std::optional<TypeScheme> parseSchemeText(const std::string &Text,
                                          SymbolTable &Syms,
                                          const Lattice &Lat);

} // namespace retypd

#endif // RETYPD_CORE_SCHEMECODEC_H
