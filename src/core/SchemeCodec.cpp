//===- SchemeCodec.cpp - Binary type-scheme codec + structural hash -------===//

#include "core/SchemeCodec.h"

#include "core/ConstraintParser.h"
#include "support/Endian.h"
#include "support/Stats.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <vector>

using namespace retypd;

//===----------------------------------------------------------------------===//
// Payload geometry
//===----------------------------------------------------------------------===//
//
// Every payload kind shares a 12-byte header and a name section:
//
//   off 0   u8   kind tag (version in low bits: 0x03 scheme, 0x43 gen
//                result, 0x83 sketch bundle)
//   off 1   u8   name mode: 0 = inline, 1 = pool
//   off 2   u16  zero padding
//   off 4   u32  name count
//   off 8   u32  body offset
//
//   INLINE names: u32 off[nameCount+1] (relative to the blob, off[0]=0,
//   nondecreasing), then the blob itself; bodyOff points just past it.
//   POOL names: u32 poolId[nameCount]; bodyOff = 12 + 4*nameCount.
//
// Bodies reference names only by dense index, so the two modes differ in
// the name section alone — transcodeNamesToPool swaps the section and
// copies the body verbatim. All multi-byte fields are little-endian and
// read through support/Endian.h (mmapped payloads sit at arbitrary byte
// offsets inside a segment; no in-place field is assumed aligned).
// Section sizes are fully determined by the header and the body's leading
// count words, and validation requires them to tile the payload length
// exactly — truncation and trailing garbage are both structural errors.

namespace {

constexpr uint8_t kSchemeTag = static_cast<uint8_t>(kSchemePayloadVersion);
constexpr uint8_t kGenResultTag = 0x40 | kSchemePayloadVersion;
constexpr uint8_t kSketchBundleTag = 0x80 | kSchemePayloadVersion;

/// Tag with the payload-kind bits only — the backend marker (bit 4) is
/// orthogonal to the layout, so validation and decoding mask it off.
/// Generation results are encoded before any backend runs and never carry
/// the bit; their validator/decoders compare the raw tag.
uint8_t baseTag(uint8_t Tag) { return Tag & ~kPayloadBackendBit; }

uint8_t backendTag(uint8_t Kind, BackendKind Backend) {
  return Backend == BackendKind::Retypd
             ? Kind
             : static_cast<uint8_t>(Kind | kPayloadBackendBit);
}

constexpr uint8_t kNameModeInline = 0;
constexpr uint8_t kNameModePool = 1;
constexpr size_t kHeaderBytes = 12;

/// Header + name-section geometry. parseLayout validates the geometry
/// (offsets within bounds); name *contents* are validated separately.
struct Layout {
  uint8_t Tag = 0;
  uint8_t Mode = 0;
  uint32_t NameCount = 0;
  size_t NameTable = kHeaderBytes; ///< off[] (inline) or poolId[] (pool)
  size_t Blob = 0;                 ///< inline only: start of the name blob
  size_t BodyOff = 0;
};

bool parseLayout(std::string_view P, Layout &L) {
  if (P.size() < kHeaderBytes)
    return false;
  const char *D = P.data();
  L.Tag = static_cast<uint8_t>(D[0]);
  L.Mode = static_cast<uint8_t>(D[1]);
  if (L.Mode > kNameModePool || loadLE16(D + 2) != 0)
    return false;
  L.NameCount = loadLE32(D + 4);
  L.BodyOff = loadLE32(D + 8);
  uint64_t N = L.NameCount;
  if (L.Mode == kNameModePool) {
    uint64_t Want = kHeaderBytes + 4 * N;
    if (L.BodyOff != Want || Want > P.size())
      return false;
  } else {
    uint64_t TabEnd = kHeaderBytes + 4 * (N + 1);
    if (TabEnd > P.size() || L.BodyOff > P.size() || L.BodyOff < TabEnd)
      return false;
    L.Blob = static_cast<size_t>(TabEnd);
  }
  return true;
}

/// Validates name-section contents: inline offset-table shape, or pool ids
/// within the store's pool.
bool validateNames(std::string_view P, const Layout &L, uint64_t PoolSize) {
  const char *D = P.data();
  if (L.Mode == kNameModePool) {
    for (uint32_t I = 0; I < L.NameCount; ++I)
      if (loadLE32(D + L.NameTable + 4 * size_t(I)) >= PoolSize)
        return false;
    return true;
  }
  uint64_t BlobLen = L.BodyOff - L.Blob;
  if (loadLE32(D + L.NameTable) != 0)
    return false;
  uint32_t Prev = 0;
  for (uint32_t I = 1; I <= L.NameCount; ++I) {
    uint32_t V = loadLE32(D + L.NameTable + 4 * size_t(I));
    if (V < Prev)
      return false;
    Prev = V;
  }
  return Prev == BlobLen;
}

/// A label raw value is trusted only if repacking its fields reproduces it
/// exactly — this rejects both out-of-range kinds and stray bits that the
/// factories can never produce.
bool validLabelRaw(uint64_t Raw) {
  uint64_t Kind = Raw >> 48;
  if (Kind > static_cast<uint64_t>(Label::Kind::Field))
    return false;
  Label L = Label::fromRaw(Raw);
  switch (L.kind()) {
  case Label::Kind::In:
    return Label::in(static_cast<uint32_t>(Raw & 0xffffffffu)).raw() == Raw;
  case Label::Kind::Out:
    return Label::out(static_cast<uint32_t>(Raw & 0xffffffffu)).raw() == Raw;
  case Label::Kind::Load:
    return Label::load().raw() == Raw;
  case Label::Kind::Store:
    return Label::store().raw() == Raw;
  case Label::Kind::Field:
    return Label::field(static_cast<uint16_t>((Raw >> 32) & 0xffff),
                        static_cast<int32_t>(Raw & 0xffffffffu))
               .raw() == Raw;
  }
  return false;
}

/// Geometry of a DTV table (shared by scheme and gen bodies): a columnar
/// (rank u8, nameIdx u32, labelStart u32 prefix sums, labelRaw u64) block.
struct DtvGeom {
  size_t Rank = 0, NameIx = 0, LStart = 0, LRaw = 0;
  uint64_t Total = 0; ///< labelStart[Count] — total label words
  uint64_t End = 0;   ///< first byte past the label array
};

/// Computes DTV-table geometry starting at \p Off. Returns false if even
/// the labelStart array would run past the payload (Total unreadable).
bool dtvGeom(std::string_view P, uint64_t Off, uint32_t Count, DtvGeom &G) {
  G.Rank = static_cast<size_t>(Off);
  uint64_t NameIx = Off + Count;
  uint64_t LStart = NameIx + 4 * uint64_t(Count);
  uint64_t LStartEnd = LStart + 4 * (uint64_t(Count) + 1);
  if (LStartEnd > P.size())
    return false;
  G.NameIx = static_cast<size_t>(NameIx);
  G.LStart = static_cast<size_t>(LStart);
  G.LRaw = static_cast<size_t>(LStartEnd);
  G.Total = loadLE32(P.data() + LStart + 4 * size_t(Count));
  G.End = LStartEnd + 8 * G.Total;
  return true;
}

/// Per-element validation of a DTV table whose geometry checked out.
bool validateDtvTable(std::string_view P, const DtvGeom &G, uint32_t Count,
                      uint32_t NameCount) {
  const char *D = P.data();
  uint32_t Prev = 0;
  if (loadLE32(D + G.LStart) != 0)
    return false;
  for (uint32_t I = 0; I < Count; ++I) {
    uint8_t Rank = static_cast<uint8_t>(D[G.Rank + I]);
    uint32_t Ix = loadLE32(D + G.NameIx + 4 * size_t(I));
    if (Rank > 2 || (Rank == 0 ? Ix != 0 : Ix >= NameCount))
      return false;
    uint32_t V = loadLE32(D + G.LStart + 4 * size_t(I) + 4);
    if (V < Prev)
      return false;
    Prev = V;
  }
  for (uint64_t J = 0; J < G.Total; ++J)
    if (!validLabelRaw(loadLE64(D + G.LRaw + 8 * size_t(J))))
      return false;
  return true;
}

/// Validates a u32 index array: \p Count entries at \p Off, each < Limit.
bool validateIndexArray(std::string_view P, size_t Off, uint64_t Count,
                        uint32_t Limit) {
  for (uint64_t I = 0; I < Count; ++I)
    if (loadLE32(P.data() + Off + 4 * size_t(I)) >= Limit)
      return false;
  return true;
}

bool validateScheme(std::string_view P, const Layout &L) {
  if (uint64_t(L.BodyOff) + 24 > P.size())
    return false;
  const char *D = P.data();
  uint64_t B = L.BodyOff;
  uint32_t DtvCount = loadLE32(D + B), SubCount = loadLE32(D + B + 4),
           VarCount = loadLE32(D + B + 8), AddSubCount = loadLE32(D + B + 12),
           ExistCount = loadLE32(D + B + 16), ProcIdx = loadLE32(D + B + 20);
  DtvGeom G;
  if (!dtvGeom(P, B + 24, DtvCount, G))
    return false;
  uint64_t Exist = G.End;
  uint64_t Subs = Exist + 4 * uint64_t(ExistCount);
  uint64_t Vars = Subs + 8 * uint64_t(SubCount);
  uint64_t Adds = Vars + 4 * uint64_t(VarCount);
  uint64_t End = Adds + 16 * uint64_t(AddSubCount);
  if (End != P.size())
    return false;
  if (ProcIdx >= L.NameCount)
    return false;
  if (!validateDtvTable(P, G, DtvCount, L.NameCount))
    return false;
  if (!validateIndexArray(P, size_t(Exist), ExistCount, L.NameCount) ||
      !validateIndexArray(P, size_t(Subs), 2 * uint64_t(SubCount), DtvCount) ||
      !validateIndexArray(P, size_t(Vars), VarCount, DtvCount))
    return false;
  for (uint32_t I = 0; I < AddSubCount; ++I) {
    size_t A = size_t(Adds) + 16 * size_t(I);
    if (loadLE32(D + A) > 1 || loadLE32(D + A + 4) >= DtvCount ||
        loadLE32(D + A + 8) >= DtvCount || loadLE32(D + A + 12) >= DtvCount)
      return false;
  }
  return true;
}

bool validateGenResult(std::string_view P, const Layout &L) {
  if (uint64_t(L.BodyOff) + 40 > P.size())
    return false;
  const char *D = P.data();
  uint64_t B = L.BodyOff;
  uint32_t IntCount = loadLE32(D + B + 16), CallCount = loadLE32(D + B + 20),
           DtvCount = loadLE32(D + B + 24), SubCount = loadLE32(D + B + 28),
           VarCount = loadLE32(D + B + 32), AddSubCount = loadLE32(D + B + 36);
  uint64_t Int = B + 40;
  uint64_t Call = Int + 4 * uint64_t(IntCount);
  uint64_t Dtv = Call + 4 * uint64_t(CallCount);
  DtvGeom G;
  if (!dtvGeom(P, Dtv, DtvCount, G))
    return false;
  uint64_t Subs = G.End;
  uint64_t Vars = Subs + 8 * uint64_t(SubCount);
  uint64_t Adds = Vars + 4 * uint64_t(VarCount);
  uint64_t End = Adds + 16 * uint64_t(AddSubCount);
  if (End != P.size())
    return false;
  if (!validateIndexArray(P, size_t(Int), IntCount, L.NameCount) ||
      !validateIndexArray(P, size_t(Call), CallCount, L.NameCount))
    return false;
  if (!validateDtvTable(P, G, DtvCount, L.NameCount))
    return false;
  if (!validateIndexArray(P, size_t(Subs), 2 * uint64_t(SubCount), DtvCount) ||
      !validateIndexArray(P, size_t(Vars), VarCount, DtvCount))
    return false;
  for (uint32_t I = 0; I < AddSubCount; ++I) {
    size_t A = size_t(Adds) + 16 * size_t(I);
    if (loadLE32(D + A) > 1 || loadLE32(D + A + 4) >= DtvCount ||
        loadLE32(D + A + 8) >= DtvCount || loadLE32(D + A + 12) >= DtvCount)
      return false;
  }
  return true;
}

/// Columnar bundle-body offsets, derived from the four leading counts.
struct BundleGeom {
  uint32_t EntryCount = 0, NodeCount = 0, ConflictCount = 0, ChildCount = 0;
  size_t EntryVar = 0, EntryNodeStart = 0, Mark = 0, Lower = 0, Upper = 0,
         Flags = 0, ConflictStart = 0, ChildStart = 0, Conflicts = 0,
         ChildLabel = 0, ChildTo = 0;
  uint64_t End = 0;
};

bool bundleGeom(std::string_view P, uint64_t B, BundleGeom &G) {
  if (B + 16 > P.size())
    return false;
  const char *D = P.data();
  G.EntryCount = loadLE32(D + B);
  G.NodeCount = loadLE32(D + B + 4);
  G.ConflictCount = loadLE32(D + B + 8);
  G.ChildCount = loadLE32(D + B + 12);
  uint64_t Off = B + 16;
  auto Take = [&Off](uint64_t Bytes) {
    uint64_t At = Off;
    Off += Bytes;
    return At;
  };
  uint64_t EC = G.EntryCount, NC = G.NodeCount;
  G.EntryVar = static_cast<size_t>(Take(4 * EC));
  G.EntryNodeStart = static_cast<size_t>(Take(4 * (EC + 1)));
  G.Mark = static_cast<size_t>(Take(4 * NC));
  G.Lower = static_cast<size_t>(Take(4 * NC));
  G.Upper = static_cast<size_t>(Take(4 * NC));
  G.Flags = static_cast<size_t>(Take(NC));
  G.ConflictStart = static_cast<size_t>(Take(4 * (NC + 1)));
  G.ChildStart = static_cast<size_t>(Take(4 * (NC + 1)));
  G.Conflicts = static_cast<size_t>(Take(4 * uint64_t(G.ConflictCount)));
  G.ChildLabel = static_cast<size_t>(Take(8 * uint64_t(G.ChildCount)));
  G.ChildTo = static_cast<size_t>(Take(4 * uint64_t(G.ChildCount)));
  G.End = Off;
  return G.End == P.size();
}

/// Validates a u32 prefix-sum array: Count+1 entries at \p Off, starting
/// at 0, nondecreasing (or strictly increasing), ending at \p Want.
bool validatePrefixSums(std::string_view P, size_t Off, uint32_t Count,
                        uint32_t Want, bool Strict) {
  const char *D = P.data();
  if (loadLE32(D + Off) != 0)
    return false;
  uint32_t Prev = 0;
  for (uint32_t I = 1; I <= Count; ++I) {
    uint32_t V = loadLE32(D + Off + 4 * size_t(I));
    if (Strict ? V <= Prev : V < Prev)
      return false;
    Prev = V;
  }
  return Prev == Want;
}

bool validateSketchBundle(std::string_view P, const Layout &L) {
  BundleGeom G;
  if (!bundleGeom(P, L.BodyOff, G))
    return false;
  const char *D = P.data();
  if (!validateIndexArray(P, G.EntryVar, G.EntryCount, L.NameCount))
    return false;
  // Every entry owns at least one node (its root) — strictly increasing.
  if (!validatePrefixSums(P, G.EntryNodeStart, G.EntryCount, G.NodeCount,
                          /*Strict=*/true))
    return false;
  if (!validateIndexArray(P, G.Mark, G.NodeCount, L.NameCount) ||
      !validateIndexArray(P, G.Lower, G.NodeCount, L.NameCount) ||
      !validateIndexArray(P, G.Upper, G.NodeCount, L.NameCount))
    return false;
  for (uint32_t I = 0; I < G.NodeCount; ++I)
    if (static_cast<uint8_t>(D[G.Flags + I]) > 3)
      return false;
  if (!validatePrefixSums(P, G.ConflictStart, G.NodeCount, G.ConflictCount,
                          /*Strict=*/false) ||
      !validatePrefixSums(P, G.ChildStart, G.NodeCount, G.ChildCount,
                          /*Strict=*/false))
    return false;
  if (!validateIndexArray(P, G.Conflicts, G.ConflictCount, L.NameCount))
    return false;
  for (uint32_t I = 0; I < G.ChildCount; ++I)
    if (!validLabelRaw(loadLE64(D + G.ChildLabel + 8 * size_t(I))))
      return false;
  // Child targets are node ids local to their entry's sketch.
  for (uint32_t E = 0; E < G.EntryCount; ++E) {
    uint32_t N0 = loadLE32(D + G.EntryNodeStart + 4 * size_t(E));
    uint32_t N1 = loadLE32(D + G.EntryNodeStart + 4 * size_t(E) + 4);
    uint32_t EntryNodes = N1 - N0;
    uint32_t C0 = loadLE32(D + G.ChildStart + 4 * size_t(N0));
    uint32_t C1 = loadLE32(D + G.ChildStart + 4 * size_t(N1));
    for (uint32_t C = C0; C < C1; ++C)
      if (loadLE32(D + G.ChildTo + 4 * size_t(C)) >= EntryNodes)
        return false;
  }
  return true;
}

} // namespace

bool retypd::validatePayload(std::string_view Payload, uint64_t PoolSize) {
  Layout L;
  if (!parseLayout(Payload, L) || !validateNames(Payload, L, PoolSize))
    return false;
  switch (baseTag(L.Tag)) {
  case kSchemeTag:
    return validateScheme(Payload, L);
  case kGenResultTag:
    // Gen results precede the solver; a backend-marked gen tag is corrupt.
    return L.Tag == kGenResultTag && validateGenResult(Payload, L);
  case kSketchBundleTag:
    return validateSketchBundle(Payload, L);
  default:
    return false;
  }
}

const char *retypd::payloadKindName(uint8_t Tag) {
  switch (baseTag(Tag)) {
  case kSchemeTag:
    return "scheme";
  case kGenResultTag:
    return "gen";
  case kSketchBundleTag:
    return "sketches";
  default:
    return nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Name resolution (shared by the trusted decoders)
//===----------------------------------------------------------------------===//

namespace {

/// Resolves payload name indices to interned symbols / lattice elements.
/// Inline mode interns each distinct name once (lazily, like the v2
/// decoder); pool mode is two array loads through the store's translation
/// table — no string hashing at all.
class NameCtx {
public:
  NameCtx(std::string_view P, const Layout &L, SymbolTable &Syms,
          const Lattice &Lat, const PoolBindingView *Pool)
      : P(P), L(L), Syms(Syms), Lat(Lat), Pool(Pool) {
    if (L.Mode == kNameModeInline) {
      SymCache.assign(L.NameCount, kUnset);
      LatCache.assign(L.NameCount, 0);
      LatResolved.assign(L.NameCount, 0);
    }
  }

  /// False when a pool-mode payload arrives without a binding.
  bool ok() const { return L.Mode == kNameModeInline || Pool != nullptr; }

  std::string_view view(uint32_t I) const {
    size_t A = loadLE32(P.data() + L.NameTable + 4 * size_t(I));
    size_t B = loadLE32(P.data() + L.NameTable + 4 * size_t(I) + 4);
    return P.substr(L.Blob + A, B - A);
  }

  bool sym(uint32_t I, SymbolId &Out) {
    if (L.Mode == kNameModePool) {
      uint32_t Id = loadLE32(P.data() + L.NameTable + 4 * size_t(I));
      if (Id >= Pool->Size)
        return false;
      Out = Pool->SymIds[Id];
      return true;
    }
    SymbolId &C = SymCache[I];
    if (C == kUnset)
      C = Syms.intern(view(I));
    Out = C;
    return true;
  }

  bool lat(uint32_t I, LatticeElem &Out) {
    if (L.Mode == kNameModePool) {
      uint32_t Id = loadLE32(P.data() + L.NameTable + 4 * size_t(I));
      if (Id >= Pool->Size || Pool->LatElems[Id] == 0)
        return false;
      Out = Pool->LatElems[Id] - 1;
      return true;
    }
    if (!LatResolved[I]) {
      auto E = Lat.lookup(view(I));
      LatCache[I] = E ? *E + 1 : 0;
      LatResolved[I] = 1;
    }
    if (LatCache[I] == 0)
      return false;
    Out = LatCache[I] - 1;
    return true;
  }

private:
  static constexpr SymbolId kUnset = static_cast<SymbolId>(-1);
  std::string_view P;
  const Layout &L;
  SymbolTable &Syms;
  const Lattice &Lat;
  const PoolBindingView *Pool;
  std::vector<SymbolId> SymCache;
  std::vector<uint32_t> LatCache;
  std::vector<char> LatResolved;
};

/// Materializes the DTV array of a validated scheme/gen body.
bool decodeDtvs(std::string_view P, const DtvGeom &G, uint32_t Count,
                NameCtx &N, std::vector<DerivedTypeVariable> &Out) {
  const char *D = P.data();
  Out.reserve(Count);
  for (uint32_t I = 0; I < Count; ++I) {
    uint8_t Rank = static_cast<uint8_t>(D[G.Rank + I]);
    TypeVariable Base;
    if (Rank == 1) {
      LatticeElem E;
      if (!N.lat(loadLE32(D + G.NameIx + 4 * size_t(I)), E))
        return false;
      Base = TypeVariable::constant(E);
    } else if (Rank == 2) {
      SymbolId S;
      if (!N.sym(loadLE32(D + G.NameIx + 4 * size_t(I)), S))
        return false;
      Base = TypeVariable::var(S);
    }
    uint32_t A = loadLE32(D + G.LStart + 4 * size_t(I));
    uint32_t B = loadLE32(D + G.LStart + 4 * size_t(I) + 4);
    std::vector<Label> Word;
    Word.reserve(B - A);
    for (uint32_t J = A; J < B; ++J)
      Word.push_back(Label::fromRaw(loadLE64(D + G.LRaw + 8 * size_t(J))));
    Out.emplace_back(Base, std::move(Word));
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Encoding
//===----------------------------------------------------------------------===//

namespace {

/// Payload-local interner: names and DTVs become dense indices in
/// first-use order.
class Encoder {
public:
  Encoder(const SymbolTable &Syms, const Lattice &Lat)
      : Syms(Syms), Lat(Lat) {}

  uint32_t nameIdx(const std::string &Name) {
    auto [It, Inserted] = NameIds.try_emplace(Name, Names.size());
    if (Inserted)
      Names.push_back(&It->first);
    return static_cast<uint32_t>(It->second);
  }

  uint32_t dtvIdx(const DerivedTypeVariable &V) {
    auto [It, Inserted] = DtvIds.try_emplace(V, Dtvs.size());
    if (Inserted)
      Dtvs.push_back(&It->first);
    return static_cast<uint32_t>(It->second);
  }

  /// Resolves a DTV base to (rank, name index). Rank 0 (invalid) carries
  /// no name — its index field encodes as 0.
  std::pair<uint8_t, uint32_t> baseOf(const DerivedTypeVariable &V) {
    TypeVariable B = V.base();
    if (B.isConstant())
      return {1, nameIdx(Lat.name(B.latticeElem()))};
    if (B.isVar())
      return {2, nameIdx(Syms.name(B.symbol()))};
    return {0, 0};
  }

  const std::vector<const std::string *> &names() const { return Names; }
  const std::vector<const DerivedTypeVariable *> &dtvs() const {
    return Dtvs;
  }

private:
  const SymbolTable &Syms;
  const Lattice &Lat;
  std::vector<const std::string *> Names;
  std::unordered_map<std::string, uint64_t> NameIds;
  std::vector<const DerivedTypeVariable *> Dtvs;
  std::unordered_map<DerivedTypeVariable, uint64_t> DtvIds;
};

/// Assembles header + inline name section + body into the final payload.
std::string assembleInline(uint8_t Tag,
                           const std::vector<const std::string *> &Names,
                           std::string_view Body) {
  uint64_t BlobLen = 0;
  for (const std::string *N : Names)
    BlobLen += N->size();
  uint64_t BodyOff = kHeaderBytes + 4 * (uint64_t(Names.size()) + 1) + BlobLen;
  std::string Out;
  Out.reserve(static_cast<size_t>(BodyOff) + Body.size());
  Out.push_back(static_cast<char>(Tag));
  Out.push_back(static_cast<char>(kNameModeInline));
  Out.push_back(0);
  Out.push_back(0);
  appendLE32(Out, static_cast<uint32_t>(Names.size()));
  appendLE32(Out, static_cast<uint32_t>(BodyOff));
  uint32_t Off = 0;
  for (const std::string *N : Names) {
    appendLE32(Out, Off);
    Off += static_cast<uint32_t>(N->size());
  }
  appendLE32(Out, Off);
  for (const std::string *N : Names)
    Out.append(*N);
  Out.append(Body);
  return Out;
}

/// Serializes a columnar DTV table (the encoder's DTV list, in id order).
void encodeDtvTable(std::string &Body, Encoder &Enc) {
  const auto &Dtvs = Enc.dtvs();
  std::string NameIx, LStart, LRaw;
  uint32_t Labels = 0;
  for (const DerivedTypeVariable *V : Dtvs) {
    auto [Rank, Idx] = Enc.baseOf(*V);
    Body.push_back(static_cast<char>(Rank));
    appendLE32(NameIx, Idx);
    appendLE32(LStart, Labels);
    Labels += static_cast<uint32_t>(V->size());
    for (Label L : V->labels())
      appendLE64(LRaw, L.raw());
  }
  appendLE32(LStart, Labels);
  Body += NameIx;
  Body += LStart;
  Body += LRaw;
}

/// Serializes the constraint index arrays (subs, vars, addsubs).
void encodeConstraintArrays(std::string &Body, Encoder &Enc,
                            const ConstraintSet &C) {
  for (const SubtypeConstraint &SC : C.subtypes()) {
    appendLE32(Body, Enc.dtvIdx(SC.Lhs));
    appendLE32(Body, Enc.dtvIdx(SC.Rhs));
  }
  for (const DerivedTypeVariable &V : C.vars())
    appendLE32(Body, Enc.dtvIdx(V));
  for (const AddSubConstraint &AC : C.addSubs()) {
    appendLE32(Body, AC.IsSub ? 1 : 0);
    appendLE32(Body, Enc.dtvIdx(AC.X));
    appendLE32(Body, Enc.dtvIdx(AC.Y));
    appendLE32(Body, Enc.dtvIdx(AC.Z));
  }
}

/// Assigns DTV ids (and the names their bases pull in) in constraint
/// order, so identical sets encode to identical bytes.
void noteDtvs(Encoder &Enc, const ConstraintSet &C) {
  for (const SubtypeConstraint &SC : C.subtypes()) {
    Enc.dtvIdx(SC.Lhs);
    Enc.dtvIdx(SC.Rhs);
  }
  for (const DerivedTypeVariable &V : C.vars())
    Enc.dtvIdx(V);
  for (const AddSubConstraint &AC : C.addSubs()) {
    Enc.dtvIdx(AC.X);
    Enc.dtvIdx(AC.Y);
    Enc.dtvIdx(AC.Z);
  }
}

} // namespace

std::string retypd::encodeScheme(const TypeScheme &Scheme,
                                 const SymbolTable &Syms, const Lattice &Lat,
                                 BackendKind Backend) {
  countEvent(Counter::SchemeEncodes);
  Encoder Enc(Syms, Lat);
  const ConstraintSet &C = Scheme.Constraints;
  noteDtvs(Enc, C);

  std::string Body;
  appendLE32(Body, static_cast<uint32_t>(Enc.dtvs().size()));
  appendLE32(Body, static_cast<uint32_t>(C.subtypes().size()));
  appendLE32(Body, static_cast<uint32_t>(C.vars().size()));
  appendLE32(Body, static_cast<uint32_t>(C.addSubs().size()));
  appendLE32(Body, static_cast<uint32_t>(Scheme.Existentials.size()));
  encodeDtvTable(Body, Enc);
  // Proc/existential names are assigned after the DTV bases, matching the
  // id-assignment order of the v2 codec; the proc index lives in the
  // fixed count block, so patch it in after assignment.
  uint32_t ProcIdx = Enc.nameIdx(Syms.name(Scheme.ProcVar.symbol()));
  std::string Tail;
  for (TypeVariable V : Scheme.Existentials)
    appendLE32(Tail, Enc.nameIdx(Syms.name(V.symbol())));
  encodeConstraintArrays(Tail, Enc, C);

  std::string Full;
  Full.reserve(Body.size() + Tail.size() + 4);
  Full.append(Body, 0, 20);
  appendLE32(Full, ProcIdx);
  Full.append(Body, 20, Body.size() - 20);
  Full += Tail;
  return assembleInline(backendTag(kSchemeTag, Backend), Enc.names(), Full);
}

namespace {

std::optional<TypeScheme> decodeSchemeImpl(std::string_view P,
                                           SymbolTable &Syms,
                                           const Lattice &Lat,
                                           const PoolBindingView *Pool) {
  Layout L;
  if (!parseLayout(P, L) || baseTag(L.Tag) != kSchemeTag)
    return std::nullopt;
  NameCtx N(P, L, Syms, Lat, Pool);
  if (!N.ok())
    return std::nullopt;
  const char *D = P.data();
  size_t B = L.BodyOff;
  uint32_t DtvCount = loadLE32(D + B), SubCount = loadLE32(D + B + 4),
           VarCount = loadLE32(D + B + 8), AddSubCount = loadLE32(D + B + 12),
           ExistCount = loadLE32(D + B + 16), ProcIdx = loadLE32(D + B + 20);
  DtvGeom G;
  if (!dtvGeom(P, B + 24, DtvCount, G))
    return std::nullopt;
  std::vector<DerivedTypeVariable> Dtvs;
  if (!decodeDtvs(P, G, DtvCount, N, Dtvs))
    return std::nullopt;

  TypeScheme Scheme;
  SymbolId ProcSym;
  if (!N.sym(ProcIdx, ProcSym))
    return std::nullopt;
  Scheme.ProcVar = TypeVariable::var(ProcSym);
  size_t Exist = static_cast<size_t>(G.End);
  for (uint32_t I = 0; I < ExistCount; ++I) {
    SymbolId S;
    if (!N.sym(loadLE32(D + Exist + 4 * size_t(I)), S))
      return std::nullopt;
    Scheme.Existentials.push_back(TypeVariable::var(S));
  }
  size_t Subs = Exist + 4 * size_t(ExistCount);
  for (uint32_t I = 0; I < SubCount; ++I) {
    uint32_t Lh = loadLE32(D + Subs + 8 * size_t(I));
    uint32_t Rh = loadLE32(D + Subs + 8 * size_t(I) + 4);
    Scheme.Constraints.addSubtype(Dtvs[Lh], Dtvs[Rh]);
  }
  size_t Vars = Subs + 8 * size_t(SubCount);
  for (uint32_t I = 0; I < VarCount; ++I)
    Scheme.Constraints.addVar(Dtvs[loadLE32(D + Vars + 4 * size_t(I))]);
  size_t Adds = Vars + 4 * size_t(VarCount);
  for (uint32_t I = 0; I < AddSubCount; ++I) {
    size_t A = Adds + 16 * size_t(I);
    AddSubConstraint AC;
    AC.IsSub = loadLE32(D + A) != 0;
    AC.X = Dtvs[loadLE32(D + A + 4)];
    AC.Y = Dtvs[loadLE32(D + A + 8)];
    AC.Z = Dtvs[loadLE32(D + A + 12)];
    Scheme.Constraints.addAddSub(AC);
  }
  return Scheme;
}

} // namespace

std::optional<TypeScheme> retypd::decodeScheme(std::string_view Payload,
                                               SymbolTable &Syms,
                                               const Lattice &Lat) {
  countEvent(Counter::SchemeDecodes);
  if (!validatePayload(Payload, 0))
    return std::nullopt;
  return decodeSchemeImpl(Payload, Syms, Lat, nullptr);
}

std::optional<TypeScheme>
retypd::decodeSchemeTrusted(std::string_view Payload, SymbolTable &Syms,
                            const Lattice &Lat, const PoolBindingView *Pool) {
  countEvent(Counter::SchemeDecodes);
  return decodeSchemeImpl(Payload, Syms, Lat, Pool);
}

//===----------------------------------------------------------------------===//
// Generation-result payloads (cached ConstraintGen output)
//===----------------------------------------------------------------------===//

std::string retypd::encodeGenResult(const ConstraintSet &C,
                                    const Hash128 &SetHash,
                                    const std::vector<TypeVariable>
                                        &Interesting,
                                    const std::vector<TypeVariable> &Callsites,
                                    const SymbolTable &Syms,
                                    const Lattice &Lat) {
  countEvent(Counter::SchemeEncodes);
  Encoder Enc(Syms, Lat);
  noteDtvs(Enc, C);

  std::string Body;
  appendLE64(Body, SetHash.Hi);
  appendLE64(Body, SetHash.Lo);
  appendLE32(Body, static_cast<uint32_t>(Interesting.size()));
  appendLE32(Body, static_cast<uint32_t>(Callsites.size()));
  appendLE32(Body, static_cast<uint32_t>(Enc.dtvs().size()));
  appendLE32(Body, static_cast<uint32_t>(C.subtypes().size()));
  appendLE32(Body, static_cast<uint32_t>(C.vars().size()));
  appendLE32(Body, static_cast<uint32_t>(C.addSubs().size()));

  // The interesting/callsite arrays precede the DTV table, but their
  // names must be ASSIGNED after the DTV bases to keep the v2 codec's
  // deterministic id order — build the DTV table into a side buffer
  // first, then emit the arrays, then splice.
  std::string DtvTable;
  encodeDtvTable(DtvTable, Enc);

  // Interesting is an unordered set at the producer: sort by name so
  // identical generation results encode to identical payload bytes.
  std::vector<const std::string *> InterestingNames;
  InterestingNames.reserve(Interesting.size());
  for (TypeVariable V : Interesting)
    InterestingNames.push_back(&Syms.name(V.symbol()));
  std::sort(InterestingNames.begin(), InterestingNames.end(),
            [](const std::string *A, const std::string *B) { return *A < *B; });
  for (const std::string *N : InterestingNames)
    appendLE32(Body, Enc.nameIdx(*N));
  for (TypeVariable V : Callsites)
    appendLE32(Body, Enc.nameIdx(Syms.name(V.symbol())));

  Body += DtvTable;
  encodeConstraintArrays(Body, Enc, C);
  return assembleInline(kGenResultTag, Enc.names(), Body);
}

namespace {

/// Shared geometry walk for the full and meta gen decoders.
struct GenGeom {
  uint32_t IntCount, CallCount, DtvCount, SubCount, VarCount, AddSubCount;
  size_t Int, Call;
  DtvGeom Dtv;
  Hash128 SetHash;
};

bool genGeom(std::string_view P, const Layout &L, GenGeom &G) {
  const char *D = P.data();
  size_t B = L.BodyOff;
  G.SetHash.Hi = loadLE64(D + B);
  G.SetHash.Lo = loadLE64(D + B + 8);
  G.IntCount = loadLE32(D + B + 16);
  G.CallCount = loadLE32(D + B + 20);
  G.DtvCount = loadLE32(D + B + 24);
  G.SubCount = loadLE32(D + B + 28);
  G.VarCount = loadLE32(D + B + 32);
  G.AddSubCount = loadLE32(D + B + 36);
  G.Int = B + 40;
  G.Call = G.Int + 4 * size_t(G.IntCount);
  return dtvGeom(P, G.Call + 4 * size_t(G.CallCount), G.DtvCount, G.Dtv);
}

bool decodeVarList(std::string_view P, size_t Off, uint32_t Count, NameCtx &N,
                   std::vector<TypeVariable> &Out) {
  Out.reserve(Count);
  for (uint32_t I = 0; I < Count; ++I) {
    SymbolId S;
    if (!N.sym(loadLE32(P.data() + Off + 4 * size_t(I)), S))
      return false;
    Out.push_back(TypeVariable::var(S));
  }
  return true;
}

std::optional<DecodedGenResult>
decodeGenResultImpl(std::string_view P, SymbolTable &Syms, const Lattice &Lat,
                    const PoolBindingView *Pool) {
  Layout L;
  if (!parseLayout(P, L) || L.Tag != kGenResultTag)
    return std::nullopt;
  NameCtx N(P, L, Syms, Lat, Pool);
  if (!N.ok())
    return std::nullopt;
  GenGeom G;
  if (!genGeom(P, L, G))
    return std::nullopt;

  DecodedGenResult Out;
  Out.SetHash = G.SetHash;
  if (!decodeVarList(P, G.Int, G.IntCount, N, Out.Interesting) ||
      !decodeVarList(P, G.Call, G.CallCount, N, Out.Callsites))
    return std::nullopt;

  std::vector<DerivedTypeVariable> Dtvs;
  if (!decodeDtvs(P, G.Dtv, G.DtvCount, N, Dtvs))
    return std::nullopt;

  // The payload encodes an already-deduplicated set, so the trusted
  // appends skip the dedup-index hashing entirely — this is the hot loop
  // of a warm run's generate phase.
  const char *D = P.data();
  size_t Subs = static_cast<size_t>(G.Dtv.End);
  Out.C.reserve(G.SubCount, G.VarCount, G.AddSubCount);
  for (uint32_t I = 0; I < G.SubCount; ++I) {
    uint32_t Lh = loadLE32(D + Subs + 8 * size_t(I));
    uint32_t Rh = loadLE32(D + Subs + 8 * size_t(I) + 4);
    Out.C.appendSubtypeTrusted(Dtvs[Lh], Dtvs[Rh]);
  }
  size_t Vars = Subs + 8 * size_t(G.SubCount);
  for (uint32_t I = 0; I < G.VarCount; ++I)
    Out.C.appendVarTrusted(Dtvs[loadLE32(D + Vars + 4 * size_t(I))]);
  size_t Adds = Vars + 4 * size_t(G.VarCount);
  for (uint32_t I = 0; I < G.AddSubCount; ++I) {
    size_t A = Adds + 16 * size_t(I);
    AddSubConstraint AC;
    AC.IsSub = loadLE32(D + A) != 0;
    AC.X = Dtvs[loadLE32(D + A + 4)];
    AC.Y = Dtvs[loadLE32(D + A + 8)];
    AC.Z = Dtvs[loadLE32(D + A + 12)];
    Out.C.addAddSub(AC);
  }
  return Out;
}

} // namespace

std::optional<DecodedGenResult>
retypd::decodeGenResult(std::string_view Payload, SymbolTable &Syms,
                        const Lattice &Lat) {
  countEvent(Counter::SchemeDecodes);
  if (!validatePayload(Payload, 0))
    return std::nullopt;
  return decodeGenResultImpl(Payload, Syms, Lat, nullptr);
}

std::optional<DecodedGenResult>
retypd::decodeGenResultTrusted(std::string_view Payload, SymbolTable &Syms,
                               const Lattice &Lat,
                               const PoolBindingView *Pool) {
  countEvent(Counter::SchemeDecodes);
  return decodeGenResultImpl(Payload, Syms, Lat, Pool);
}

std::optional<GenResultMeta>
retypd::decodeGenResultMetaTrusted(std::string_view Payload, SymbolTable &Syms,
                                   const Lattice &Lat,
                                   const PoolBindingView *Pool) {
  countEvent(Counter::SchemeDecodes);
  Layout L;
  if (!parseLayout(Payload, L) || L.Tag != kGenResultTag)
    return std::nullopt;
  NameCtx N(Payload, L, Syms, Lat, Pool);
  if (!N.ok())
    return std::nullopt;
  const char *D = Payload.data();
  size_t B = L.BodyOff;
  GenResultMeta Out;
  Out.SetHash.Hi = loadLE64(D + B);
  Out.SetHash.Lo = loadLE64(D + B + 8);
  uint32_t IntCount = loadLE32(D + B + 16), CallCount = loadLE32(D + B + 20);
  Out.ConstraintCount = uint64_t(loadLE32(D + B + 28)) +
                        loadLE32(D + B + 32) + loadLE32(D + B + 36);
  size_t Int = B + 40;
  size_t Call = Int + 4 * size_t(IntCount);
  if (!decodeVarList(Payload, Int, IntCount, N, Out.Interesting) ||
      !decodeVarList(Payload, Call, CallCount, N, Out.Callsites))
    return std::nullopt;
  return Out;
}

//===----------------------------------------------------------------------===//
// Sketch bundles (cached solver solutions)
//===----------------------------------------------------------------------===//

std::string retypd::encodeSketchBundle(
    const std::vector<std::pair<TypeVariable, const Sketch *>> &Entries,
    const SymbolTable &Syms, const Lattice &Lat, BackendKind Backend) {
  countEvent(Counter::SchemeEncodes);
  std::vector<const std::string *> Names;
  std::unordered_map<std::string, uint64_t> NameIds;
  auto nameIdx = [&](const std::string &N) -> uint32_t {
    auto [It, Inserted] = NameIds.try_emplace(N, Names.size());
    if (Inserted)
      Names.push_back(&It->first);
    return static_cast<uint32_t>(It->second);
  };

  // Column buffers: one walk over the entries fills them all, assigning
  // names in deterministic first-use order.
  std::string EntryVar, EntryNodeStart, Mark, Lower, Upper, Flags,
      ConflictStart, ChildStart, Conflicts, ChildLabel, ChildTo;
  uint32_t Nodes = 0, NConflicts = 0, NChildren = 0;
  for (const auto &[Var, Sk] : Entries) {
    appendLE32(EntryVar, nameIdx(Syms.name(Var.symbol())));
    appendLE32(EntryNodeStart, Nodes);
    Nodes += Sk->size();
    for (uint32_t N = 0; N < Sk->size(); ++N) {
      const Sketch::Node &Node = Sk->node(N);
      appendLE32(Mark, nameIdx(Lat.name(Node.Mark)));
      appendLE32(Lower, nameIdx(Lat.name(Node.Lower)));
      appendLE32(Upper, nameIdx(Lat.name(Node.Upper)));
      Flags.push_back(static_cast<char>((Node.PointerLike ? 1 : 0) |
                                        (Node.IntegerLike ? 2 : 0)));
      appendLE32(ConflictStart, NConflicts);
      NConflicts += static_cast<uint32_t>(Node.Conflicts.size());
      for (LatticeElem E : Node.Conflicts)
        appendLE32(Conflicts, nameIdx(Lat.name(E)));
      appendLE32(ChildStart, NChildren);
      NChildren += static_cast<uint32_t>(Node.Children.size());
      for (const auto &[L, To] : Node.Children) {
        appendLE64(ChildLabel, L.raw());
        appendLE32(ChildTo, To);
      }
    }
  }
  appendLE32(EntryNodeStart, Nodes);
  appendLE32(ConflictStart, NConflicts);
  appendLE32(ChildStart, NChildren);

  std::string Body;
  appendLE32(Body, static_cast<uint32_t>(Entries.size()));
  appendLE32(Body, Nodes);
  appendLE32(Body, NConflicts);
  appendLE32(Body, NChildren);
  Body += EntryVar;
  Body += EntryNodeStart;
  Body += Mark;
  Body += Lower;
  Body += Upper;
  Body += Flags;
  Body += ConflictStart;
  Body += ChildStart;
  Body += Conflicts;
  Body += ChildLabel;
  Body += ChildTo;
  return assembleInline(backendTag(kSketchBundleTag, Backend), Names, Body);
}

namespace {

std::optional<std::vector<SketchBinding>>
decodeSketchBundleImpl(std::string_view P, SymbolTable &Syms,
                       const Lattice &Lat, const PoolBindingView *Pool) {
  Layout L;
  if (!parseLayout(P, L) || baseTag(L.Tag) != kSketchBundleTag)
    return std::nullopt;
  NameCtx N(P, L, Syms, Lat, Pool);
  if (!N.ok())
    return std::nullopt;
  BundleGeom G;
  if (!bundleGeom(P, L.BodyOff, G))
    return std::nullopt;
  const char *D = P.data();

  std::vector<SketchBinding> Out;
  Out.reserve(G.EntryCount);
  for (uint32_t E = 0; E < G.EntryCount; ++E) {
    SymbolId VarSym;
    if (!N.sym(loadLE32(D + G.EntryVar + 4 * size_t(E)), VarSym))
      return std::nullopt;
    uint32_t N0 = loadLE32(D + G.EntryNodeStart + 4 * size_t(E));
    uint32_t N1 = loadLE32(D + G.EntryNodeStart + 4 * size_t(E) + 4);
    Sketch Sk;
    for (uint32_t NI = N0; NI < N1; ++NI) {
      uint32_t Id = NI == N0 ? Sk.root() : Sk.addNode();
      Sketch::Node &Node = Sk.node(Id);
      LatticeElem Mark, Lower, Upper;
      if (!N.lat(loadLE32(D + G.Mark + 4 * size_t(NI)), Mark) ||
          !N.lat(loadLE32(D + G.Lower + 4 * size_t(NI)), Lower) ||
          !N.lat(loadLE32(D + G.Upper + 4 * size_t(NI)), Upper))
        return std::nullopt;
      Node.Mark = Mark;
      Node.Lower = Lower;
      Node.Upper = Upper;
      uint8_t F = static_cast<uint8_t>(D[G.Flags + NI]);
      Node.PointerLike = (F & 1) != 0;
      Node.IntegerLike = (F & 2) != 0;
      uint32_t C0 = loadLE32(D + G.ConflictStart + 4 * size_t(NI));
      uint32_t C1 = loadLE32(D + G.ConflictStart + 4 * size_t(NI) + 4);
      Node.Conflicts.reserve(C1 - C0);
      for (uint32_t C = C0; C < C1; ++C) {
        LatticeElem El;
        if (!N.lat(loadLE32(D + G.Conflicts + 4 * size_t(C)), El))
          return std::nullopt;
        Node.Conflicts.push_back(El);
      }
      uint32_t K0 = loadLE32(D + G.ChildStart + 4 * size_t(NI));
      uint32_t K1 = loadLE32(D + G.ChildStart + 4 * size_t(NI) + 4);
      for (uint32_t K = K0; K < K1; ++K) {
        Label Lb = Label::fromRaw(loadLE64(D + G.ChildLabel + 8 * size_t(K)));
        Node.Children[Lb] = loadLE32(D + G.ChildTo + 4 * size_t(K));
      }
    }
    Out.emplace_back(TypeVariable::var(VarSym), std::move(Sk));
  }
  return Out;
}

} // namespace

std::optional<std::vector<SketchBinding>>
retypd::decodeSketchBundle(std::string_view Payload, SymbolTable &Syms,
                           const Lattice &Lat) {
  countEvent(Counter::SchemeDecodes);
  if (!validatePayload(Payload, 0))
    return std::nullopt;
  return decodeSketchBundleImpl(Payload, Syms, Lat, nullptr);
}

std::optional<std::vector<SketchBinding>>
retypd::decodeSketchBundleTrusted(std::string_view Payload, SymbolTable &Syms,
                                  const Lattice &Lat,
                                  const PoolBindingView *Pool) {
  countEvent(Counter::SchemeDecodes);
  return decodeSketchBundleImpl(Payload, Syms, Lat, Pool);
}

//===----------------------------------------------------------------------===//
// Inline -> pool transcoding
//===----------------------------------------------------------------------===//

std::optional<std::string> retypd::transcodeNamesToPool(
    std::string_view Payload,
    const std::function<uint32_t(std::string_view)> &PoolIdFor) {
  Layout L;
  if (!parseLayout(Payload, L) || L.Mode != kNameModeInline ||
      !validatePayload(Payload, 0))
    return std::nullopt;
  const char *D = Payload.data();
  uint64_t NewBodyOff = kHeaderBytes + 4 * uint64_t(L.NameCount);
  std::string Out;
  Out.reserve(static_cast<size_t>(NewBodyOff) +
              (Payload.size() - L.BodyOff));
  Out.push_back(static_cast<char>(L.Tag));
  Out.push_back(static_cast<char>(kNameModePool));
  Out.push_back(0);
  Out.push_back(0);
  appendLE32(Out, L.NameCount);
  appendLE32(Out, static_cast<uint32_t>(NewBodyOff));
  for (uint32_t I = 0; I < L.NameCount; ++I) {
    size_t A = loadLE32(D + L.NameTable + 4 * size_t(I));
    size_t B = loadLE32(D + L.NameTable + 4 * size_t(I) + 4);
    appendLE32(Out, PoolIdFor(Payload.substr(L.Blob + A, B - A)));
  }
  Out.append(Payload.substr(L.BodyOff));
  return Out;
}

//===----------------------------------------------------------------------===//
// Structural hashing
//===----------------------------------------------------------------------===//

namespace {

void hashDtv(Fnv128 &H, const DerivedTypeVariable &V, const SymbolTable &Syms,
             const Lattice &Lat) {
  TypeVariable B = V.base();
  if (B.isConstant()) {
    H.updateByte(1);
    H.update(Lat.name(B.latticeElem()));
  } else if (B.isVar()) {
    H.updateByte(2);
    H.update(Syms.name(B.symbol()));
  } else {
    H.updateByte(0);
  }
  H.sep();
  H.updateU64(V.size());
  for (Label L : V.labels())
    H.updateU64(L.raw());
}

/// Streams one canonical view. Both hash entry points funnel here so the
/// presorted and sorting variants can never diverge.
void hashView(Fnv128 &H, const ConstraintSet::CanonicalView &View,
              const SymbolTable &Syms, const Lattice &Lat) {
  H.updateU64(View.Subs.size());
  for (const SubtypeConstraint *S : View.Subs) {
    H.updateByte('S');
    hashDtv(H, S->Lhs, Syms, Lat);
    hashDtv(H, S->Rhs, Syms, Lat);
  }
  H.updateU64(View.Vars.size());
  for (const DerivedTypeVariable *V : View.Vars) {
    H.updateByte('V');
    hashDtv(H, *V, Syms, Lat);
  }
  H.updateU64(View.AddSubs.size());
  for (const AddSubConstraint *A : View.AddSubs) {
    H.updateByte(A->IsSub ? 's' : 'a');
    hashDtv(H, A->X, Syms, Lat);
    hashDtv(H, A->Y, Syms, Lat);
    hashDtv(H, A->Z, Syms, Lat);
  }
}

/// The stored order as a view — only valid as a *canonical* view when the
/// caller guarantees the set was canonicalized.
ConstraintSet::CanonicalView storedOrderView(const ConstraintSet &C) {
  ConstraintSet::CanonicalView V;
  V.Subs.reserve(C.subtypes().size());
  for (const SubtypeConstraint &S : C.subtypes())
    V.Subs.push_back(&S);
  V.Vars.reserve(C.vars().size());
  for (const DerivedTypeVariable &D : C.vars())
    V.Vars.push_back(&D);
  V.AddSubs.reserve(C.addSubs().size());
  for (const AddSubConstraint &A : C.addSubs())
    V.AddSubs.push_back(&A);
  return V;
}

} // namespace

void retypd::hashConstraintSet(Fnv128 &H, const ConstraintSet &C,
                               const SymbolTable &Syms, const Lattice &Lat) {
  hashView(H, C.canonicalView(Syms, Lat), Syms, Lat);
}

Hash128 retypd::constraintSetHash(const ConstraintSet &C,
                                  const SymbolTable &Syms,
                                  const Lattice &Lat) {
  Fnv128 H;
  H.update("retypd-cset-v1");
  H.sep();
  hashConstraintSet(H, C, Syms, Lat);
  return H.digest();
}

Hash128 retypd::canonicalSetHash(const ConstraintSet &C,
                                 const SymbolTable &Syms,
                                 const Lattice &Lat) {
  Fnv128 H;
  H.update("retypd-cset-v1");
  H.sep();
  hashView(H, storedOrderView(C), Syms, Lat);
  return H.digest();
}

Hash128 retypd::schemeStructuralHash(const TypeScheme &Scheme,
                                     const SymbolTable &Syms,
                                     const Lattice &Lat) {
  Fnv128 H;
  H.update("retypd-scheme-v1");
  H.sep();
  H.update(Syms.name(Scheme.ProcVar.symbol()));
  H.sep();
  H.updateU64(Scheme.Existentials.size());
  for (TypeVariable V : Scheme.Existentials) {
    H.update(Syms.name(V.symbol()));
    H.sep();
  }
  hashConstraintSet(H, Scheme.Constraints, Syms, Lat);
  return H.digest();
}

//===----------------------------------------------------------------------===//
// Legacy text serialization (reference format; tests only)
//===----------------------------------------------------------------------===//

std::string retypd::serializeSchemeText(const TypeScheme &Scheme,
                                        const SymbolTable &Syms,
                                        const Lattice &Lat) {
  std::string S = "proc " + Syms.name(Scheme.ProcVar.symbol()) + "\n";
  S += "existentials";
  for (TypeVariable V : Scheme.Existentials) {
    S += ' ';
    S += Syms.name(V.symbol());
  }
  S += '\n';
  S += Scheme.Constraints.str(Syms, Lat);
  return S;
}

std::optional<TypeScheme> retypd::parseSchemeText(const std::string &Text,
                                                  SymbolTable &Syms,
                                                  const Lattice &Lat) {
  std::istringstream In(Text);
  std::string Line;
  TypeScheme Scheme;
  if (!std::getline(In, Line) || Line.rfind("proc ", 0) != 0)
    return std::nullopt;
  Scheme.ProcVar = TypeVariable::var(Syms.intern(Line.substr(5)));
  if (!std::getline(In, Line) || Line.rfind("existentials", 0) != 0)
    return std::nullopt;
  {
    std::istringstream Ex(Line.substr(12));
    std::string Name;
    while (Ex >> Name)
      Scheme.Existentials.push_back(TypeVariable::var(Syms.intern(Name)));
  }
  std::string Rest((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  ConstraintParser Parser(Syms, Lat);
  auto C = Parser.parse(Rest);
  if (!C)
    return std::nullopt;
  Scheme.Constraints = std::move(*C);
  return Scheme;
}
