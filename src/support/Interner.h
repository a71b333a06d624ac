//===- Interner.h - Arena-backed uniquing of DTV components ---*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Arena-backed interners for the constraint-graph kernel. A
/// DerivedTypeVariable is a base variable plus a heap-allocated word of
/// labels; comparing or hashing one is O(word length). The constraint graph
/// uniques each (base, word) pair once and thereafter names it by a dense
/// 32-bit DtvId: graph nodes store only that id, and their base and labels
/// are read back through DtvInterner::base()/labels() (spans into the
/// owner's arena, valid while that arena lives; the constraint graph passes
/// its per-graph arena).
///
/// Every table here is probe-only: ids are dense and assigned in first-seen
/// order, nothing is ever iterated in hash order, so any computation driven
/// by the ids is deterministic given the input order. The lookup tables
/// are flat open-addressing arrays (DenseIdIndex) — no node or bucket
/// allocation per entry.
///
/// The interners are deliberately NOT thread safe: each ConstraintGraph owns
/// its own instances and graphs are never shared across pipeline tasks.
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_SUPPORT_INTERNER_H
#define RETYPD_SUPPORT_INTERNER_H

#include "core/DerivedTypeVariable.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <span>
#include <vector>

namespace retypd {

/// 64-bit finalizer (splitmix64) for integer keys of the flat tables.
inline uint64_t mixHash(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X;
}

/// Flat open-addressing index from a key's 64-bit hash to its dense id.
/// The owner keeps the keys (indexed by id) and resolves hash collisions
/// with the \p Matches callback. Linear probing over a power-of-two slot
/// array, at most half full.
class DenseIdIndex {
public:
  static constexpr uint32_t NoId = 0xffffffffu;

  /// The id whose key \p Matches accepts among entries hashed to \p Hash,
  /// or NoId.
  template <typename MatchFn>
  uint32_t find(uint64_t Hash, MatchFn &&Matches) const {
    if (Slots.empty())
      return NoId;
    const size_t Mask = Slots.size() - 1;
    for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (S.Id == NoId)
        return NoId;
      if (S.Hash == Hash && Matches(S.Id))
        return S.Id;
    }
  }

  /// Records \p Id under \p Hash. The caller has checked it is absent.
  void insert(uint64_t Hash, uint32_t Id) {
    if (2 * (Count + 1) > Slots.size())
      grow();
    place(Hash, Id);
    ++Count;
  }

private:
  struct Slot {
    uint64_t Hash = 0;
    uint32_t Id = NoId;
  };

  void place(uint64_t Hash, uint32_t Id) {
    const size_t Mask = Slots.size() - 1;
    size_t I = Hash & Mask;
    while (Slots[I].Id != NoId)
      I = (I + 1) & Mask;
    Slots[I] = Slot{Hash, Id};
  }

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 16 : 2 * Old.size(), Slot{});
    for (const Slot &S : Old)
      if (S.Id != NoId)
        place(S.Hash, S.Id);
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
};

/// Dense id of an interned label word.
using WordId = uint32_t;

/// Uniques label words (the w of αw). Id 0 is always the empty word. Word
/// storage comes from \p Arena, which must outlive the interner.
class WordInterner {
public:
  static constexpr WordId NoWord = 0xffffffffu;

  explicit WordInterner(std::pmr::memory_resource &Arena) : Arena(Arena) {
    Words.push_back({});
  }

  WordId intern(std::span<const Label> W) {
    if (W.empty())
      return 0;
    const uint64_t H = hashWord(W);
    WordId Id =
        Index.find(H, [&](uint32_t Cand) { return equals(Words[Cand], W); });
    if (Id != DenseIdIndex::NoId)
      return Id;
    Id = static_cast<WordId>(Words.size());
    auto *Copy = static_cast<Label *>(
        Arena.allocate(W.size() * sizeof(Label), alignof(Label)));
    std::copy(W.begin(), W.end(), Copy);
    Words.emplace_back(Copy, W.size());
    Index.insert(H, Id);
    return Id;
  }

  /// Lookup without interning; NoWord when the word was never seen.
  WordId find(std::span<const Label> W) const {
    if (W.empty())
      return 0;
    WordId Id = Index.find(
        hashWord(W), [&](uint32_t Cand) { return equals(Words[Cand], W); });
    return Id == DenseIdIndex::NoId ? NoWord : Id;
  }

  std::span<const Label> word(WordId Id) const { return Words[Id]; }
  size_t size() const { return Words.size(); }

private:
  static uint64_t hashWord(std::span<const Label> W) {
    uint64_t H = 0xcbf29ce484222325ull;
    for (Label L : W)
      H = (H ^ L.raw()) * 0x100000001b3ull;
    return mixHash(H);
  }
  static bool equals(std::span<const Label> A, std::span<const Label> B) {
    return A.size() == B.size() && std::equal(A.begin(), A.end(), B.begin());
  }

  std::pmr::memory_resource &Arena;
  std::vector<std::span<const Label>> Words;
  DenseIdIndex Index;
};

/// Dense id of an interned derived type variable.
using DtvId = uint32_t;

/// Uniques whole derived type variables as (base, word-id) pairs. After
/// interning, equality and hashing of DTVs are single integer compares.
/// Words are stored in \p Arena, which must outlive the interner.
class DtvInterner {
public:
  static constexpr DtvId NoDtv = 0xffffffffu;

  explicit DtvInterner(std::pmr::memory_resource &Arena) : Words(Arena) {}

  DtvId intern(TypeVariable Base, std::span<const Label> W) {
    const uint64_t Key = makeKey(Base, Words.intern(W));
    const uint64_t H = mixHash(Key);
    DtvId Id = Ids.find(H, [&](uint32_t Cand) { return Keys[Cand] == Key; });
    if (Id != DenseIdIndex::NoId)
      return Id;
    Id = static_cast<DtvId>(Keys.size());
    Keys.push_back(Key);
    Ids.insert(H, Id);
    return Id;
  }

  /// Lookup without interning; NoDtv when the DTV was never seen.
  DtvId find(TypeVariable Base, std::span<const Label> W) const {
    WordId Word = Words.find(W);
    if (Word == WordInterner::NoWord)
      return NoDtv;
    const uint64_t Key = makeKey(Base, Word);
    DtvId Id = Ids.find(mixHash(Key),
                        [&](uint32_t Cand) { return Keys[Cand] == Key; });
    return Id == DenseIdIndex::NoId ? NoDtv : Id;
  }
  DtvId find(const DerivedTypeVariable &Dtv) const {
    return find(Dtv.base(), Dtv.labels());
  }

  TypeVariable base(DtvId Id) const {
    return TypeVariable::fromRaw(static_cast<uint32_t>(Keys[Id] >> 32));
  }
  std::span<const Label> labels(DtvId Id) const {
    return Words.word(static_cast<WordId>(Keys[Id]));
  }
  DerivedTypeVariable dtv(DtvId Id) const {
    auto W = labels(Id);
    return DerivedTypeVariable(base(Id),
                               std::vector<Label>(W.begin(), W.end()));
  }

  size_t size() const { return Keys.size(); }

private:
  static uint64_t makeKey(TypeVariable Base, WordId W) {
    return (static_cast<uint64_t>(Base.raw()) << 32) | W;
  }

  WordInterner Words;
  std::vector<uint64_t> Keys;
  DenseIdIndex Ids;
};

} // namespace retypd

#endif // RETYPD_SUPPORT_INTERNER_H
