//===- ConstraintSet.cpp - Finite collections of constraints -------------===//

#include "core/ConstraintSet.h"

#include "support/UnionFind.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

using namespace retypd;

std::string DerivedTypeVariable::str(const SymbolTable &Syms,
                                     const Lattice &Lat) const {
  std::string S;
  if (!Base.isValid())
    S = "<invalid>";
  else if (Base.isConstant())
    S = Lat.name(Base.latticeElem());
  else
    S = Syms.name(Base.symbol());
  S += wordStr(Word);
  return S;
}

std::string SubtypeConstraint::str(const SymbolTable &Syms,
                                   const Lattice &Lat) const {
  return Lhs.str(Syms, Lat) + " <= " + Rhs.str(Syms, Lat);
}

std::string AddSubConstraint::str(const SymbolTable &Syms,
                                  const Lattice &Lat) const {
  return std::string(IsSub ? "sub(" : "add(") + X.str(Syms, Lat) + ", " +
         Y.str(Syms, Lat) + "; " + Z.str(Syms, Lat) + ")";
}

bool ConstraintSet::addSubtype(DerivedTypeVariable Lhs,
                               DerivedTypeVariable Rhs) {
  SubtypeConstraint C{std::move(Lhs), std::move(Rhs)};
  if (!SubIndex.insert(C).second)
    return false;
  Subs.push_back(std::move(C));
  return true;
}

bool ConstraintSet::addVar(DerivedTypeVariable V) {
  if (!VarIndex.insert(V).second)
    return false;
  Vars.push_back(std::move(V));
  return true;
}

void ConstraintSet::addAddSub(AddSubConstraint C) {
  AddSubs.push_back(std::move(C));
}

void ConstraintSet::merge(const ConstraintSet &Other) {
  for (const SubtypeConstraint &C : Other.Subs)
    addSubtype(C.Lhs, C.Rhs);
  for (const DerivedTypeVariable &V : Other.Vars)
    addVar(V);
  for (const AddSubConstraint &C : Other.AddSubs)
    addAddSub(C);
}

std::vector<DerivedTypeVariable> ConstraintSet::mentionedDtvs() const {
  std::vector<DerivedTypeVariable> Out;
  std::unordered_set<DerivedTypeVariable> Seen;
  auto Note = [&](const DerivedTypeVariable &V) {
    if (Seen.insert(V).second)
      Out.push_back(V);
  };
  for (const SubtypeConstraint &C : Subs) {
    Note(C.Lhs);
    Note(C.Rhs);
  }
  for (const DerivedTypeVariable &V : Vars)
    Note(V);
  for (const AddSubConstraint &C : AddSubs) {
    Note(C.X);
    Note(C.Y);
    Note(C.Z);
  }
  return Out;
}

std::string ConstraintSet::str(const SymbolTable &Syms,
                               const Lattice &Lat) const {
  std::vector<std::string> Lines;
  for (const SubtypeConstraint &C : Subs)
    Lines.push_back(C.str(Syms, Lat));
  for (const DerivedTypeVariable &V : Vars)
    Lines.push_back("var " + V.str(Syms, Lat));
  for (const AddSubConstraint &C : AddSubs)
    Lines.push_back(C.str(Syms, Lat));
  std::sort(Lines.begin(), Lines.end());
  std::string S;
  for (const std::string &L : Lines) {
    S += L;
    S += '\n';
  }
  return S;
}

namespace {

/// Decorated sort key for one derived type variable: the base resolves to
/// a name reference once, labels compare by their packed u64. Purely
/// structural — no symbol ids, no rendered text.
struct DtvKey {
  const std::string *Name; ///< base name (lattice name for constants)
  uint8_t Rank;            ///< 0 invalid, 1 constant, 2 variable
  std::span<const Label> Word;
};

DtvKey dtvKey(const DerivedTypeVariable &V, const SymbolTable &Syms,
              const Lattice &Lat) {
  static const std::string Empty;
  TypeVariable B = V.base();
  if (B.isConstant())
    return {&Lat.name(B.latticeElem()), 1, V.labels()};
  if (B.isVar())
    return {&Syms.name(B.symbol()), 2, V.labels()};
  return {&Empty, 0, V.labels()};
}

int cmp(const DtvKey &A, const DtvKey &B) {
  if (int C = A.Name->compare(*B.Name))
    return C < 0 ? -1 : 1;
  if (A.Rank != B.Rank)
    return A.Rank < B.Rank ? -1 : 1;
  size_t N = std::min(A.Word.size(), B.Word.size());
  for (size_t I = 0; I < N; ++I)
    if (A.Word[I] != B.Word[I])
      return A.Word[I] < B.Word[I] ? -1 : 1;
  if (A.Word.size() != B.Word.size())
    return A.Word.size() < B.Word.size() ? -1 : 1;
  return 0;
}

/// Decorate-sort-undecorate over one constraint kind. \p KeysOf lists the
/// DtvKeys of one item in comparison order. Items already in canonical
/// order (the overwhelmingly common case on re-canonicalization and
/// hashing of canonicalized sets) are detected in O(n) and skip the sort.
template <typename T, typename KeysOfFn>
std::vector<const T *> sortStructurally(const std::vector<T> &Items,
                                        KeysOfFn KeysOf) {
  struct Keyed {
    const T *Item;
    // Up to three DTVs per constraint (AddSub); unused slots stay Rank 0
    // with empty names and words, which compare equal.
    DtvKey K[3];
    uint8_t Extra; ///< kind-local tie-break (AddSub's IsSub flag)
  };
  std::vector<Keyed> KeyedItems;
  KeyedItems.reserve(Items.size());
  for (const T &I : Items) {
    Keyed K;
    K.Item = &I;
    K.Extra = KeysOf(I, K.K);
    KeyedItems.push_back(std::move(K));
  }
  auto Less = [](const Keyed &A, const Keyed &B) {
    if (A.Extra != B.Extra)
      return A.Extra < B.Extra;
    for (int I = 0; I < 3; ++I)
      if (int C = cmp(A.K[I], B.K[I]))
        return C < 0;
    return false;
  };
  if (!std::is_sorted(KeyedItems.begin(), KeyedItems.end(), Less))
    std::stable_sort(KeyedItems.begin(), KeyedItems.end(), Less);
  std::vector<const T *> Sorted;
  Sorted.reserve(KeyedItems.size());
  for (const Keyed &K : KeyedItems)
    Sorted.push_back(K.Item);
  return Sorted;
}

} // namespace

ConstraintSet::CanonicalView
ConstraintSet::canonicalView(const SymbolTable &Syms,
                             const Lattice &Lat) const {
  static const std::string Empty;
  DtvKey None{&Empty, 0, {}};
  CanonicalView View;
  View.Subs = sortStructurally(Subs, [&](const SubtypeConstraint &C,
                                         DtvKey *K) {
    K[0] = dtvKey(C.Lhs, Syms, Lat);
    K[1] = dtvKey(C.Rhs, Syms, Lat);
    K[2] = None;
    return uint8_t(0);
  });
  View.Vars =
      sortStructurally(Vars, [&](const DerivedTypeVariable &V, DtvKey *K) {
        K[0] = dtvKey(V, Syms, Lat);
        K[1] = K[2] = None;
        return uint8_t(0);
      });
  View.AddSubs = sortStructurally(AddSubs, [&](const AddSubConstraint &C,
                                               DtvKey *K) {
    K[0] = dtvKey(C.X, Syms, Lat);
    K[1] = dtvKey(C.Y, Syms, Lat);
    K[2] = dtvKey(C.Z, Syms, Lat);
    return uint8_t(C.IsSub ? 1 : 0);
  });
  return View;
}

namespace {

/// Rebuilds \p Items in the order given by \p Sorted (pointers into
/// Items). No-op when the order is already canonical; otherwise a single
/// pass of moves.
template <typename T>
void applyOrder(std::vector<T> &Items, const std::vector<const T *> &Sorted) {
  bool InOrder = true;
  for (size_t I = 0; I < Sorted.size(); ++I)
    if (Sorted[I] != &Items[I]) {
      InOrder = false;
      break;
    }
  if (InOrder)
    return;
  std::vector<T> Reordered;
  Reordered.reserve(Items.size());
  for (const T *P : Sorted)
    Reordered.push_back(std::move(*const_cast<T *>(P)));
  Items = std::move(Reordered);
}

} // namespace

void ConstraintSet::canonicalize(const SymbolTable &Syms, const Lattice &Lat) {
  CanonicalView View = canonicalView(Syms, Lat);
  applyOrder(Subs, View.Subs);
  applyOrder(Vars, View.Vars);
  applyOrder(AddSubs, View.AddSubs);
}

ConstraintSet ConstraintSet::canonicalized(const SymbolTable &Syms,
                                           const Lattice &Lat) const {
  ConstraintSet Canon = *this;
  Canon.canonicalize(Syms, Lat);
  return Canon;
}

std::string TypeScheme::str(const SymbolTable &Syms,
                            const Lattice &Lat) const {
  std::string S = "forall ";
  S += Syms.name(ProcVar.symbol());
  if (!Existentials.empty()) {
    S += ". exists";
    for (TypeVariable V : Existentials) {
      S += ' ';
      S += Syms.name(V.symbol());
    }
  }
  S += ". {\n";
  std::string Body = Constraints.str(Syms, Lat);
  // Indent the body two spaces.
  size_t Pos = 0;
  while (Pos < Body.size()) {
    size_t End = Body.find('\n', Pos);
    S += "  ";
    if (End == std::string::npos) {
      S += Body.substr(Pos);
      S += '\n';
      break;
    }
    S += Body.substr(Pos, End - Pos + 1);
    Pos = End + 1;
  }
  S += "}";
  return S;
}

void retypd::dropVacuousComponents(TypeScheme &Scheme) {
  // Without existentials every variable is free and every component live.
  if (Scheme.Existentials.empty())
    return;
  const ConstraintSet &C = Scheme.Constraints;
  std::unordered_map<TypeVariable, uint32_t> NodeOf;
  UnionFind UF;
  auto Unite = [&](std::initializer_list<const DerivedTypeVariable *> Ds) {
    std::optional<uint32_t> First;
    for (const DerivedTypeVariable *D : Ds) {
      if (!D->base().isVar())
        continue;
      auto [It, Inserted] = NodeOf.try_emplace(D->base(), UF.size());
      if (Inserted)
        UF.makeSet();
      if (First)
        UF.unite(*First, It->second);
      else
        First = It->second;
    }
  };
  for (const SubtypeConstraint &SC : C.subtypes())
    Unite({&SC.Lhs, &SC.Rhs});
  for (const DerivedTypeVariable &V : C.vars())
    Unite({&V});
  for (const AddSubConstraint &AC : C.addSubs())
    Unite({&AC.X, &AC.Y, &AC.Z});

  std::unordered_set<TypeVariable> Bound(Scheme.Existentials.begin(),
                                         Scheme.Existentials.end());
  std::vector<char> Live(UF.size(), 0);
  for (const auto &[V, N] : NodeOf)
    if (!Bound.count(V))
      Live[UF.find(N)] = 1;
  auto IsLive = [&](uint32_t N) { return Live[UF.find(N)] != 0; };
  // A constraint lives with the component of its variable bases; one that
  // mentions only constants relates no variable and is left alone.
  auto Keeps = [&](std::initializer_list<const DerivedTypeVariable *> Ds) {
    for (const DerivedTypeVariable *D : Ds)
      if (D->base().isVar())
        return IsLive(NodeOf.at(D->base()));
    return true;
  };

  bool AnyDead = std::any_of(NodeOf.begin(), NodeOf.end(), [&](auto &E) {
    return !IsLive(E.second);
  });
  if (AnyDead) {
    ConstraintSet Out;
    for (const SubtypeConstraint &SC : C.subtypes())
      if (Keeps({&SC.Lhs, &SC.Rhs}))
        Out.addSubtype(SC.Lhs, SC.Rhs);
    for (const DerivedTypeVariable &V : C.vars())
      if (Keeps({&V}))
        Out.addVar(V);
    for (const AddSubConstraint &AC : C.addSubs())
      if (Keeps({&AC.X, &AC.Y, &AC.Z}))
        Out.addAddSub(AC);
    Scheme.Constraints = std::move(Out);
  }

  std::erase_if(Scheme.Existentials, [&](TypeVariable V) {
    auto It = NodeOf.find(V);
    return It == NodeOf.end() || !IsLive(It->second);
  });
}
