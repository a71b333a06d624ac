//===- Verifier.cpp - Retypd formation-rule verification ---------------------===//

#include "core/Verifier.h"

#include "support/Stats.h"

using namespace retypd;

std::optional<VerifyLevel> retypd::parseVerifyLevel(std::string_view S) {
  if (S == "off")
    return VerifyLevel::Off;
  if (S == "phase")
    return VerifyLevel::Phase;
  if (S == "full")
    return VerifyLevel::Full;
  return std::nullopt;
}

const char *retypd::verifyLevelName(VerifyLevel L) {
  switch (L) {
  case VerifyLevel::Off:
    return "off";
  case VerifyLevel::Phase:
    return "phase";
  case VerifyLevel::Full:
    return "full";
  }
  return "off";
}

std::string VerifyDiags::str() const {
  std::string Out;
  for (const std::string &E : Errors) {
    Out += E;
    Out += '\n';
  }
  return Out;
}

namespace {

void fail(VerifyDiags &D, std::string_view Ctx, std::string Msg) {
  D.Errors.push_back(std::string(Ctx) + ": " + std::move(Msg));
}

constexpr uint64_t kMaxLabelKind = static_cast<uint64_t>(Label::Kind::Field);

/// Checks one base type variable (shared by DTV bases, scheme heads, and
/// existential lists).
void checkBase(TypeVariable V, const SymbolTable &Syms, const Lattice &Lat,
               std::string_view Ctx, std::string_view Role, VerifyDiags &D) {
  if (!V.isValid()) {
    fail(D, Ctx, std::string(Role) + " is the invalid type variable");
    return;
  }
  if (V.isConstant()) {
    if (V.latticeElem() >= Lat.size())
      fail(D, Ctx,
           std::string(Role) + " names lattice element #" +
               std::to_string(V.latticeElem()) + " but the lattice has " +
               std::to_string(Lat.size()) + " elements");
    return;
  }
  if (V.symbol() >= Syms.size())
    fail(D, Ctx,
         std::string(Role) + " references symbol #" +
             std::to_string(V.symbol()) + " but the table holds " +
             std::to_string(Syms.size()) + " symbols");
}

} // namespace

void retypd::verifyDtv(const DerivedTypeVariable &V, const SymbolTable &Syms,
                       const Lattice &Lat, std::string_view Ctx,
                       VerifyDiags &D) {
  checkBase(V.base(), Syms, Lat, Ctx, "base variable", D);

  // Label legality: each label's packed kind must be one of the five Σ
  // kinds, and the unused operand bits of its encoding must be clean —
  // a decoder handing back garbage bits would still compare/hash as a
  // distinct label and silently split capabilities.
  Variance Fold = Variance::Covariant;
  size_t Pos = 0;
  for (Label L : V.labels()) {
    uint64_t Raw = L.raw();
    uint64_t KindBits = Raw >> 48;
    if (KindBits > kMaxLabelKind) {
      fail(D, Ctx,
           "label #" + std::to_string(Pos) + " has kind bits " +
               std::to_string(KindBits) + " outside Σ");
      ++Pos;
      continue;
    }
    switch (L.kind()) {
    case Label::Kind::In:
    case Label::Kind::Out:
      if ((Raw >> 32) & 0xffff)
        fail(D, Ctx,
             "label #" + std::to_string(Pos) +
                 " (in/out) has nonzero width bits");
      break;
    case Label::Kind::Load:
    case Label::Kind::Store:
      if (Raw & 0xffffffffffffull)
        fail(D, Ctx,
             "label #" + std::to_string(Pos) +
                 " (load/store) has nonzero operand bits");
      break;
    case Label::Kind::Field:
      break;
    }
    Fold = compose(Fold, L.variance());
    ++Pos;
  }

  // Variance bookkeeping: the incremental fold along the path must agree
  // with the word-level product (Definition 3.2).
  if (Fold != V.variance())
    fail(D, Ctx,
         std::string("variance bookkeeping mismatch: path fold is ") +
             varianceName(Fold) + " but wordVariance says " +
             varianceName(V.variance()));
}

void retypd::verifyConstraintSet(const ConstraintSet &C,
                                 const SymbolTable &Syms, const Lattice &Lat,
                                 std::string_view Ctx, VerifyDiags &D) {
  countEvent(Counter::VerifierChecks);
  std::string Sub;
  size_t I = 0;
  for (const SubtypeConstraint &S : C.subtypes()) {
    Sub = std::string(Ctx) + ", subtype #" + std::to_string(I++);
    verifyDtv(S.Lhs, Syms, Lat, Sub, D);
    verifyDtv(S.Rhs, Syms, Lat, Sub, D);
  }
  I = 0;
  for (const DerivedTypeVariable &V : C.vars()) {
    Sub = std::string(Ctx) + ", var #" + std::to_string(I++);
    verifyDtv(V, Syms, Lat, Sub, D);
  }
  I = 0;
  for (const AddSubConstraint &A : C.addSubs()) {
    Sub = std::string(Ctx) + ", addsub #" + std::to_string(I++);
    verifyDtv(A.X, Syms, Lat, Sub, D);
    verifyDtv(A.Y, Syms, Lat, Sub, D);
    verifyDtv(A.Z, Syms, Lat, Sub, D);
  }
}

void retypd::verifyCanonicalOrder(const ConstraintSet &C,
                                  const SymbolTable &Syms, const Lattice &Lat,
                                  std::string_view Ctx, VerifyDiags &D) {
  countEvent(Counter::VerifierChecks);
  ConstraintSet::CanonicalView View = C.canonicalView(Syms, Lat);
  for (size_t I = 0; I < View.Subs.size(); ++I)
    if (View.Subs[I] != &C.subtypes()[I]) {
      fail(D, Ctx,
           "subtype constraints not in canonical order (first divergence at "
           "#" +
               std::to_string(I) + ")");
      break;
    }
  for (size_t I = 0; I < View.Vars.size(); ++I)
    if (View.Vars[I] != &C.vars()[I]) {
      fail(D, Ctx,
           "var declarations not in canonical order (first divergence at #" +
               std::to_string(I) + ")");
      break;
    }
  for (size_t I = 0; I < View.AddSubs.size(); ++I)
    if (View.AddSubs[I] != &C.addSubs()[I]) {
      fail(D, Ctx,
           "additive constraints not in canonical order (first divergence at "
           "#" +
               std::to_string(I) + ")");
      break;
    }
}

void retypd::verifyScheme(const TypeScheme &S, const SymbolTable &Syms,
                          const Lattice &Lat,
                          const std::unordered_set<TypeVariable> *AllowedFree,
                          std::string_view Ctx, VerifyDiags &D) {
  countEvent(Counter::VerifierChecks);
  checkBase(S.ProcVar, Syms, Lat, Ctx, "procedure variable", D);
  if (S.ProcVar.isConstant())
    fail(D, Ctx, "procedure variable is a type constant");
  for (TypeVariable E : S.Existentials) {
    checkBase(E, Syms, Lat, Ctx, "existential", D);
    if (E.isConstant())
      fail(D, Ctx, "existential quantifies a type constant");
  }

  verifyConstraintSet(S.Constraints, Syms, Lat, Ctx, D);

  if (!AllowedFree)
    return;

  // Closure (Definition 3.4): every base variable the constraints mention
  // must be bound by the scheme (ProcVar or an existential), be a type
  // constant, or be explicitly allowed free (SCC mates whose schemes are
  // committed alongside this one).
  std::unordered_set<TypeVariable> Bound;
  Bound.insert(S.ProcVar);
  Bound.insert(S.Existentials.begin(), S.Existentials.end());
  std::unordered_set<TypeVariable> Reported;
  auto CheckFree = [&](const DerivedTypeVariable &V) {
    TypeVariable B = V.base();
    if (!B.isVar() || Bound.count(B) || AllowedFree->count(B) ||
        !Reported.insert(B).second)
      return;
    std::string Name =
        B.symbol() < Syms.size() ? Syms.name(B.symbol()) : "<invalid>";
    fail(D, Ctx, "free type variable '" + Name + "' escapes the scheme");
  };
  for (const SubtypeConstraint &C : S.Constraints.subtypes()) {
    CheckFree(C.Lhs);
    CheckFree(C.Rhs);
  }
  for (const DerivedTypeVariable &V : S.Constraints.vars())
    CheckFree(V);
  for (const AddSubConstraint &A : S.Constraints.addSubs()) {
    CheckFree(A.X);
    CheckFree(A.Y);
    CheckFree(A.Z);
  }
}

void retypd::verifySketch(const Sketch &Sk, const Lattice &Lat,
                          std::string_view Ctx, VerifyDiags &D) {
  countEvent(Counter::VerifierChecks);
  if (Sk.size() == 0) {
    fail(D, Ctx, "sketch has no nodes (missing root)");
    return;
  }

  // Walk only what the root reaches: unreachable nodes are legal residue
  // of withChild grafting and carry no meaning.
  std::vector<bool> Visited(Sk.size(), false);
  std::vector<uint32_t> Work{Sk.root()};
  Visited[Sk.root()] = true;
  auto CheckMark = [&](uint32_t N, const char *What, LatticeElem E) {
    if (E >= Lat.size())
      fail(D, Ctx,
           "node #" + std::to_string(N) + " " + What + " #" +
               std::to_string(E) + " is not a lattice element (lattice has " +
               std::to_string(Lat.size()) + ")");
  };
  while (!Work.empty()) {
    uint32_t N = Work.back();
    Work.pop_back();
    const Sketch::Node &Node = Sk.node(N);
    CheckMark(N, "mark", Node.Mark);
    CheckMark(N, "lower bound", Node.Lower);
    CheckMark(N, "upper bound", Node.Upper);
    for (LatticeElem E : Node.Conflicts)
      CheckMark(N, "conflict entry", E);
    for (const auto &[L, To] : Node.Children) {
      if ((L.raw() >> 48) > kMaxLabelKind)
        fail(D, Ctx,
             "node #" + std::to_string(N) + " has an edge labeled outside Σ");
      if (To >= Sk.size()) {
        fail(D, Ctx,
             "node #" + std::to_string(N) + " edge targets node #" +
                 std::to_string(To) + " but the sketch has " +
                 std::to_string(Sk.size()) + " nodes");
        continue;
      }
      if (!Visited[To]) {
        Visited[To] = true;
        Work.push_back(To);
      }
    }
  }
}
