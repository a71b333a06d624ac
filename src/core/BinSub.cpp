//===- BinSub.cpp - Algebraic-subtyping backend (BinSub) ------------------===//

#include "core/BinSub.h"

#include "core/ShapeGraph.h"

#include "support/Trace.h"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>
#include <unordered_set>

using namespace retypd;

//===----------------------------------------------------------------------===//
// Phase 1: bisubstitution-based simplification
//===----------------------------------------------------------------------===//

namespace {

/// Decomposition budget: derived constraints beyond this multiple of the
/// input (plus a flat allowance for tiny sets) are not generated. Capping
/// loses precision, never soundness — an underived constraint weakens the
/// scheme the same way retypd's proof trimming drops unused paths.
constexpr size_t kDecomposeSlack = 64;
constexpr size_t kDecomposeFactor = 4;

} // namespace

TypeScheme BinSubBackend::simplify(
    const ConstraintSet &C, TypeVariable ProcVar,
    const std::unordered_set<TypeVariable> &Interesting) const {
  trace::TraceSpan Span("binsub.simplify", "backend");
  if (Span.active()) {
    Span.Args.Backend = "binsub";
    Span.Args.Constraints = static_cast<int64_t>(C.size());
  }
  auto IsInteresting = [&](TypeVariable V) {
    return V.isConstant() || V == ProcVar || Interesting.count(V) != 0;
  };

  // ---- Capability census ------------------------------------------------
  // ext(d): the labels d is known to carry, from every mentioned DTV and
  // all of its prefixes. This is the "shape" information decomposition
  // consults; it is prefix-closed by construction.
  std::unordered_map<DerivedTypeVariable, std::vector<Label>> Ext;
  size_t MaxWord = 0;
  auto NoteDtv = [&](const DerivedTypeVariable &D) {
    MaxWord = std::max(MaxWord, D.size());
    for (size_t I = 0; I < D.size(); ++I) {
      std::vector<Label> &Ls = Ext[D.prefix(I)];
      Label L = D.labels()[I];
      if (std::find(Ls.begin(), Ls.end(), L) == Ls.end())
        Ls.push_back(L);
    }
  };
  for (const DerivedTypeVariable &D : C.mentionedDtvs())
    NoteDtv(D);

  // ---- Polarity-directed decomposition -----------------------------------
  // Worklist over subtype constraints in canonical input order; each
  // `a <= b` spawns `a.l <= b.l` for covariant l and `b.l <= a.l` for
  // contravariant l, for every label either side is known to carry. This
  // is S-FIELD⊕/S-FIELD⊖ run forward over atomic bounds — no transducer.
  std::vector<SubtypeConstraint> Subs(C.subtypes().begin(),
                                      C.subtypes().end());
  std::unordered_set<SubtypeConstraint> Seen(Subs.begin(), Subs.end());
  const size_t Budget = Subs.size() * kDecomposeFactor + kDecomposeSlack;
  for (size_t I = 0; I < Subs.size(); ++I) {
    if (Subs.size() >= Budget)
      break;
    // Copy: Subs grows below and would invalidate a reference.
    const SubtypeConstraint SC = Subs[I];
    if (SC.Lhs.base().isConstant() || SC.Rhs.base().isConstant())
      continue; // lattice constants carry no capabilities
    if (SC.Lhs.size() >= MaxWord || SC.Rhs.size() >= MaxWord)
      continue; // never derive words longer than any the program mentions
    std::vector<Label> Ls;
    for (const DerivedTypeVariable *D : {&SC.Lhs, &SC.Rhs}) {
      auto It = Ext.find(*D);
      if (It == Ext.end())
        continue;
      for (Label L : It->second)
        if (std::find(Ls.begin(), Ls.end(), L) == Ls.end())
          Ls.push_back(L);
    }
    std::sort(Ls.begin(), Ls.end());
    for (Label L : Ls) {
      SubtypeConstraint Derived =
          L.variance() == Variance::Covariant
              ? SubtypeConstraint{SC.Lhs.extended(L), SC.Rhs.extended(L)}
              : SubtypeConstraint{SC.Rhs.extended(L), SC.Lhs.extended(L)};
      if (Derived.Lhs == Derived.Rhs || !Seen.insert(Derived).second)
        continue;
      NoteDtv(Derived.Lhs);
      NoteDtv(Derived.Rhs);
      Subs.push_back(std::move(Derived));
      if (Subs.size() >= Budget)
        break;
    }
  }

  // Variables used in additive constraints cannot be eliminated.
  std::unordered_set<TypeVariable> Protected;
  for (const AddSubConstraint &AC : C.addSubs())
    for (const DerivedTypeVariable *D : {&AC.X, &AC.Y, &AC.Z})
      Protected.insert(D->base());

  // ---- Bisubstitution elimination ----------------------------------------
  // An uninteresting variable with only bare occurrences is eliminated by
  // substituting its lower bounds into its upper bounds. Victim order is
  // first occurrence in the (deterministic) constraint list.
  for (unsigned Iter = 0; Iter < Opts.MaxTidyIterations; ++Iter) {
    std::unordered_map<TypeVariable, unsigned> Extended;
    std::unordered_map<TypeVariable, unsigned> AsLhs, AsRhs;
    std::vector<TypeVariable> Order;
    std::unordered_set<TypeVariable> Noted;
    for (const SubtypeConstraint &SC : Subs) {
      for (const DerivedTypeVariable *D : {&SC.Lhs, &SC.Rhs}) {
        TypeVariable B = D->base();
        if (IsInteresting(B))
          continue;
        if (Noted.insert(B).second)
          Order.push_back(B);
        if (!D->isBaseOnly())
          ++Extended[B];
      }
      if (SC.Lhs.isBaseOnly())
        ++AsLhs[SC.Lhs.base()];
      if (SC.Rhs.isBaseOnly())
        ++AsRhs[SC.Rhs.base()];
    }

    TypeVariable Victim;
    for (TypeVariable V : Order) {
      if (Protected.count(V) || Extended.count(V))
        continue;
      size_t In = AsRhs.count(V) ? AsRhs[V] : 0;
      size_t Niche = AsLhs.count(V) ? AsLhs[V] : 0;
      if (In * Niche <= In + Niche + Opts.BloatSlack) {
        Victim = V;
        break;
      }
    }
    if (!Victim.isValid())
      break;

    std::vector<SubtypeConstraint> Next;
    std::vector<DerivedTypeVariable> Ins, Outs;
    for (const SubtypeConstraint &SC : Subs) {
      bool IsIn = SC.Rhs.isBaseOnly() && SC.Rhs.base() == Victim;
      bool IsOut = SC.Lhs.isBaseOnly() && SC.Lhs.base() == Victim;
      if (IsIn && IsOut)
        continue; // v <= v
      if (IsIn)
        Ins.push_back(SC.Lhs);
      else if (IsOut)
        Outs.push_back(SC.Rhs);
      else
        Next.push_back(SC);
    }
    for (const DerivedTypeVariable &A : Ins)
      for (const DerivedTypeVariable &B : Outs)
        if (A != B)
          Next.push_back(SubtypeConstraint{A, B});
    Subs = std::move(Next);
  }

  // ---- Interesting-connectivity prune ------------------------------------
  // Surviving uninteresting variables that never (transitively, through
  // shared constraints) relate to an interesting base contribute nothing
  // to the scheme's interface; drop the constraints that only mention
  // them. This plays the role of retypd's source/sink co-reachability.
  {
    std::unordered_set<TypeVariable> Marked;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const SubtypeConstraint &SC : Subs) {
        TypeVariable L = SC.Lhs.base(), R = SC.Rhs.base();
        bool LOk = IsInteresting(L) || Marked.count(L);
        bool ROk = IsInteresting(R) || Marked.count(R);
        if (LOk && !ROk && Marked.insert(R).second)
          Changed = true;
        if (ROk && !LOk && Marked.insert(L).second)
          Changed = true;
      }
    }
    for (const AddSubConstraint &AC : C.addSubs())
      for (const DerivedTypeVariable *D : {&AC.X, &AC.Y, &AC.Z})
        Marked.insert(D->base());
    std::vector<SubtypeConstraint> Kept;
    Kept.reserve(Subs.size());
    for (const SubtypeConstraint &SC : Subs) {
      TypeVariable L = SC.Lhs.base(), R = SC.Rhs.base();
      if ((IsInteresting(L) || Marked.count(L)) &&
          (IsInteresting(R) || Marked.count(R)))
        Kept.push_back(SC);
    }
    Subs = std::move(Kept);
  }

  // ---- Existential renaming ----------------------------------------------
  // Same convention as the retypd backend: fresh names are scoped by the
  // procedure and numbered by a call-local counter, so a scheme's text
  // depends only on its input constraint set.
  const std::string FreshPrefix = "τ$" + Syms.name(ProcVar.symbol()) + "$";
  unsigned FreshCounter = 0;
  std::unordered_map<TypeVariable, TypeVariable> Renamed;
  std::vector<TypeVariable> Existentials;
  auto Rename = [&](const DerivedTypeVariable &D) {
    if (IsInteresting(D.base()))
      return D;
    auto It = Renamed.find(D.base());
    if (It == Renamed.end()) {
      TypeVariable Fresh = TypeVariable::var(
          Syms.intern(FreshPrefix + std::to_string(FreshCounter++)));
      It = Renamed.emplace(D.base(), Fresh).first;
      Existentials.push_back(Fresh);
    }
    return DerivedTypeVariable(It->second,
                               std::vector<Label>(D.labels().begin(),
                                                  D.labels().end()));
  };

  ConstraintSet Out;
  for (const SubtypeConstraint &SC : Subs) {
    DerivedTypeVariable A = Rename(SC.Lhs), B = Rename(SC.Rhs);
    if (A != B)
      Out.addSubtype(std::move(A), std::move(B));
  }
  // Keep capability declarations rooted at the procedure variable: the
  // explicit ones, plus every proc-rooted DTV the constraints mention.
  for (const DerivedTypeVariable &V : C.vars())
    if (V.base() == ProcVar)
      Out.addVar(V);
  for (const SubtypeConstraint &SC : C.subtypes())
    for (const DerivedTypeVariable *D : {&SC.Lhs, &SC.Rhs})
      if (D->base() == ProcVar)
        Out.addVar(*D);
  // Additive constraints are carried over whole; the vacuous ones are
  // dropped after the backend returns (dropVacuousComponents,
  // core/ConstraintSet.h).
  for (const AddSubConstraint &AC : C.addSubs())
    Out.addAddSub(AddSubConstraint{AC.IsSub, Rename(AC.X), Rename(AC.Y),
                                   Rename(AC.Z)});

  TypeScheme Scheme;
  Scheme.ProcVar = ProcVar;
  Scheme.Existentials = std::move(Existentials);
  Scheme.Constraints = std::move(Out);
  return Scheme;
}

//===----------------------------------------------------------------------===//
// Phase 2: shape-local sketch solving
//===----------------------------------------------------------------------===//

namespace {

/// Per-shape-class decoration, mirroring the retypd solver's ClassInfo so
/// sketch extraction renders identically when the bounds agree.
struct ClassInfo {
  LatticeElem Lower = Lattice::Bottom;
  LatticeElem Upper = Lattice::Top;
  bool HasLower = false;
  bool HasUpper = false;
  bool PointerLike = false;
  bool IntegerLike = false;
  std::vector<LatticeElem> UpperList;
};

} // namespace

SketchSolution BinSubBackend::solve(const ConstraintSet &C,
                                    std::span<const TypeVariable> Wanted) const {
  trace::TraceSpan Span("binsub.solve", "backend");
  if (Span.active()) {
    Span.Args.Backend = "binsub";
    Span.Args.Constraints = static_cast<int64_t>(C.size());
  }
  ShapeGraph Shapes(C);

  // ---- Lattice bounds, attached class-locally ----------------------------
  // The Steensgaard quotient has already identified the two sides of every
  // variable-variable constraint, so transitive bound flow is subsumed by
  // class membership: a constant bound lands on the (shared) class of the
  // variable it constrains. No saturated-graph path queries.
  std::unordered_map<uint32_t, ClassInfo> Info;
  for (const SubtypeConstraint &SC : C.subtypes()) {
    bool LConst = SC.Lhs.base().isConstant() && SC.Lhs.isBaseOnly();
    bool RConst = SC.Rhs.base().isConstant() && SC.Rhs.isBaseOnly();
    if (LConst == RConst)
      continue; // var <= var: handled by the quotient; κ <= κ: inert
    if (LConst) {
      uint32_t Cls = Shapes.classOf(SC.Rhs);
      if (Cls == ShapeGraph::NoClass)
        continue;
      LatticeElem K = SC.Lhs.base().latticeElem();
      ClassInfo &CI = Info[Cls];
      CI.Lower = CI.HasLower ? Lat.join(CI.Lower, K) : K;
      CI.HasLower = true;
    } else {
      uint32_t Cls = Shapes.classOf(SC.Lhs);
      if (Cls == ShapeGraph::NoClass)
        continue;
      LatticeElem K = SC.Rhs.base().latticeElem();
      ClassInfo &CI = Info[Cls];
      CI.Upper = CI.HasUpper ? Lat.meet(CI.Upper, K) : K;
      CI.HasUpper = true;
      if (std::find(CI.UpperList.begin(), CI.UpperList.end(), K) ==
          CI.UpperList.end())
        CI.UpperList.push_back(K);
    }
  }

  // ---- Pointer/integer classification (Figure 13) ------------------------
  auto ClassOfDtv = [&](const DerivedTypeVariable &D) {
    return Shapes.classOf(D);
  };
  for (const auto &Entry : Shapes.nodes()) {
    uint32_t Cls = Shapes.canonical(Entry.second);
    if (Shapes.isPointerClass(Cls))
      Info[Cls].PointerLike = true;
  }
  for (auto &[Cls, CI] : Info) {
    if (CI.HasLower && CI.Lower != Lattice::Bottom && Lat.isNumeric(CI.Lower))
      CI.IntegerLike = true;
    if (CI.HasUpper && CI.Upper != Lattice::Top && Lat.isNumeric(CI.Upper))
      CI.IntegerLike = true;
  }
  bool Changed = true;
  auto Mark = [&](uint32_t Cls, bool Ptr, bool Int) {
    if (Cls == ShapeGraph::NoClass)
      return;
    ClassInfo &CI = Info[Cls];
    if (Ptr && !CI.PointerLike) {
      CI.PointerLike = true;
      Changed = true;
    }
    if (Int && !CI.IntegerLike) {
      CI.IntegerLike = true;
      Changed = true;
    }
  };
  auto IsPtr = [&](uint32_t Cls) {
    return Cls != ShapeGraph::NoClass && Info.count(Cls) &&
           Info[Cls].PointerLike;
  };
  auto IsInt = [&](uint32_t Cls) {
    return Cls != ShapeGraph::NoClass && Info.count(Cls) &&
           Info[Cls].IntegerLike;
  };
  while (Changed) {
    Changed = false;
    for (const AddSubConstraint &AC : C.addSubs()) {
      uint32_t X = ClassOfDtv(AC.X), Y = ClassOfDtv(AC.Y),
               Z = ClassOfDtv(AC.Z);
      if (!AC.IsSub) {
        if (IsInt(X) && IsInt(Y))
          Mark(Z, false, true);
        if (IsPtr(X)) {
          Mark(Z, true, false);
          Mark(Y, false, true);
        }
        if (IsPtr(Y)) {
          Mark(Z, true, false);
          Mark(X, false, true);
        }
        if (IsInt(Z)) {
          Mark(X, false, true);
          Mark(Y, false, true);
        }
        if (IsPtr(Z) && IsInt(X))
          Mark(Y, true, false);
        if (IsPtr(Z) && IsInt(Y))
          Mark(X, true, false);
      } else {
        if (IsInt(X) && IsInt(Y))
          Mark(Z, false, true);
        if (IsPtr(X) && IsInt(Y))
          Mark(Z, true, false);
        if (IsPtr(X) && IsPtr(Y))
          Mark(Z, false, true);
        if (IsPtr(Z)) {
          Mark(X, true, false);
          Mark(Y, false, true);
        }
        if (IsInt(Z) && IsPtr(X))
          Mark(Y, true, false);
      }
    }
  }
  for (const AddSubConstraint &AC : C.addSubs()) {
    uint32_t X = ClassOfDtv(AC.X), Y = ClassOfDtv(AC.Y), Z = ClassOfDtv(AC.Z);
    if (!IsPtr(X) && !IsPtr(Y) && !IsPtr(Z)) {
      Mark(X, false, true);
      Mark(Y, false, true);
      Mark(Z, false, true);
    }
  }
  if (auto Num32 = Lat.lookup("num32")) {
    for (auto &[Cls, CI] : Info) {
      if (CI.IntegerLike && !CI.PointerLike && !CI.HasUpper) {
        CI.Upper = *Num32;
        CI.HasUpper = true;
      }
    }
  }

  // ---- Sketch extraction (same rendering as the retypd solver) -----------
  SketchSolution Solution;
  for (TypeVariable V : Wanted) {
    uint32_t Root = Shapes.classOf(DerivedTypeVariable(V));
    Sketch S;
    if (Root == ShapeGraph::NoClass) {
      Solution.Sketches.emplace(V, std::move(S));
      continue;
    }
    std::map<std::pair<uint32_t, Variance>, uint32_t> States;
    std::deque<std::pair<uint32_t, Variance>> Work;
    auto Decorate = [&](uint32_t SketchNode, uint32_t Cls, Variance Var) {
      Sketch::Node &N = S.node(SketchNode);
      auto It = Info.find(Cls);
      if (It == Info.end()) {
        N.Mark = Lattice::Top;
        return;
      }
      const ClassInfo &CI = It->second;
      if (Var == Variance::Covariant)
        N.Mark = CI.HasLower ? CI.Lower
                             : (CI.HasUpper ? CI.Upper : Lattice::Top);
      else
        N.Mark = CI.HasUpper ? CI.Upper
                             : (CI.HasLower ? CI.Lower : Lattice::Top);
      if (CI.HasLower)
        N.Lower = CI.Lower;
      if (CI.HasUpper)
        N.Upper = CI.Upper;
      N.PointerLike = CI.PointerLike;
      N.IntegerLike = CI.IntegerLike;
      if (CI.HasUpper && CI.Upper == Lattice::Bottom &&
          CI.UpperList.size() > 1) {
        for (LatticeElem E : CI.UpperList) {
          bool Minimal = true;
          for (LatticeElem F : CI.UpperList)
            if (F != E && Lat.leq(F, E))
              Minimal = false;
          if (Minimal)
            N.Conflicts.push_back(E);
        }
      }
    };

    auto RootKey = std::make_pair(Root, Variance::Covariant);
    States[RootKey] = S.root();
    Decorate(S.root(), Root, Variance::Covariant);
    Work.push_back(RootKey);
    while (!Work.empty()) {
      auto [Cls, Var] = Work.front();
      Work.pop_front();
      uint32_t From = States[{Cls, Var}];
      for (const auto &[L, RawChild] : Shapes.childrenOf(Cls)) {
        uint32_t Child = Shapes.canonical(RawChild);
        Variance CV = compose(Var, L.variance());
        auto Key = std::make_pair(Child, CV);
        auto It = States.find(Key);
        if (It == States.end()) {
          uint32_t Id = S.addNode();
          Decorate(Id, Child, CV);
          It = States.emplace(Key, Id).first;
          Work.push_back(Key);
        }
        S.addEdge(From, L, It->second);
      }
    }
    Solution.Sketches.emplace(V, std::move(S));
  }
  return Solution;
}
