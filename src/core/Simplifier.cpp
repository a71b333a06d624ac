//===- Simplifier.cpp - Constraint-set simplification (§5) ----------------===//

#include "core/Simplifier.h"

#include "core/ShapeGraph.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>

using namespace retypd;

namespace {

/// Phase of the two-phase path discipline: recalls must precede forgets.
enum Phase : unsigned { RecallPhase = 0, ForgetPhase = 1 };

/// Product-state id: 2 * node + phase.
inline uint32_t productState(GraphNodeId N, Phase P) { return 2 * N + P; }

} // namespace

TypeScheme
Simplifier::simplify(const ConstraintSet &C, TypeVariable ProcVar,
                     const std::unordered_set<TypeVariable> &Interesting) {
  auto IsInteresting = [&](TypeVariable V) {
    return V.isConstant() || V == ProcVar || Interesting.count(V) != 0;
  };

  ConstraintGraph G(C);
  G.saturate();
  const size_t NumNodes = G.numNodes();

  // Forward reachability over the phase product automaton. Sources: base
  // nodes of interesting variables, both variance tags, in recall phase.
  std::vector<bool> Fwd(2 * NumNodes, false);
  std::deque<uint32_t> Work;
  for (GraphNodeId N = 0; N < NumNodes; ++N) {
    const GraphNode &Node = G.node(N);
    if (Node.Dtv.isBaseOnly() && IsInteresting(Node.Dtv.base())) {
      Fwd[productState(N, RecallPhase)] = true;
      Work.push_back(productState(N, RecallPhase));
    }
  }
  while (!Work.empty()) {
    uint32_t S = Work.front();
    Work.pop_front();
    GraphNodeId N = S / 2;
    Phase P = static_cast<Phase>(S % 2);
    for (const GraphEdge &E : G.edgesFrom(N)) {
      uint32_t Next = 0;
      switch (E.Kind) {
      case EdgeKind::One:
        Next = productState(E.To, P);
        break;
      case EdgeKind::Recall:
        if (P != RecallPhase)
          continue;
        Next = productState(E.To, RecallPhase);
        break;
      case EdgeKind::Forget:
        Next = productState(E.To, ForgetPhase);
        break;
      }
      if (!Fwd[Next]) {
        Fwd[Next] = true;
        Work.push_back(Next);
      }
    }
  }

  // Backward co-reachability to sinks (interesting base nodes, any phase).
  // Build reverse product adjacency implicitly by scanning edges.
  std::vector<std::vector<uint32_t>> RevAdj(2 * NumNodes);
  for (GraphNodeId N = 0; N < NumNodes; ++N) {
    for (const GraphEdge &E : G.edgesFrom(N)) {
      switch (E.Kind) {
      case EdgeKind::One:
        RevAdj[productState(E.To, RecallPhase)].push_back(
            productState(N, RecallPhase));
        RevAdj[productState(E.To, ForgetPhase)].push_back(
            productState(N, ForgetPhase));
        break;
      case EdgeKind::Recall:
        RevAdj[productState(E.To, RecallPhase)].push_back(
            productState(N, RecallPhase));
        break;
      case EdgeKind::Forget:
        RevAdj[productState(E.To, ForgetPhase)].push_back(
            productState(N, RecallPhase));
        RevAdj[productState(E.To, ForgetPhase)].push_back(
            productState(N, ForgetPhase));
        break;
      }
    }
  }
  std::vector<bool> Bwd(2 * NumNodes, false);
  for (GraphNodeId N = 0; N < NumNodes; ++N) {
    const GraphNode &Node = G.node(N);
    if (Node.Dtv.isBaseOnly() && IsInteresting(Node.Dtv.base())) {
      for (Phase P : {RecallPhase, ForgetPhase}) {
        if (!Bwd[productState(N, P)]) {
          Bwd[productState(N, P)] = true;
          Work.push_back(productState(N, P));
        }
      }
    }
  }
  while (!Work.empty()) {
    uint32_t S = Work.front();
    Work.pop_front();
    for (uint32_t Prev : RevAdj[S]) {
      if (!Bwd[Prev]) {
        Bwd[Prev] = true;
        Work.push_back(Prev);
      }
    }
  }

  // A graph node survives if some product state is both reachable and
  // co-reachable.
  std::vector<bool> Alive(NumNodes, false);
  for (GraphNodeId N = 0; N < NumNodes; ++N)
    for (Phase P : {RecallPhase, ForgetPhase})
      if (Fwd[productState(N, P)] && Bwd[productState(N, P)])
        Alive[N] = true;

  // Existential renaming for surviving uninteresting bases. Fresh names are
  // scoped by the procedure and numbered by a call-local counter so that a
  // scheme's text depends only on its input constraint set — never on how
  // many symbols other (possibly concurrent) simplifications interned
  // first. This is what makes `--jobs N` byte-identical to `--jobs 1` and
  // lets the summary cache replay schemes across runs.
  const std::string FreshPrefix = "τ$" + Syms.name(ProcVar.symbol()) + "$";
  unsigned FreshCounter = 0;
  auto FreshVar = [&] {
    return TypeVariable::var(
        Syms.intern(FreshPrefix + std::to_string(FreshCounter++)));
  };
  std::unordered_map<TypeVariable, TypeVariable> Renamed;
  std::vector<TypeVariable> Existentials;
  auto Rename = [&](const DerivedTypeVariable &Dtv) {
    if (IsInteresting(Dtv.base()))
      return Dtv;
    auto It = Renamed.find(Dtv.base());
    if (It == Renamed.end()) {
      TypeVariable Fresh = FreshVar();
      It = Renamed.emplace(Dtv.base(), Fresh).first;
      Existentials.push_back(Fresh);
    }
    return DerivedTypeVariable(It->second,
                               std::vector<Label>(Dtv.labels().begin(),
                                                  Dtv.labels().end()));
  };

  // Emit one constraint per surviving 1-edge, oriented by the tag.
  ConstraintSet Out;
  for (GraphNodeId N = 0; N < NumNodes; ++N) {
    if (!Alive[N])
      continue;
    const GraphNode &From = G.node(N);
    for (const GraphEdge &E : G.edgesFrom(N)) {
      if (E.Kind != EdgeKind::One || !Alive[E.To])
        continue;
      const GraphNode &To = G.node(E.To);
      DerivedTypeVariable A = Rename(From.Dtv);
      DerivedTypeVariable B = Rename(To.Dtv);
      if (A == B)
        continue;
      if (From.Tag == Variance::Covariant)
        Out.addSubtype(A, B);
      else
        Out.addSubtype(B, A);
    }
  }

  // Keep capability declarations rooted at the procedure variable.
  for (GraphNodeId N = 0; N < NumNodes; ++N)
    if (Alive[N] && G.node(N).Dtv.base() == ProcVar &&
        G.node(N).Tag == Variance::Covariant)
      Out.addVar(G.node(N).Dtv);

  // Carry additive constraints over (renamed): the pointer/integer
  // classification downstream needs them. Those left in components with no
  // free variable are dropped after the backend returns
  // (dropVacuousComponents, core/ConstraintSet.h).
  for (const AddSubConstraint &AC : C.addSubs())
    Out.addAddSub(AddSubConstraint{AC.IsSub, Rename(AC.X), Rename(AC.Y),
                                   Rename(AC.Z)});

  // ---------------- Tidy pass ----------------
  std::vector<SubtypeConstraint> Subs(Out.subtypes().begin(),
                                      Out.subtypes().end());
  std::unordered_set<TypeVariable> Existential(Existentials.begin(),
                                               Existentials.end());

  // First-label atomization: when an existential base never occurs bare
  // and all of its occurrences start with .in_i or .out labels, the label
  // groups cannot interact (no constraints relate them through the base,
  // and S-POINTER only couples .load/.store). Splitting τ.in0... / τ.out...
  // onto independent fresh variables lets the relay-inlining below remove
  // callsite instances entirely.
  {
    std::unordered_map<TypeVariable, int> Eligible; // 1 = ok, 0 = no
    auto Inspect = [&](const DerivedTypeVariable &D) {
      if (!Existential.count(D.base()))
        return;
      auto [It, Inserted] = Eligible.emplace(D.base(), 1);
      (void)Inserted;
      if (D.isBaseOnly() || (!D.labels()[0].isIn() && !D.labels()[0].isOut()))
        It->second = 0;
    };
    for (const SubtypeConstraint &SC : Subs) {
      Inspect(SC.Lhs);
      Inspect(SC.Rhs);
    }
    for (const AddSubConstraint &AC : Out.addSubs())
      for (const DerivedTypeVariable *D : {&AC.X, &AC.Y, &AC.Z})
        if (Existential.count(D->base()))
          Eligible[D->base()] = 0;

    std::map<std::pair<TypeVariable, Label>, TypeVariable> Split;
    auto Atomize = [&](const DerivedTypeVariable &D) {
      auto It = Eligible.find(D.base());
      if (It == Eligible.end() || It->second != 1)
        return D;
      auto Key = std::make_pair(D.base(), D.labels()[0]);
      auto SIt = Split.find(Key);
      if (SIt == Split.end()) {
        TypeVariable Fresh = FreshVar();
        SIt = Split.emplace(Key, Fresh).first;
        Existential.insert(Fresh);
        Existentials.push_back(Fresh);
      }
      return DerivedTypeVariable(
          SIt->second,
          std::vector<Label>(D.labels().begin() + 1, D.labels().end()));
    };
    for (SubtypeConstraint &SC : Subs) {
      SC.Lhs = Atomize(SC.Lhs);
      SC.Rhs = Atomize(SC.Rhs);
    }
    for (const auto &[Base, Ok] : Eligible)
      if (Ok == 1)
        Existential.erase(Base);
  }
  // Variables used in additive constraints cannot be inlined away.
  std::unordered_set<TypeVariable> Protected;
  for (const AddSubConstraint &AC : Out.addSubs())
    for (const DerivedTypeVariable *D : {&AC.X, &AC.Y, &AC.Z})
      Protected.insert(D->base());

  for (unsigned Iter = 0; Iter < Opts.MaxTidyIterations; ++Iter) {
    // Occurrence census.
    std::unordered_map<TypeVariable, unsigned> Extended;
    std::unordered_map<TypeVariable, std::vector<size_t>> AsLhs, AsRhs;
    for (size_t I = 0; I < Subs.size(); ++I) {
      const SubtypeConstraint &SC = Subs[I];
      for (const DerivedTypeVariable *D : {&SC.Lhs, &SC.Rhs})
        if (!D->isBaseOnly())
          ++Extended[D->base()];
      if (SC.Lhs.isBaseOnly())
        AsLhs[SC.Lhs.base()].push_back(I);
      if (SC.Rhs.isBaseOnly())
        AsRhs[SC.Rhs.base()].push_back(I);
    }

    TypeVariable Victim;
    for (TypeVariable V : Existentials) {
      if (!Existential.count(V) || Protected.count(V) || Extended.count(V))
        continue;
      size_t In = AsRhs.count(V) ? AsRhs[V].size() : 0;
      size_t Niche = AsLhs.count(V) ? AsLhs[V].size() : 0;
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
        continue; // τ <= τ
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
    Existential.erase(Victim);
  }

  ConstraintSet Pruned;
  for (const SubtypeConstraint &SC : Subs)
    Pruned.addSubtype(SC.Lhs, SC.Rhs);
  for (const AddSubConstraint &AC : Out.addSubs())
    Pruned.addAddSub(AC);

  // Merge existentials that share a shape class (the quotient of Theorem
  // 3.1): they denote the same sketch node, so one variable suffices.
  // This is what collapses the two intermediate views of a recursive
  // structure into the single τ of Figure 2.
  {
    ShapeGraph Shapes(Pruned);
    std::unordered_map<uint32_t, TypeVariable> RepOfClass;
    std::unordered_map<TypeVariable, TypeVariable> Merge;
    for (TypeVariable V : Existentials) {
      if (!Existential.count(V))
        continue;
      uint32_t Cls = Shapes.classOf(DerivedTypeVariable(V));
      if (Cls == ShapeGraph::NoClass)
        continue;
      auto [It, Inserted] = RepOfClass.emplace(Cls, V);
      if (!Inserted) {
        Merge[V] = It->second;
        Existential.erase(V);
      }
    }
    if (!Merge.empty()) {
      auto Apply = [&](const DerivedTypeVariable &D) {
        auto It = Merge.find(D.base());
        if (It == Merge.end())
          return D;
        return DerivedTypeVariable(
            It->second,
            std::vector<Label>(D.labels().begin(), D.labels().end()));
      };
      ConstraintSet Merged;
      for (const SubtypeConstraint &SC : Pruned.subtypes()) {
        DerivedTypeVariable L = Apply(SC.Lhs), R2 = Apply(SC.Rhs);
        if (L != R2)
          Merged.addSubtype(std::move(L), std::move(R2));
      }
      for (const AddSubConstraint &AC : Pruned.addSubs())
        Merged.addAddSub(AddSubConstraint{AC.IsSub, Apply(AC.X),
                                          Apply(AC.Y), Apply(AC.Z)});
      Pruned = std::move(Merged);
    }
  }

  ConstraintSet Final = std::move(Pruned);
  for (const DerivedTypeVariable &V : Out.vars())
    Final.addVar(V);

  TypeScheme Scheme;
  Scheme.ProcVar = ProcVar;
  for (TypeVariable V : Existentials)
    if (Existential.count(V))
      Scheme.Existentials.push_back(V);
  Scheme.Constraints = std::move(Final);
  return Scheme;
}
