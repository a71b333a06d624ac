//===- Simplifier.cpp - Constraint-set simplification (§5) ----------------===//

#include "core/Simplifier.h"

#include "core/ShapeGraph.h"

#include <algorithm>
#include <cassert>
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
  const size_t NumStates = 2 * NumNodes;

  // Sources and sinks of the product automaton: base nodes of interesting
  // variables.
  std::vector<uint8_t> Terminal(NumNodes, 0);
  for (GraphNodeId N = 0; N < NumNodes; ++N)
    Terminal[N] = G.isBaseOnly(N) && IsInteresting(G.base(N));

  // Forward reachability over the phase product automaton. Sources:
  // terminal nodes, both variance tags, in recall phase. Work doubles as
  // the FIFO queue (visit order is push order).
  std::vector<uint8_t> Fwd(NumStates, 0);
  std::vector<uint32_t> Work;
  Work.reserve(NumStates);
  auto Reach = [&](std::vector<uint8_t> &Seen, uint32_t S) {
    if (!Seen[S]) {
      Seen[S] = 1;
      Work.push_back(S);
    }
  };
  for (GraphNodeId N = 0; N < NumNodes; ++N)
    if (Terminal[N])
      Reach(Fwd, productState(N, RecallPhase));
  for (size_t I = 0; I < Work.size(); ++I) {
    uint32_t S = Work[I];
    GraphNodeId N = S / 2;
    Phase P = static_cast<Phase>(S % 2);
    for (const GraphEdge &E : G.edgesFrom(N)) {
      switch (E.Kind) {
      case EdgeKind::One:
        Reach(Fwd, productState(E.To, P));
        break;
      case EdgeKind::Recall:
        if (P == RecallPhase)
          Reach(Fwd, productState(E.To, RecallPhase));
        break;
      case EdgeKind::Forget:
        Reach(Fwd, productState(E.To, ForgetPhase));
        break;
      }
    }
  }

  // Backward co-reachability to sinks (terminal nodes, any phase) over the
  // reverse product adjacency, laid out flat (CSR): predecessors of state
  // S are RevPred[RevStart[S] .. RevStart[S+1]).
  std::vector<uint32_t> RevStart(NumStates + 1, 0);
  auto ForEachReverse = [&](auto &&Emit) {
    for (GraphNodeId N = 0; N < NumNodes; ++N) {
      for (const GraphEdge &E : G.edgesFrom(N)) {
        switch (E.Kind) {
        case EdgeKind::One:
          Emit(productState(E.To, RecallPhase), productState(N, RecallPhase));
          Emit(productState(E.To, ForgetPhase), productState(N, ForgetPhase));
          break;
        case EdgeKind::Recall:
          Emit(productState(E.To, RecallPhase), productState(N, RecallPhase));
          break;
        case EdgeKind::Forget:
          Emit(productState(E.To, ForgetPhase), productState(N, RecallPhase));
          Emit(productState(E.To, ForgetPhase), productState(N, ForgetPhase));
          break;
        }
      }
    }
  };
  ForEachReverse([&](uint32_t S, uint32_t) { ++RevStart[S + 1]; });
  for (size_t S = 0; S < NumStates; ++S)
    RevStart[S + 1] += RevStart[S];
  std::vector<uint32_t> RevPred(RevStart[NumStates]);
  {
    std::vector<uint32_t> Fill(RevStart.begin(), RevStart.end() - 1);
    ForEachReverse(
        [&](uint32_t S, uint32_t Prev) { RevPred[Fill[S]++] = Prev; });
  }
  std::vector<uint8_t> Bwd(NumStates, 0);
  Work.clear();
  for (GraphNodeId N = 0; N < NumNodes; ++N) {
    if (Terminal[N]) {
      Reach(Bwd, productState(N, RecallPhase));
      Reach(Bwd, productState(N, ForgetPhase));
    }
  }
  for (size_t I = 0; I < Work.size(); ++I) {
    uint32_t S = Work[I];
    for (uint32_t J = RevStart[S]; J < RevStart[S + 1]; ++J)
      Reach(Bwd, RevPred[J]);
  }

  // A graph node survives if some product state is both reachable and
  // co-reachable.
  std::vector<uint8_t> Alive(NumNodes, 0);
  for (GraphNodeId N = 0; N < NumNodes; ++N)
    for (Phase P : {RecallPhase, ForgetPhase})
      if (Fwd[productState(N, P)] && Bwd[productState(N, P)])
        Alive[N] = 1;

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
  // Existentials in creation order; a variable's position is its ordinal,
  // which indexes the dense per-existential state of the tidy pass.
  // Live[k] says whether Existentials[k] is still an existential of the
  // scheme (atomization and inlining retire them).
  std::vector<TypeVariable> Existentials;
  std::vector<uint8_t> Live;
  std::unordered_map<TypeVariable, uint32_t> Ordinal;
  constexpr uint32_t NoOrdinal = 0xffffffffu;
  auto OrdinalOf = [&](TypeVariable V) {
    auto It = Ordinal.find(V);
    return It == Ordinal.end() ? NoOrdinal : It->second;
  };
  auto AddExistential = [&](TypeVariable Fresh) {
    Ordinal.emplace(Fresh, static_cast<uint32_t>(Existentials.size()));
    Existentials.push_back(Fresh);
    Live.push_back(1);
  };
  std::unordered_map<TypeVariable, TypeVariable> Renamed;
  auto RenameBase = [&](TypeVariable Base) {
    if (IsInteresting(Base))
      return Base;
    auto [It, Inserted] = Renamed.try_emplace(Base);
    if (Inserted) {
      It->second = FreshVar();
      AddExistential(It->second);
    }
    return It->second;
  };
  auto Rename = [&](const DerivedTypeVariable &Dtv) {
    return DerivedTypeVariable(RenameBase(Dtv.base()),
                               std::vector<Label>(Dtv.labels().begin(),
                                                  Dtv.labels().end()));
  };

  // Emit one constraint per surviving 1-edge, oriented by the tag. Fresh
  // names are drawn in the order this loop first meets each base (the
  // graph's order contract, core/ConstraintGraph.h); a node's renamed base
  // is cached after its first visit.
  std::vector<TypeVariable> RenamedOf(NumNodes);
  auto RenameNode = [&](GraphNodeId N) {
    if (!RenamedOf[N].isValid())
      RenamedOf[N] = RenameBase(G.base(N));
    return RenamedOf[N];
  };
  auto NodeDtv = [&](TypeVariable Base, GraphNodeId N) {
    std::span<const Label> W = G.labels(N);
    return DerivedTypeVariable(Base, std::vector<Label>(W.begin(), W.end()));
  };
  ConstraintSet Out;
  for (GraphNodeId N = 0; N < NumNodes; ++N) {
    if (!Alive[N])
      continue;
    const GraphNode &From = G.node(N);
    for (const GraphEdge &E : G.edgesFrom(N)) {
      if (E.Kind != EdgeKind::One || !Alive[E.To])
        continue;
      TypeVariable A = RenameNode(N);
      TypeVariable B = RenameNode(E.To);
      if (A == B && (From.Dtv == G.node(E.To).Dtv ||
                     std::ranges::equal(G.labels(N), G.labels(E.To))))
        continue;
      if (From.Tag == Variance::Covariant)
        Out.addSubtype(NodeDtv(A, N), NodeDtv(B, E.To));
      else
        Out.addSubtype(NodeDtv(B, E.To), NodeDtv(A, N));
    }
  }

  // Keep capability declarations rooted at the procedure variable.
  for (GraphNodeId N = 0; N < NumNodes; ++N)
    if (Alive[N] && G.base(N) == ProcVar &&
        G.node(N).Tag == Variance::Covariant)
      Out.addVar(G.dtv(N));

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

  // First-label atomization: when an existential base never occurs bare
  // and all of its occurrences start with .in_i or .out labels, the label
  // groups cannot interact (no constraints relate them through the base,
  // and S-POINTER only couples .load/.store). Splitting τ.in0... / τ.out...
  // onto independent fresh variables lets the relay-inlining below remove
  // callsite instances entirely.
  {
    // Per ordinal: -1 = not seen, 1 = eligible, 0 = not eligible.
    std::vector<int8_t> Eligible(Existentials.size(), -1);
    auto Inspect = [&](const DerivedTypeVariable &D) {
      uint32_t K = OrdinalOf(D.base());
      if (K == NoOrdinal || !Live[K])
        return;
      if (Eligible[K] < 0)
        Eligible[K] = 1;
      if (D.isBaseOnly() || (!D.labels()[0].isIn() && !D.labels()[0].isOut()))
        Eligible[K] = 0;
    };
    for (const SubtypeConstraint &SC : Subs) {
      Inspect(SC.Lhs);
      Inspect(SC.Rhs);
    }
    for (const AddSubConstraint &AC : Out.addSubs())
      for (const DerivedTypeVariable *D : {&AC.X, &AC.Y, &AC.Z}) {
        uint32_t K = OrdinalOf(D->base());
        if (K != NoOrdinal && Live[K])
          Eligible[K] = 0;
      }

    std::map<std::pair<TypeVariable, Label>, TypeVariable> Split;
    auto Atomize = [&](DerivedTypeVariable &D) {
      uint32_t K = OrdinalOf(D.base());
      if (K >= Eligible.size() || Eligible[K] != 1)
        return;
      auto Key = std::make_pair(D.base(), D.labels()[0]);
      auto SIt = Split.find(Key);
      if (SIt == Split.end()) {
        SIt = Split.emplace(Key, FreshVar()).first;
        AddExistential(SIt->second);
      }
      D = DerivedTypeVariable(
          SIt->second,
          std::vector<Label>(D.labels().begin() + 1, D.labels().end()));
    };
    for (SubtypeConstraint &SC : Subs) {
      Atomize(SC.Lhs);
      Atomize(SC.Rhs);
    }
    for (size_t K = 0; K < Eligible.size(); ++K)
      if (Eligible[K] == 1)
        Live[K] = 0;
  }
  const size_t NumExistentials = Existentials.size();
  // Variables used in additive constraints cannot be inlined away.
  std::vector<uint8_t> Protected(NumExistentials, 0);
  for (const AddSubConstraint &AC : Out.addSubs())
    for (const DerivedTypeVariable *D : {&AC.X, &AC.Y, &AC.Z})
      if (uint32_t K = OrdinalOf(D->base()); K != NoOrdinal)
        Protected[K] = 1;

  // Occurrence census per existential ordinal: uses under a label, bare
  // right-hand sides (inflows) and bare left-hand sides (outflows).
  std::vector<uint32_t> Extended(NumExistentials), AsRhs(NumExistentials),
      AsLhs(NumExistentials);
  std::vector<SubtypeConstraint> Next;
  std::vector<DerivedTypeVariable> Ins, Outs;
  for (unsigned Iter = 0; Iter < Opts.MaxTidyIterations; ++Iter) {
    std::fill(Extended.begin(), Extended.end(), 0);
    std::fill(AsRhs.begin(), AsRhs.end(), 0);
    std::fill(AsLhs.begin(), AsLhs.end(), 0);
    for (const SubtypeConstraint &SC : Subs) {
      for (const DerivedTypeVariable *D : {&SC.Lhs, &SC.Rhs}) {
        uint32_t K = OrdinalOf(D->base());
        if (K == NoOrdinal)
          continue;
        if (!D->isBaseOnly())
          ++Extended[K];
        else if (D == &SC.Lhs)
          ++AsLhs[K];
        else
          ++AsRhs[K];
      }
    }

    // The first live, unprotected existential (in creation order) that
    // only relays base-only chains and is cheap to inline.
    uint32_t VictimK = NoOrdinal;
    for (uint32_t K = 0; K < NumExistentials; ++K) {
      if (!Live[K] || Protected[K] || Extended[K])
        continue;
      size_t In = AsRhs[K], Niche = AsLhs[K];
      if (In * Niche <= In + Niche + Opts.BloatSlack) {
        VictimK = K;
        break;
      }
    }
    if (VictimK == NoOrdinal)
      break;
    const TypeVariable Victim = Existentials[VictimK];

    Next.clear();
    Ins.clear();
    Outs.clear();
    for (SubtypeConstraint &SC : Subs) {
      bool IsIn = SC.Rhs.isBaseOnly() && SC.Rhs.base() == Victim;
      bool IsOut = SC.Lhs.isBaseOnly() && SC.Lhs.base() == Victim;
      if (IsIn && IsOut)
        continue; // τ <= τ
      if (IsIn)
        Ins.push_back(std::move(SC.Lhs));
      else if (IsOut)
        Outs.push_back(std::move(SC.Rhs));
      else
        Next.push_back(std::move(SC));
    }
    for (const DerivedTypeVariable &A : Ins)
      for (const DerivedTypeVariable &B : Outs)
        if (A != B)
          Next.push_back(SubtypeConstraint{A, B});
    std::swap(Subs, Next);
    Live[VictimK] = 0;
  }

  ConstraintSet Pruned;
  for (SubtypeConstraint &SC : Subs)
    Pruned.addSubtype(std::move(SC.Lhs), std::move(SC.Rhs));
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
    for (size_t K = 0; K < NumExistentials; ++K) {
      if (!Live[K])
        continue;
      TypeVariable V = Existentials[K];
      uint32_t Cls = Shapes.classOf(DerivedTypeVariable(V));
      if (Cls == ShapeGraph::NoClass)
        continue;
      auto [It, Inserted] = RepOfClass.emplace(Cls, V);
      if (!Inserted) {
        Merge[V] = It->second;
        Live[K] = 0;
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
  for (size_t K = 0; K < NumExistentials; ++K)
    if (Live[K])
      Scheme.Existentials.push_back(Existentials[K]);
  Scheme.Constraints = std::move(Final);
  return Scheme;
}
