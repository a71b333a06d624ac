//===- Solver.cpp - Constraint solving into sketches ----------------------===//

#include "core/Solver.h"

#include <algorithm>
#include <cassert>

using namespace retypd;

const Sketch &SketchSolution::sketchFor(TypeVariable V) const {
  static const Sketch Trivial;
  auto It = Sketches.find(V);
  return It == Sketches.end() ? Trivial : It->second;
}

namespace {

/// Per-shape-class information gathered before sketch extraction.
struct ClassInfo {
  // Join of type constants known to be lower bounds / meet of uppers.
  LatticeElem Lower = Lattice::Bottom;
  LatticeElem Upper = Lattice::Top;
  bool HasLower = false;
  bool HasUpper = false;
  bool PointerLike = false;
  bool IntegerLike = false;
  // All distinct upper-bound constants, for union resolution when their
  // meet collapses to ⊥ (Example 4.2).
  std::vector<LatticeElem> UpperList;
};

} // namespace

bool SketchSolver::hasCapability(const ConstraintSet &C,
                                 const DerivedTypeVariable &Dtv) {
  ShapeGraph Shapes(C);
  return Shapes.classOf(Dtv) != ShapeGraph::NoClass;
}

SketchSolution SketchSolver::solve(const ConstraintSet &C,
                                   std::span<const TypeVariable> Wanted) const {
  ShapeGraph Shapes(C);

  ConstraintGraph G(C);
  G.saturate();

  // ---- Lattice bounds (Appendix D.4) ----
  // Constants are visited in node-id order and each sweep reports nodes in
  // breadth-first order: that order fills UpperList, which feeds the
  // Conflicts antichain. One scratch serves every sweep, and each node's
  // shape class is looked up once. Info is indexed by class id; a class
  // never touched keeps the defaults, which decorate like no information.
  std::vector<ClassInfo> Info(Shapes.size());
  constexpr uint32_t Unresolved = 0xfffffffeu;
  static_assert(Unresolved != ShapeGraph::NoClass);
  std::vector<uint32_t> NodeClass(G.numNodes(), Unresolved);
  auto ClassOfNode = [&](GraphNodeId N) -> uint32_t {
    if (NodeClass[N] == Unresolved)
      NodeClass[N] = Shapes.classOf(G.dtv(N));
    return NodeClass[N];
  };
  OneReachScratch Reach;
  for (GraphNodeId N = 0; N < G.numNodes(); ++N) {
    const TypeVariable Base = G.base(N);
    if (!Base.isConstant() || !G.isBaseOnly(N))
      continue;
    LatticeElem Kappa = Base.latticeElem();
    if (G.node(N).Tag == Variance::Covariant) {
      // 1-paths (κ,⊕) → (n,⊕) witness κ <= dtv(n): lower bounds.
      for (GraphNodeId M : G.oneReachableFrom(N, Reach)) {
        if (M == N)
          continue;
        uint32_t Cls = ClassOfNode(M);
        if (Cls == ShapeGraph::NoClass)
          continue;
        ClassInfo &CI = Info[Cls];
        CI.Lower = CI.HasLower ? Lat.join(CI.Lower, Kappa) : Kappa;
        CI.HasLower = true;
      }
    } else {
      // Mirror paths (κ,⊖) → (n,⊖) witness dtv(n) <= κ: upper bounds.
      for (GraphNodeId M : G.oneReachableFrom(N, Reach)) {
        if (M == N)
          continue;
        uint32_t Cls = ClassOfNode(M);
        if (Cls == ShapeGraph::NoClass)
          continue;
        ClassInfo &CI = Info[Cls];
        CI.Upper = CI.HasUpper ? Lat.meet(CI.Upper, Kappa) : Kappa;
        CI.HasUpper = true;
        if (std::find(CI.UpperList.begin(), CI.UpperList.end(), Kappa) ==
            CI.UpperList.end())
          CI.UpperList.push_back(Kappa);
      }
    }
  }

  // ---- Pointer/integer classification (Figure 13) ----
  // Seeds: classes with load/store capabilities are pointers; classes with
  // numeric lattice bounds are integers.
  for (const auto &Entry : Shapes.nodes()) {
    uint32_t Cls = Shapes.canonical(Entry.second);
    if (Shapes.isPointerClass(Cls))
      Info[Cls].PointerLike = true;
  }
  for (ClassInfo &CI : Info) {
    if (CI.HasLower && CI.Lower != Lattice::Bottom && Lat.isNumeric(CI.Lower))
      CI.IntegerLike = true;
    if (CI.HasUpper && CI.Upper != Lattice::Top && Lat.isNumeric(CI.Upper))
      CI.IntegerLike = true;
  }
  // Fixpoint over the ADD/SUB rules.
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
    return Cls != ShapeGraph::NoClass && Info[Cls].PointerLike;
  };
  auto IsInt = [&](uint32_t Cls) {
    return Cls != ShapeGraph::NoClass && Info[Cls].IntegerLike;
  };
  // Shape classes of each additive constraint's operands, looked up once.
  struct AddSubClasses {
    bool IsSub;
    uint32_t X, Y, Z;
  };
  std::vector<AddSubClasses> AddSubs;
  AddSubs.reserve(C.addSubs().size());
  for (const AddSubConstraint &AC : C.addSubs())
    AddSubs.push_back({AC.IsSub, Shapes.classOf(AC.X), Shapes.classOf(AC.Y),
                       Shapes.classOf(AC.Z)});
  while (Changed) {
    Changed = false;
    for (const auto &[IsSub, X, Y, Z] : AddSubs) {
      if (!IsSub) {
        // Z = X + Y (Figure 13, ADD columns).
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
        // Z = X - Y (Figure 13, SUB columns).
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

  // Post-fixpoint defaults (display-policy downgrades, §4.3): a value that
  // flows through addition/subtraction with no pointer evidence anywhere is
  // an integer; integer-like classes with no scalar upper bound get num32.
  for (const AddSubClasses &AS : AddSubs) {
    if (!IsPtr(AS.X) && !IsPtr(AS.Y) && !IsPtr(AS.Z)) {
      Mark(AS.X, false, true);
      Mark(AS.Y, false, true);
      Mark(AS.Z, false, true);
    }
  }
  if (auto Num32 = Lat.lookup("num32")) {
    for (ClassInfo &CI : Info) {
      if (CI.IntegerLike && !CI.PointerLike && !CI.HasUpper) {
        CI.Upper = *Num32;
        CI.HasUpper = true;
      }
    }
  }

  // ---- Sketch extraction ----
  // Sketch states are (class, variance) pairs, found through a dense
  // (2 * class + variance) table that each wanted variable resets after
  // use; the breadth-first queue fixes the node numbering.
  constexpr uint32_t NoState = 0xffffffffu;
  std::vector<uint32_t> StateOf(2 * Shapes.size(), NoState);
  auto stateKey = [](uint32_t Cls, Variance Var) {
    return 2 * Cls + (Var == Variance::Contravariant ? 1 : 0);
  };
  std::vector<uint32_t> Work;
  SketchSolution Solution;
  for (TypeVariable V : Wanted) {
    uint32_t Root = Shapes.classOf(DerivedTypeVariable(V));
    Sketch S;
    if (Root == ShapeGraph::NoClass) {
      Solution.Sketches.emplace(V, std::move(S));
      continue;
    }
    auto Decorate = [&](uint32_t SketchNode, uint32_t Cls, Variance Var) {
      Sketch::Node &N = S.node(SketchNode);
      const ClassInfo &CI = Info[Cls];
      if (Var == Variance::Covariant)
        N.Mark = CI.HasLower ? CI.Lower : (CI.HasUpper ? CI.Upper
                                                       : Lattice::Top);
      else
        N.Mark = CI.HasUpper ? CI.Upper : (CI.HasLower ? CI.Lower
                                                       : Lattice::Top);
      if (CI.HasLower)
        N.Lower = CI.Lower;
      if (CI.HasUpper)
        N.Upper = CI.Upper;
      N.PointerLike = CI.PointerLike;
      N.IntegerLike = CI.IntegerLike;
      // Conflicting scalar bounds: keep the minimal antichain for union
      // resolution (Example 4.2).
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

    // BFS from the root; Work holds state keys and doubles as the FIFO
    // queue and the list of table entries to reset.
    Work.assign(1, stateKey(Root, Variance::Covariant));
    StateOf[Work[0]] = S.root();
    Decorate(S.root(), Root, Variance::Covariant);
    for (size_t I = 0; I < Work.size(); ++I) {
      const uint32_t Cls = Work[I] / 2;
      const Variance Var =
          Work[I] % 2 ? Variance::Contravariant : Variance::Covariant;
      const uint32_t From = StateOf[Work[I]];
      for (const auto &[L, RawChild] : Shapes.childrenOf(Cls)) {
        uint32_t Child = Shapes.canonical(RawChild);
        Variance CV = compose(Var, L.variance());
        uint32_t Key = stateKey(Child, CV);
        if (StateOf[Key] == NoState) {
          StateOf[Key] = S.addNode();
          Decorate(StateOf[Key], Child, CV);
          Work.push_back(Key);
        }
        S.addEdge(From, L, StateOf[Key]);
      }
    }
    for (uint32_t Key : Work)
      StateOf[Key] = NoState;
    Solution.Sketches.emplace(V, std::move(S));
  }
  return Solution;
}
