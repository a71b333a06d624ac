//===- PropertyTest.cpp - Parameterized property suites ----------------------===//
//
// Property-style sweeps over randomized inputs (seeded, deterministic):
//  - Λ lattice laws on random element pairs/triples;
//  - sketch lattice laws (Figure 18) on random sketches;
//  - constraint-graph mirror symmetry (Lemma D.1): A <= B is witnessed by
//    a covariant path iff the contravariant mirror path exists;
//  - saturation monotonicity: adding constraints never removes derivable
//    facts.
//
//===----------------------------------------------------------------------===//

#include "core/ConstraintGraph.h"
#include "core/ConstraintParser.h"
#include "core/Sketch.h"

#include <gtest/gtest.h>

#include <random>

using namespace retypd;

//===----------------------------------------------------------------------===//
// Λ lattice laws
//===----------------------------------------------------------------------===//

class LatticeLaws : public ::testing::TestWithParam<unsigned> {};

TEST_P(LatticeLaws, MeetJoinLaws) {
  Lattice L = makeDefaultLattice();
  std::mt19937 Rng(GetParam());
  std::uniform_int_distribution<LatticeElem> Pick(
      0, static_cast<LatticeElem>(L.size() - 1));

  for (int Round = 0; Round < 200; ++Round) {
    LatticeElem A = Pick(Rng), B = Pick(Rng), C = Pick(Rng);

    // Commutativity.
    EXPECT_EQ(L.join(A, B), L.join(B, A));
    EXPECT_EQ(L.meet(A, B), L.meet(B, A));
    // Idempotence.
    EXPECT_EQ(L.join(A, A), A);
    EXPECT_EQ(L.meet(A, A), A);
    // Bound laws.
    EXPECT_TRUE(L.leq(A, L.join(A, B)));
    EXPECT_TRUE(L.leq(L.meet(A, B), A));
    // Absorption.
    EXPECT_EQ(L.join(A, L.meet(A, B)), A);
    EXPECT_EQ(L.meet(A, L.join(A, B)), A);
    // Associativity.
    EXPECT_EQ(L.join(L.join(A, B), C), L.join(A, L.join(B, C)));
    EXPECT_EQ(L.meet(L.meet(A, B), C), L.meet(A, L.meet(B, C)));
    // Consistency of leq with meet/join.
    if (L.leq(A, B)) {
      EXPECT_EQ(L.join(A, B), B);
      EXPECT_EQ(L.meet(A, B), A);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticeLaws,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

//===----------------------------------------------------------------------===//
// Sketch lattice laws (Figure 18)
//===----------------------------------------------------------------------===//

namespace {

/// Builds a random sketch with up to \p MaxNodes states (cycles allowed).
Sketch randomSketch(std::mt19937 &Rng, const Lattice &L,
                    unsigned MaxNodes = 5) {
  std::uniform_int_distribution<unsigned> NodeCount(1, MaxNodes);
  std::uniform_int_distribution<LatticeElem> Mark(
      0, static_cast<LatticeElem>(L.size() - 1));
  unsigned N = NodeCount(Rng);
  Sketch S;
  S.node(S.root()).Mark = Mark(Rng);
  for (unsigned I = 1; I < N; ++I)
    S.addNode(Mark(Rng));
  // Random edges over a small label alphabet.
  const Label Labels[] = {Label::load(), Label::store(),
                          Label::field(32, 0), Label::field(32, 4),
                          Label::in(0), Label::out()};
  std::uniform_int_distribution<unsigned> PickLabel(0, 5);
  std::uniform_int_distribution<uint32_t> PickNode(0, N - 1);
  unsigned Edges = NodeCount(Rng) + 1;
  for (unsigned E = 0; E < Edges; ++E)
    S.addEdge(PickNode(Rng), Labels[PickLabel(Rng)], PickNode(Rng));
  return S;
}

} // namespace

class SketchLaws : public ::testing::TestWithParam<unsigned> {};

TEST_P(SketchLaws, LatticeLawsOnRandomSketches) {
  Lattice L = makeDefaultLattice();
  std::mt19937 Rng(GetParam());
  for (int Round = 0; Round < 25; ++Round) {
    Sketch A = randomSketch(Rng, L);
    Sketch B = randomSketch(Rng, L);

    Sketch M = Sketch::meet(A, B, L);
    Sketch J = Sketch::join(A, B, L);

    // Bound properties.
    EXPECT_TRUE(Sketch::leq(M, A, L));
    EXPECT_TRUE(Sketch::leq(M, B, L));
    EXPECT_TRUE(Sketch::leq(A, J, L));
    EXPECT_TRUE(Sketch::leq(B, J, L));
    // Idempotence up to bisimulation.
    EXPECT_TRUE(Sketch::equal(Sketch::meet(A, A, L), A, L));
    EXPECT_TRUE(Sketch::equal(Sketch::join(A, A, L), A, L));
    // Commutativity up to bisimulation.
    EXPECT_TRUE(Sketch::equal(M, Sketch::meet(B, A, L), L));
    EXPECT_TRUE(Sketch::equal(J, Sketch::join(B, A, L), L));
    // leq is a partial order on the generated sample.
    EXPECT_TRUE(Sketch::leq(A, A, L));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SketchLaws,
                         ::testing::Values(11u, 12u, 13u, 14u));

//===----------------------------------------------------------------------===//
// Constraint-graph properties
//===----------------------------------------------------------------------===//

namespace {

/// A random constraint set over a small variable pool, with field accesses.
ConstraintSet randomConstraints(std::mt19937 &Rng, SymbolTable &Syms,
                                const Lattice &Lat) {
  ConstraintParser P(Syms, Lat);
  const char *Vars[] = {"a", "b", "c", "d", "p", "q"};
  const char *Words[] = {"",          ".load",          ".store",
                         ".load.s32@0", ".store.s32@0", ".load.s32@4"};
  std::uniform_int_distribution<unsigned> PickVar(0, 5), PickWord(0, 5),
      Count(3, 10);
  std::string Text;
  unsigned N = Count(Rng);
  for (unsigned I = 0; I < N; ++I) {
    Text += std::string(Vars[PickVar(Rng)]) + Words[PickWord(Rng)] +
            " <= " + Vars[PickVar(Rng)] + Words[PickWord(Rng)] + "\n";
  }
  auto C = P.parse(Text);
  EXPECT_TRUE(C) << P.error();
  return C ? *C : ConstraintSet();
}

bool pathCoTo(const ConstraintGraph &G, GraphNodeId From, GraphNodeId To) {
  if (From == ConstraintGraph::NoNode || To == ConstraintGraph::NoNode)
    return false;
  for (GraphNodeId N : G.oneReachableFrom(From))
    if (N == To)
      return true;
  return false;
}

} // namespace

class GraphLaws : public ::testing::TestWithParam<unsigned> {};

// Lemma D.1: the saturated graph is mirror-symmetric — a covariant 1-path
// A→B exists iff the contravariant 1-path B→A does.
TEST_P(GraphLaws, MirrorSymmetry) {
  Lattice Lat = makeDefaultLattice();
  std::mt19937 Rng(GetParam());
  for (int Round = 0; Round < 15; ++Round) {
    SymbolTable Syms;
    ConstraintSet C = randomConstraints(Rng, Syms, Lat);
    ConstraintGraph G(C);
    G.saturate();
    for (GraphNodeId A = 0; A < G.numNodes(); ++A) {
      if (G.node(A).Tag != Variance::Covariant)
        continue;
      GraphNodeId AMirror =
          G.lookup(G.dtv(A), Variance::Contravariant);
      for (GraphNodeId B : G.oneReachableFrom(A)) {
        if (G.node(B).Tag != Variance::Covariant)
          continue;
        GraphNodeId BMirror =
            G.lookup(G.dtv(B), Variance::Contravariant);
        if (AMirror == ConstraintGraph::NoNode ||
            BMirror == ConstraintGraph::NoNode)
          continue;
        EXPECT_TRUE(pathCoTo(G, BMirror, AMirror))
            << G.dtv(A).str(Syms, Lat) << " <= "
            << G.dtv(B).str(Syms, Lat)
            << " has no mirror derivation";
      }
    }
  }
}

// Monotonicity: adding a constraint never removes derivable facts.
TEST_P(GraphLaws, SaturationMonotone) {
  Lattice Lat = makeDefaultLattice();
  std::mt19937 Rng(GetParam() + 100);
  for (int Round = 0; Round < 10; ++Round) {
    SymbolTable Syms;
    ConstraintSet C = randomConstraints(Rng, Syms, Lat);
    ConstraintGraph G1(C);
    G1.saturate();

    ConstraintParser P(Syms, Lat);
    ConstraintSet C2 = C;
    C2.addSubtype(*P.parseDtv("a"), *P.parseDtv("q"));
    ConstraintGraph G2(C2);
    G2.saturate();

    for (GraphNodeId A = 0; A < G1.numNodes(); ++A) {
      for (GraphNodeId B : G1.oneReachableFrom(A)) {
        GraphNodeId A2 = G2.lookup(G1.dtv(A), G1.node(A).Tag);
        GraphNodeId B2 = G2.lookup(G1.dtv(B), G1.node(B).Tag);
        EXPECT_TRUE(pathCoTo(G2, A2, B2) || A2 == B2);
      }
    }
  }
}

// Saturation terminates and is idempotent: re-running adds nothing.
TEST_P(GraphLaws, SaturationIdempotent) {
  Lattice Lat = makeDefaultLattice();
  std::mt19937 Rng(GetParam() + 200);
  SymbolTable Syms;
  ConstraintSet C = randomConstraints(Rng, Syms, Lat);
  ConstraintGraph G(C);
  G.saturate();
  size_t Edges = G.numSaturationEdges();
  G.saturate();
  EXPECT_EQ(G.numSaturationEdges(), Edges);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphLaws,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u));
