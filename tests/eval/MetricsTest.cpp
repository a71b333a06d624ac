//===- MetricsTest.cpp - TIE metric unit tests ---------------------------------===//

#include "eval/Metrics.h"

#include <gtest/gtest.h>

using namespace retypd;

// Names below are set with append(), not `= "X"`: GCC 12 reports a false
// -Wrestrict for a one-character literal assigned to a std::string under
// -fsanitize=address, and CI builds with warnings as errors.

namespace {

class MetricsTest : public ::testing::Test {
protected:
  MetricsTest() : Lat(makeDefaultLattice()), Eval(Lat) {}

  Lattice Lat;
  Evaluator Eval;
  CTypePool P;
};

} // namespace

TEST_F(MetricsTest, IdenticalTypesHaveZeroDistance) {
  CTypeId A = P.intType(32, true);
  CTypeId B = P.intType(32, true);
  EXPECT_EQ(Eval.typeDistance(P, A, P, B), 0);
}

TEST_F(MetricsTest, SignednessMismatchCostsOne) {
  CTypeId A = P.intType(32, true);
  CTypeId B = P.intType(32, false);
  EXPECT_EQ(Eval.typeDistance(P, A, P, B), 1);
}

TEST_F(MetricsTest, PointerVsScalarIsMaximal) {
  CTypeId I = P.intType(32, true);
  CTypeId Ptr = P.pointerTo(I);
  EXPECT_EQ(Eval.typeDistance(P, Ptr, P, I), 4);
}

TEST_F(MetricsTest, PointerDistanceHalvesPointeeDistance) {
  CTypeId A = P.pointerTo(P.intType(32, true));
  CTypeId B = P.pointerTo(P.intType(32, false));
  EXPECT_EQ(Eval.typeDistance(P, A, P, B), 0.5);
}

TEST_F(MetricsTest, UnknownIsHalfway) {
  CTypeId U = P.unknownType();
  CTypeId I = P.intType(32, true);
  EXPECT_EQ(Eval.typeDistance(P, U, P, I), 2);
}

TEST_F(MetricsTest, DistanceIsBounded) {
  // Random-ish structural combos stay within [0, 4].
  CTypeId I = P.intType(32, true);
  CTypeId Ptr2 = P.pointerTo(P.pointerTo(I));
  CType St;
  St.K = CType::Kind::Struct;
  St.Name.append("S");
  CTypeId StId = P.make(std::move(St));
  P.get(StId).Fields = {CType::Field{0, I}, CType::Field{4, Ptr2}};
  for (CTypeId A : {I, Ptr2, StId})
    for (CTypeId B : {I, Ptr2, StId}) {
      double D = Eval.typeDistance(P, A, P, B);
      EXPECT_GE(D, 0);
      EXPECT_LE(D, 4);
      if (A == B) {
        EXPECT_EQ(D, 0);
      }
      // Symmetry.
      EXPECT_EQ(D, Eval.typeDistance(P, B, P, A));
    }
}

TEST_F(MetricsTest, IntervalSizeBounds) {
  EXPECT_EQ(Eval.intervalSize(Lattice::Bottom, Lattice::Top), 4);
  LatticeElem Int = *Lat.lookup("int");
  EXPECT_EQ(Eval.intervalSize(Int, Int), 0);
  double D = Eval.intervalSize(Lattice::Bottom, *Lat.lookup("num32"));
  EXPECT_GT(D, 0);
  EXPECT_LT(D, 4);
  // Wider intervals are no smaller.
  double Wider = Eval.intervalSize(Lattice::Bottom, *Lat.lookup("LPARAM"));
  EXPECT_GE(Wider, D);
}

TEST_F(MetricsTest, InconsistentIntervalIsMaximal) {
  EXPECT_EQ(Eval.intervalSize(*Lat.lookup("str"), *Lat.lookup("int")), 4);
}

TEST_F(MetricsTest, SummaryMergeAccumulates) {
  MetricSummary A, B;
  A.Slots = 2;
  A.SumDistance = 1.0;
  A.Conservative = 2;
  B.Slots = 3;
  B.SumDistance = 3.0;
  B.Conservative = 1;
  A.merge(B);
  EXPECT_EQ(A.Slots, 5u);
  EXPECT_DOUBLE_EQ(A.meanDistance(), 0.8);
  EXPECT_DOUBLE_EQ(A.conservativeness(), 0.6);
}

TEST_F(MetricsTest, StructDistanceAveragesFields) {
  CTypeId I = P.intType(32, true);
  CType SA;
  SA.K = CType::Kind::Struct;
  SA.Name.append("A");
  CTypeId AId = P.make(std::move(SA));
  P.get(AId).Fields = {CType::Field{0, I}, CType::Field{4, I}};
  CType SB;
  SB.K = CType::Kind::Struct;
  SB.Name.append("B");
  CTypeId BId = P.make(std::move(SB));
  P.get(BId).Fields = {CType::Field{0, I}, CType::Field{4, I}};
  EXPECT_EQ(Eval.typeDistance(P, AId, P, BId), 0);

  // Dropping one field costs half of a max-mismatch averaged over fields.
  CType SC;
  SC.K = CType::Kind::Struct;
  SC.Name.append("C");
  CTypeId CId = P.make(std::move(SC));
  P.get(CId).Fields = {CType::Field{0, I}};
  double D = Eval.typeDistance(P, AId, P, CId);
  EXPECT_GT(D, 0);
  EXPECT_LE(D, 2);
}
