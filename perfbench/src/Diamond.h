//===- Diamond.h - Fork/join diamond ladder and its expected types -*- C++ -*-===//
//
// Part of the retypd benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The diamond ladder of the scheduler tests: d0 <- {a1, b1} <- d1 <- ...
/// Every layer doubles the call paths into d0, so the callee summaries
/// each SCC instantiates double too. The expected prototypes are derived
/// by hand from the shape, per solver backend, so the benchmark checks the
/// program's output without running the program to make the reference.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_DIAMOND_H
#define PERFBENCH_DIAMOND_H

#include "eval/GroundTruth.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Assembly text of a ladder of \p Layers diamonds. \p Seed picks the
/// immediates (the constant added in d0 and the constants pushed by each
/// dN), which do not change any type.
std::string diamondAsm(unsigned Layers, uint64_t Seed);

/// The prototype the \p Backend ("retypd" or "binsub") must infer for the
/// ladder function \p Name, or "" when \p Name is not a ladder function.
///
///   d0:            int d0(int)               both backends
///   a1, b1:        int a1(int)               both backends
///   dN:            retypd: N = 1: int d1(void); N >= 2: uint32_t dN(void)
///                  binsub: int dN(void)
///   aN, bN, N>=2:  retypd: uint32_t aN(uint32_t)
///                  binsub: int aN(uint32_t)
std::string expectedDiamondPrototype(const std::string &Backend,
                                     const std::string &Name);

/// Checks (function name, rendered prototype) pairs of a ladder of
/// \p Layers diamonds against the pattern. Returns one message per
/// mismatch, missing function or unexpected function (empty = pass).
std::vector<std::string>
checkDiamondPrototypes(const std::string &Backend, unsigned Layers,
                       const std::vector<std::pair<std::string, std::string>>
                           &Prototypes);

/// Source-level types of the ladder: every value is a 32-bit int, so
/// d0/aN/bN are `int f(int)` and dN is `int dN(void)`. The precision
/// metrics score the diamond-ladder reports against this.
retypd::GroundTruth diamondTruth(unsigned Layers);

} // namespace perfbench

#endif // PERFBENCH_DIAMOND_H
