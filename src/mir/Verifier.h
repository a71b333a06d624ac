//===- Verifier.h - Structural module verification ------------*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The module verifier: exhaustive structural checks on loaded MIR before
/// any analysis runs — operand arity per opcode, register-class sanity,
/// branch/call/global targets in range, duplicate names, and name-map
/// consistency. It is the strict error-only front gate: everything it
/// reports means the module must not reach ConstraintGen, and every
/// finding carries a precise location that renders as
/// `file:line: error: ...` when the producer supplies a line table
/// (AsmParser::lineTable) and as `function 'f' instr #k` otherwise.
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_MIR_VERIFIER_H
#define RETYPD_MIR_VERIFIER_H

#include "mir/MIR.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace retypd {

/// One verifier finding, anchored to a function and (usually) an
/// instruction within it.
struct ModuleDiag {
  static constexpr uint32_t NoPos = 0xffffffffu;
  uint32_t Func = NoPos;  ///< function index, NoPos for module-level
  uint32_t Instr = NoPos; ///< instruction index, NoPos for function-level
  std::string Message;
};

/// Result of verifyModule: every rule violation found (NOT just the
/// first), in deterministic module order.
struct ModuleVerifyResult {
  std::vector<ModuleDiag> Errors;
  bool ok() const { return Errors.empty(); }
};

/// Checks every structural rule on \p M. All findings are errors and the
/// walk never stops at the first one.
ModuleVerifyResult verifyModule(const Module &M);

/// Renders \p R one finding per line. With \p Lines (the producer's
/// per-function instruction -> 1-based source line table, see
/// AsmParser::lineTable) findings render as "<file>:<line>: error: msg";
/// without it as "<file>: function 'f' instr #k: error: msg". \p File is
/// the input name used as the diagnostic prefix ("<module>" when empty).
std::string renderModuleDiags(
    const Module &M, const ModuleVerifyResult &R, std::string_view File = {},
    const std::vector<std::vector<uint32_t>> *Lines = nullptr);

} // namespace retypd

#endif // RETYPD_MIR_VERIFIER_H
