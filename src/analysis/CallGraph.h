//===- CallGraph.h - Call graph and SCC condensation ----------*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The module call graph and its Tarjan SCC condensation. Type-scheme
/// inference walks the SCCs bottom-up (callees before callers, Algorithm
/// F.1); sketch solving walks them top-down (Algorithm F.2).
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_ANALYSIS_CALLGRAPH_H
#define RETYPD_ANALYSIS_CALLGRAPH_H

#include "mir/MIR.h"

#include <vector>

namespace retypd {

/// Call graph with SCC condensation.
class CallGraph {
public:
  explicit CallGraph(const Module &M);

  /// Direct callees of a function (deduplicated).
  const std::vector<uint32_t> &callees(uint32_t Func) const {
    return Callees[Func];
  }

  /// SCC id of a function.
  uint32_t sccOf(uint32_t Func) const { return SccId[Func]; }

  /// Members of each SCC.
  const std::vector<std::vector<uint32_t>> &sccs() const { return Sccs; }

  /// SCC ids in bottom-up order (callees before callers), in Tarjan
  /// completion order. The pipeline schedules by bottomUpOrder() and
  /// topDownOrder() below — those two sequences are its ordering contract.
  const std::vector<uint32_t> &bottomUp() const { return BottomUp; }

  /// Deduplicated SCC-level callee edges (condensation DAG successors).
  const std::vector<uint32_t> &sccCallees(uint32_t Scc) const {
    return SccSuccs[Scc];
  }

  /// Deduplicated SCC-level caller edges (condensation DAG predecessors —
  /// the reverse of sccCallees). The top-down scheduler counts these as
  /// its dependencies; the bottom-up scheduler notifies them on commit.
  const std::vector<uint32_t> &sccCallers(uint32_t Scc) const {
    return SccPreds[Scc];
  }

  /// Every SCC id, in concatenated bottom-up wave order. This is the
  /// phase-1 commit sequence: a topological order of the condensation
  /// (callees strictly before callers) that is identical for every --jobs
  /// value, and byte-compatible with the historical wave-by-wave commit
  /// order the golden corpus was recorded under.
  const std::vector<uint32_t> &bottomUpOrder() const { return BottomUpSeq; }

  /// Every SCC id, in concatenated top-down wave order (the reverse wave
  /// concatenation, NOT the element-wise reverse of bottomUpOrder). This
  /// is the phase-2 commit sequence: callers strictly before callees, and
  /// exactly the order in which callsite sketches have always been pushed
  /// into the refinement accumulators — sketch joins are order-sensitive,
  /// so this sequence is part of the byte-identity contract.
  const std::vector<uint32_t> &topDownOrder() const { return TopDownSeq; }

  /// The bottom-up wavefront: Waves[0] holds the leaf SCCs (no callees
  /// outside themselves), Waves[k] the SCCs whose deepest callee chain has
  /// length k. Every SCC in a wave depends only on strictly earlier waves,
  /// so the members of one wave can be summarized concurrently. Within a
  /// wave, SCC ids appear in bottom-up order, which makes wave-by-wave
  /// sequential processing a topological order identical for every --jobs
  /// setting.
  const std::vector<std::vector<uint32_t>> &bottomUpWaves() const {
    return Waves;
  }

private:
  std::vector<std::vector<uint32_t>> Callees;
  std::vector<uint32_t> SccId;
  std::vector<std::vector<uint32_t>> Sccs;
  std::vector<uint32_t> BottomUp;
  std::vector<std::vector<uint32_t>> SccSuccs;
  std::vector<std::vector<uint32_t>> SccPreds;
  std::vector<std::vector<uint32_t>> Waves;
  std::vector<uint32_t> BottomUpSeq;
  std::vector<uint32_t> TopDownSeq;
};

} // namespace retypd

#endif // RETYPD_ANALYSIS_CALLGRAPH_H
