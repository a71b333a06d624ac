//===- ConstraintGraph.h - Pushdown-system encoding of C ------*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graph encoding of a constraint set, following Appendix D of the paper.
/// Nodes are (derived type variable, variance tag) pairs; edges are:
///
///   - 1-edges (`One`): for each constraint A <= B, an edge (A,⊕) → (B,⊕)
///     and the mirror edge (B,⊖) → (A,⊖).
///   - `Recall ℓ` edges (x.w, t·⟨ℓ⟩) → (x.w.ℓ, t): traversing one spells a
///     label of the left-hand side of a derivable constraint.
///   - `Forget ℓ` edges (x.w.ℓ, t) → (x.w, t·⟨ℓ⟩): traversing one spells a
///     label of the right-hand side.
///
/// A path from (X,s) to (Y,e) whose recall labels spell u (in order) and
/// whose forget labels spell v (in reverse), with every recall preceding
/// every forget, witnesses the derivable constraint
///
///     X.u <= Y.v     when s·⟨u⟩ = ⊕,   or
///     Y.v <= X.u     when s·⟨u⟩ = ⊖.
///
/// saturate() implements Algorithm D.2: it adds 1-edge shortcuts for every
/// matched forget-then-recall pattern so that the canonical recall*-forget*
/// paths lose no derivations, maintaining reaching-forget sets R(n). The
/// S-POINTER rule (x.store <= x.load for every derived type variable) has
/// infinitely many instances, so it is applied lazily during saturation:
/// a pending `.store` at a contravariant node (v,⊖) transfers to a pending
/// `.load` at the covariant twin (v,⊕), and symmetrically. See the worked
/// Figure 4 / Figure 14 checks in tests/core/SaturationTest.cpp.
///
/// Storage and the order contract
/// ------------------------------
/// The simplifier numbers fresh existentials (τ$proc$k) in the order its
/// emit loop meets each node's out-edges, and those names reach the golden
/// reports and the content keys of the summary cache and the store. The
/// out-edge order is therefore part of the output, and it is fixed by two
/// *iterated* containers:
///
///   - the out-edge lists, appended in creation order: construction edges
///     in constraint order, then saturation's shortcut 1-edges in the order
///     the worklist discovers them;
///   - the reaching-forget sets R(n), std::pmr::unordered_set<uint64_t>
///     whose iteration order decides which shortcut edge is discovered
///     first. Their hash, bucket policy and insertion sequence must stay
///     exactly as they are (entries pack the dense label index, so label
///     indices must also keep their first-use numbering).
///
/// Everything else is *probe-only* and may change representation freely:
/// the DTV interner, the dense node index (DtvId, tag) → node, the label
/// index, and the edge-dedup set. tests/core/SaturationOrderTest.cpp pins
/// the resulting edge order over real SCC constraint sets.
///
/// Memory: the out-edge lists and the interned label words draw from one
/// monotonic arena per graph, released with the graph. The R sets draw from a second arena that lives
/// only for the duration of saturate(), and the edge-dedup set is released
/// when saturation finishes (no edge is added after it). Nodes are created
/// only by the constructor, never during saturate(), so node ids and spans
/// returned by labels() are stable for the graph's lifetime; a span
/// returned by edgesFrom() is invalidated by saturate().
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_CORE_CONSTRAINTGRAPH_H
#define RETYPD_CORE_CONSTRAINTGRAPH_H

#include "core/ConstraintSet.h"
#include "support/Interner.h"

#include <cstdint>
#include <memory_resource>
#include <span>
#include <vector>

namespace retypd {

/// Dense id of a graph node.
using GraphNodeId = uint32_t;

/// One node: an interned derived type variable with a variance tag. The
/// variable's base and labels are read through ConstraintGraph::base() /
/// labels().
struct GraphNode {
  DtvId Dtv = 0;
  Variance Tag = Variance::Covariant;
};

/// Kind of a graph edge.
enum class EdgeKind : uint8_t {
  One,    ///< ε / subtype edge
  Recall, ///< spell a label onto the LHS word
  Forget  ///< spell a label onto the RHS word
};

/// One outgoing edge. The label is stored as the graph's dense label index
/// (ConstraintGraph::label() maps it back); it is meaningful for Recall and
/// Forget edges.
struct GraphEdge {
  GraphNodeId To = 0;
  uint32_t LabelIdx = 0;
  EdgeKind Kind = EdgeKind::One;
};

/// Reusable state for repeated ConstraintGraph::oneReachableFrom sweeps: a
/// generation-stamped visited set (one sweep costs O(nodes reached), not
/// O(nodes)) and the result buffer.
class OneReachScratch {
  friend class ConstraintGraph;
  std::vector<uint32_t> Stamp;
  uint32_t Generation = 0;
  std::vector<GraphNodeId> Order;
};

/// The saturated constraint graph for one constraint set.
class ConstraintGraph {
public:
  /// Builds the graph (nodes, 1-edges, recall/forget edges) from \p C.
  /// Additive constraints are ignored here; they are handled by the shape
  /// solver.
  explicit ConstraintGraph(const ConstraintSet &C);

  /// Runs Algorithm D.2 until fixpoint. Idempotent.
  void saturate();

  /// Returns the node id for (dtv, tag), or NoNode if absent.
  static constexpr GraphNodeId NoNode = 0xffffffffu;
  GraphNodeId lookup(const DerivedTypeVariable &Dtv, Variance Tag) const;

  size_t numNodes() const { return Nodes.size(); }
  const GraphNode &node(GraphNodeId Id) const { return Nodes[Id]; }
  TypeVariable base(GraphNodeId Id) const { return Dtvs.base(Nodes[Id].Dtv); }
  std::span<const Label> labels(GraphNodeId Id) const {
    return Dtvs.labels(Nodes[Id].Dtv);
  }
  bool isBaseOnly(GraphNodeId Id) const { return labels(Id).empty(); }
  /// Materializes the node's derived type variable (allocates).
  DerivedTypeVariable dtv(GraphNodeId Id) const {
    return Dtvs.dtv(Nodes[Id].Dtv);
  }

  std::span<const GraphEdge> edgesFrom(GraphNodeId Id) const {
    return {Out[Id].Data, Out[Id].Size};
  }
  Label label(const GraphEdge &E) const { return LabelAt[E.LabelIdx]; }

  /// All nodes (n,⊕) 1-reachable from (From,⊕), in breadth-first order;
  /// includes From itself. Used for the lattice-bound queries of
  /// Algorithm F.2. The result lives in \p Scratch until its next use.
  std::span<const GraphNodeId> oneReachableFrom(GraphNodeId From,
                                                OneReachScratch &Scratch) const;
  /// Same, for one-off queries.
  std::vector<GraphNodeId> oneReachableFrom(GraphNodeId From) const;

  /// Number of 1-edges added by saturation (for tests and stats).
  size_t numSaturationEdges() const { return SaturationEdges; }

  /// Renders the graph for debugging.
  std::string str(const SymbolTable &Syms, const Lattice &Lat) const;

private:
  GraphNodeId getOrCreateNode(TypeVariable Base, std::span<const Label> Word,
                              Variance Tag);
  bool addEdge(GraphNodeId From, GraphNodeId To, EdgeKind Kind,
               uint32_t LabelIdx);
  /// Appends to a node's out-edge list, moving it to a larger arena block
  /// when full (the old block stays in the arena until the graph dies).
  void appendEdge(GraphNodeId From, GraphEdge E);
  uint32_t internLabel(Label L);
  /// Slot of (Dtv, Tag) in NodeOf.
  static size_t nodeSlot(DtvId Dtv, Variance Tag) {
    return 2 * static_cast<size_t>(Dtv) +
           (Tag == Variance::Contravariant ? 1 : 0);
  }

  /// Flat open-addressing set of (from, to, label index, kind) edge keys:
  /// addEdge's duplicate check. Probe-only.
  class EdgeKeySet {
  public:
    /// Inserts the key; false when it was already present.
    bool insert(GraphNodeId From, GraphNodeId To, uint32_t LabelKind);
    /// Frees the table.
    void release() {
      Slots = std::vector<Slot>();
      Count = 0;
    }

  private:
    static constexpr uint64_t Empty = ~0ull;
    struct Slot {
      uint64_t FromTo = Empty;
      uint32_t LabelKind = 0;
    };
    void grow();
    std::vector<Slot> Slots;
    size_t Count = 0;
  };

  /// Backs the out-edge lists and the interned label words.
  std::pmr::monotonic_buffer_resource Arena;

  /// One node's out-edges, in creation order: a block in Arena.
  struct EdgeList {
    GraphEdge *Data = nullptr;
    uint32_t Size = 0;
    uint32_t Capacity = 0;
  };

  std::vector<GraphNode> Nodes;
  std::vector<EdgeList> Out;

  // Node identity runs through the DTV interner: a node is found at
  // NodeOf[2 * DtvId + tag] (NoNode when absent).
  DtvInterner Dtvs{Arena};
  std::vector<GraphNodeId> NodeOf;

  // Labels seen on edges, numbered densely in first-use order so
  // saturation state packs into single u64 entries.
  DenseIdIndex LabelIndex;
  std::vector<Label> LabelAt;

  EdgeKeySet EdgeKeys;

  size_t SaturationEdges = 0;
  bool Saturated = false;
};

} // namespace retypd

#endif // RETYPD_CORE_CONSTRAINTGRAPH_H
