//===- ConstraintGraph.cpp - Pushdown-system encoding of C ----------------===//

#include "core/ConstraintGraph.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

using namespace retypd;

bool ConstraintGraph::EdgeKeySet::insert(GraphNodeId From, GraphNodeId To,
                                         uint32_t LabelKind) {
  if (2 * (Count + 1) > Slots.size())
    grow();
  const uint64_t FromTo = (static_cast<uint64_t>(From) << 32) | To;
  const size_t Mask = Slots.size() - 1;
  size_t I = mixHash(FromTo ^ (static_cast<uint64_t>(LabelKind) << 7)) & Mask;
  for (;; I = (I + 1) & Mask) {
    Slot &S = Slots[I];
    if (S.FromTo == Empty) {
      S = Slot{FromTo, LabelKind};
      ++Count;
      return true;
    }
    if (S.FromTo == FromTo && S.LabelKind == LabelKind)
      return false;
  }
}

void ConstraintGraph::EdgeKeySet::grow() {
  std::vector<Slot> Old = std::move(Slots);
  Slots.assign(Old.empty() ? 16 : 2 * Old.size(), Slot{});
  Count = 0;
  for (const Slot &S : Old)
    if (S.FromTo != Empty)
      insert(static_cast<GraphNodeId>(S.FromTo >> 32),
             static_cast<GraphNodeId>(S.FromTo), S.LabelKind);
}

uint32_t ConstraintGraph::internLabel(Label L) {
  const uint64_t H = mixHash(L.raw());
  uint32_t Idx = LabelIndex.find(
      H, [&](uint32_t Cand) { return LabelAt[Cand].raw() == L.raw(); });
  if (Idx != DenseIdIndex::NoId)
    return Idx;
  Idx = static_cast<uint32_t>(LabelAt.size());
  LabelAt.push_back(L);
  LabelIndex.insert(H, Idx);
  return Idx;
}

GraphNodeId ConstraintGraph::lookup(const DerivedTypeVariable &Dtv,
                                    Variance Tag) const {
  DtvId Id = Dtvs.find(Dtv);
  if (Id == DtvInterner::NoDtv)
    return NoNode;
  // getOrCreateNode sizes NodeOf for every interned DTV.
  return NodeOf[nodeSlot(Id, Tag)];
}

GraphNodeId ConstraintGraph::getOrCreateNode(TypeVariable Base,
                                             std::span<const Label> Word,
                                             Variance Tag) {
  const DtvId Interned = Dtvs.intern(Base, Word);
  const size_t Slot = nodeSlot(Interned, Tag);
  if (Slot >= NodeOf.size())
    NodeOf.resize(2 * Dtvs.size(), NoNode);
  if (NodeOf[Slot] != NoNode)
    return NodeOf[Slot];

  GraphNodeId Id = static_cast<GraphNodeId>(Nodes.size());
  NodeOf[Slot] = Id;
  Nodes.push_back(GraphNode{Interned, Tag});
  Out.emplace_back();

  // Recursively ensure the prefix chain exists and connect it with
  // recall/forget edges. Stripping the last label ℓ composes the tag with
  // ⟨ℓ⟩ (see file header).
  if (!Word.empty()) {
    Label Last = Word.back();
    Variance ParentTag = compose(Tag, Last.variance());
    GraphNodeId Parent =
        getOrCreateNode(Base, Word.first(Word.size() - 1), ParentTag);
    uint32_t LastIdx = internLabel(Last);
    addEdge(Parent, Id, EdgeKind::Recall, LastIdx);
    addEdge(Id, Parent, EdgeKind::Forget, LastIdx);
  }
  return Id;
}

bool ConstraintGraph::addEdge(GraphNodeId From, GraphNodeId To, EdgeKind Kind,
                              uint32_t LabelIdx) {
  if (!EdgeKeys.insert(From, To,
                       (LabelIdx << 2) | static_cast<uint32_t>(Kind)))
    return false;
  appendEdge(From, GraphEdge{To, LabelIdx, Kind});
  return true;
}

void ConstraintGraph::appendEdge(GraphNodeId From, GraphEdge E) {
  EdgeList &L = Out[From];
  if (L.Size == L.Capacity) {
    uint32_t Capacity = L.Capacity ? 2 * L.Capacity : 2;
    auto *Data = static_cast<GraphEdge *>(
        Arena.allocate(Capacity * sizeof(GraphEdge), alignof(GraphEdge)));
    std::copy_n(L.Data, L.Size, Data);
    L.Data = Data;
    L.Capacity = Capacity;
  }
  L.Data[L.Size++] = E;
}

ConstraintGraph::ConstraintGraph(const ConstraintSet &C) {
  for (const SubtypeConstraint &SC : C.subtypes()) {
    GraphNodeId LhsCo =
        getOrCreateNode(SC.Lhs.base(), SC.Lhs.labels(), Variance::Covariant);
    GraphNodeId RhsCo =
        getOrCreateNode(SC.Rhs.base(), SC.Rhs.labels(), Variance::Covariant);
    GraphNodeId LhsContra = getOrCreateNode(SC.Lhs.base(), SC.Lhs.labels(),
                                            Variance::Contravariant);
    GraphNodeId RhsContra = getOrCreateNode(SC.Rhs.base(), SC.Rhs.labels(),
                                            Variance::Contravariant);
    // 1-edges carry the default label's index (numbered on first use, like
    // every other label; see the order contract in the header).
    uint32_t OneIdx = internLabel(Label());
    addEdge(LhsCo, RhsCo, EdgeKind::One, OneIdx);
    addEdge(RhsContra, LhsContra, EdgeKind::One, OneIdx);
  }
  // Capability declarations create nodes (and their prefix chains) so that
  // recall/forget edges exist even without subtype constraints on them.
  for (const DerivedTypeVariable &V : C.vars()) {
    getOrCreateNode(V.base(), V.labels(), Variance::Covariant);
    getOrCreateNode(V.base(), V.labels(), Variance::Contravariant);
  }
}

void ConstraintGraph::saturate() {
  if (Saturated)
    return;
  Saturated = true;

  const size_t N = Nodes.size();

  // Reaching-forget sets: R[n] holds (ℓ, z) if there is a path
  // z --forget ℓ--> m --1*--> n. Entries pack as (labelIdx<<32) | z. The
  // sets are iterated, so their type is part of the order contract (file
  // header); their storage comes from an arena freed on return.
  std::pmr::monotonic_buffer_resource SatArena;
  using ForgetSet = std::pmr::unordered_set<uint64_t>;
  std::vector<ForgetSet> R;
  R.reserve(N);
  for (size_t I = 0; I < N; ++I)
    R.emplace_back(&SatArena);
  auto pack = [](uint32_t LabelIdx, GraphNodeId Z) {
    return (static_cast<uint64_t>(LabelIdx) << 32) | Z;
  };

  const uint32_t LoadIdx = internLabel(Label::load());
  const uint32_t StoreIdx = internLabel(Label::store());
  const uint32_t OneIdx = internLabel(Label());

  // Covariant/contravariant twin of each node (no nodes are created during
  // saturation, so this is stable).
  std::vector<GraphNodeId> Twin(N, NoNode);
  for (GraphNodeId Node = 0; Node < N; ++Node) {
    Variance Other = Nodes[Node].Tag == Variance::Covariant
                         ? Variance::Contravariant
                         : Variance::Covariant;
    Twin[Node] = NodeOf[nodeSlot(Nodes[Node].Dtv, Other)];
  }

  // FIFO worklist of nodes whose R set gained entries (or that gained a
  // new outgoing 1-edge) since they were last expanded. A node is queued
  // at most once at a time, so a ring of N slots never overflows.
  std::vector<GraphNodeId> Ring(std::max<size_t>(N, 1));
  size_t Head = 0, Queued = 0;
  std::vector<uint8_t> InWork(N, 0);
  auto push = [&](GraphNodeId Node) {
    if (InWork[Node])
      return;
    InWork[Node] = 1;
    size_t Tail = Head + Queued++;
    Ring[Tail < N ? Tail : Tail - N] = Node;
  };

  // Seed from forget edges.
  for (GraphNodeId Node = 0; Node < N; ++Node)
    for (const GraphEdge &E : edgesFrom(Node))
      if (E.Kind == EdgeKind::Forget)
        if (R[E.To].insert(pack(E.LabelIdx, Node)).second)
          push(E.To);

  std::vector<uint64_t> Entries;
  while (Queued != 0) {
    GraphNodeId Node = Ring[Head];
    Head = Head + 1 == N ? 0 : Head + 1;
    --Queued;
    InWork[Node] = 0;
    const ForgetSet &RN = R[Node];
    if (RN.empty())
      continue;

    // Lazy S-POINTER: a pending .store at a contravariant node becomes a
    // pending .load at its covariant twin, and vice versa. The twin is
    // never the node itself, so R[T] grows while R[Node] is iterated.
    if (Nodes[Node].Tag == Variance::Contravariant && Twin[Node] != NoNode) {
      GraphNodeId T = Twin[Node];
      ForgetSet &RT = R[T];
      for (uint64_t Entry : RN) {
        uint32_t L = static_cast<uint32_t>(Entry >> 32);
        GraphNodeId Z = static_cast<GraphNodeId>(Entry);
        if (L == StoreIdx) {
          if (RT.insert(pack(LoadIdx, Z)).second)
            push(T);
        } else if (L == LoadIdx) {
          if (RT.insert(pack(StoreIdx, Z)).second)
            push(T);
        }
      }
    }

    // Snapshot because the consume step below can add 1-edges out of this
    // very node (when Entry.second == Node), growing Out[Node] and —
    // through the propagate step's self-loops — R[Node].
    Entries.assign(RN.begin(), RN.end());
    const size_t NumEdges = Out[Node].Size;
    for (size_t EI = 0; EI < NumEdges; ++EI) {
      // By value, and re-read through Out: the list may move when it grows.
      const GraphEdge E = Out[Node].Data[EI];
      switch (E.Kind) {
      case EdgeKind::One: {
        // Propagate along 1-edges.
        ForgetSet &RTo = R[E.To];
        for (uint64_t Entry : Entries)
          if (RTo.insert(Entry).second)
            push(E.To);
        break;
      }
      case EdgeKind::Recall:
        // Consume: a pending forget met by a matching recall yields a
        // shortcut 1-edge from the forget's origin to the recall's target.
        for (uint64_t Entry : Entries) {
          if (static_cast<uint32_t>(Entry >> 32) != E.LabelIdx)
            continue;
          GraphNodeId Z = static_cast<GraphNodeId>(Entry);
          if (addEdge(Z, E.To, EdgeKind::One, OneIdx)) {
            ++SaturationEdges;
            // The new 1-edge must carry Z's pending forgets onward.
            if (!R[Z].empty())
              push(Z);
          }
        }
        break;
      case EdgeKind::Forget:
        break;
      }
    }
  }
  // No edge is added after saturation.
  EdgeKeys.release();
}

std::span<const GraphNodeId>
ConstraintGraph::oneReachableFrom(GraphNodeId From,
                                  OneReachScratch &Scratch) const {
  if (Scratch.Stamp.size() < Nodes.size() || ++Scratch.Generation == 0) {
    Scratch.Stamp.assign(Nodes.size(), 0);
    Scratch.Generation = 1;
  }
  const uint32_t Gen = Scratch.Generation;
  std::vector<GraphNodeId> &Order = Scratch.Order;
  Order.clear();
  Order.push_back(From);
  Scratch.Stamp[From] = Gen;
  // Order doubles as the FIFO queue: breadth-first visit order is
  // exactly push order.
  for (size_t I = 0; I < Order.size(); ++I) {
    for (const GraphEdge &E : edgesFrom(Order[I])) {
      if (E.Kind != EdgeKind::One || Scratch.Stamp[E.To] == Gen)
        continue;
      Scratch.Stamp[E.To] = Gen;
      Order.push_back(E.To);
    }
  }
  return Order;
}

std::vector<GraphNodeId>
ConstraintGraph::oneReachableFrom(GraphNodeId From) const {
  OneReachScratch Scratch;
  oneReachableFrom(From, Scratch);
  return std::move(Scratch.Order);
}

std::string ConstraintGraph::str(const SymbolTable &Syms,
                                 const Lattice &Lat) const {
  auto Render = [&](GraphNodeId N) {
    return dtv(N).str(Syms, Lat) +
           (Nodes[N].Tag == Variance::Covariant ? ".+" : ".-");
  };
  std::string S;
  for (GraphNodeId N = 0; N < Nodes.size(); ++N) {
    for (const GraphEdge &E : edgesFrom(N)) {
      S += Render(N);
      switch (E.Kind) {
      case EdgeKind::One:
        S += " --1--> ";
        break;
      case EdgeKind::Recall:
        S += " --recall " + label(E).str() + "--> ";
        break;
      case EdgeKind::Forget:
        S += " --forget " + label(E).str() + "--> ";
        break;
      }
      S += Render(E.To);
      S += '\n';
    }
  }
  return S;
}
