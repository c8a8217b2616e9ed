#ifndef COMPTX_ONLINE_INCREMENTAL_CYCLES_H_
#define COMPTX_ONLINE_INCREMENTAL_CYCLES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/ids.h"
#include "util/bitrow.h"

namespace comptx::online {

/// Dynamic acyclicity maintenance for a growing constraint digraph, using
/// incremental topological ordering (Pearce & Kelly, "A Dynamic
/// Topological Sort Algorithm for Directed Acyclic Graphs", JEA 2006).
///
/// This replaces repeated full `graph::FindCycle` runs in the online
/// Comp-C certifier: each edge insertion reorders only the affected
/// region between the endpoints, so an insertion that does not invert the
/// current topological order costs O(1) and the amortized cost stays far
/// below re-running a full DFS per event.
///
/// Vertices are dense ids chosen by the caller (live-window slots, or
/// child ordinals for a transaction's intra graph); unknown endpoints are
/// created on first use and appended at the end of the order.  Out- and
/// in-adjacency are bit rows (util/bitrow.h), and a vertex's record lives
/// in a dense pool reached through a 4-byte directory entry, so memory
/// follows the vertices and edges held rather than the id range.  The
/// structure is *sticky* on failure: the first edge that closes a cycle
/// records a witness and freezes the topological order, but later edges
/// are still recorded so that adjacency (and hence epoch pruning
/// bookkeeping) stays complete.  A failed structure only becomes clean
/// again by rebuilding it from scratch, which is what the certifier does
/// when schedule levels shift.
///
/// RemoveNode clears the vertex from its neighbours' rows and frees its
/// record, so the id can be handed to a new vertex with no stale edge or
/// order key.
///
/// Allocation discipline: the Reorder pass marks visited vertices with a
/// monotone stamp stored inline in each vertex record and accumulates its
/// frontier in member scratch vectors, and removed records keep their row
/// buffers for reuse, so steady-state edge insertion performs no heap
/// allocation.
class IncrementalCycleGraph {
 public:
  IncrementalCycleGraph() = default;

  /// Ensures `v` is a vertex; new vertices sort after all current ones.
  void EnsureNode(uint32_t v);

  /// Adds the edge a -> b (idempotent).  Returns true while the graph is
  /// acyclic; returns false when the graph is in the failed state (either
  /// this edge closed a cycle, or a previous one did).
  bool AddEdge(uint32_t a, uint32_t b);

  bool HasEdge(uint32_t a, uint32_t b) const {
    const Vertex* va = Find(a);
    return va != nullptr && va->out.Test(b);
  }
  bool Contains(uint32_t v) const { return Find(v) != nullptr; }

  /// True iff some inserted edge closed a cycle.
  bool has_cycle() const { return cycle_; }

  /// When has_cycle(): a vertex sequence [v0, ..., vk] where each
  /// consecutive pair is an edge and vk -> v0 closes the cycle (the same
  /// contract as graph::FindCycle).  Empty otherwise.
  const std::vector<uint32_t>& cycle_witness() const { return witness_; }

  size_t NodeCount() const { return node_count_; }
  size_t EdgeCount() const { return edge_count_; }

  /// Number of in-edges of `v` (0 for unknown vertices).
  size_t InDegree(uint32_t v) const {
    const Vertex* vv = Find(v);
    return vv == nullptr ? 0 : vv->in.Count();
  }

  /// True iff `v` has an in-edge whose source is not set in `inside`.
  /// Epoch pruning removes whole sealed subtrees at once, so in-edges
  /// between members of the removed set don't pin the subtree down.
  bool HasInEdgeFromOutside(uint32_t v, const BitRow& inside) const {
    const Vertex* vv = Find(v);
    return vv != nullptr && vv->in.AnyAndNot(inside);
  }

  /// Removes `v` and every incident edge.  Intended for vertices whose
  /// in-degree is 0 (epoch pruning); safe for any vertex, but removing a
  /// vertex with in-edges changes which cycles are detectable afterwards.
  void RemoveNode(uint32_t v);

  /// Position of `v` in the maintained topological order; meaningful only
  /// while acyclic.  Unknown vertices sort last.
  uint64_t OrderKey(uint32_t v) const {
    const Vertex* vv = Find(v);
    return vv == nullptr ? next_ord_ : vv->ord;
  }

 private:
  struct Vertex {
    uint64_t ord = 0;
    BitRow out;
    BitRow in;
    // Reorder scratch, inline so visited-set membership is one stamp
    // compare (and zero allocation).
    uint64_t fwd_stamp = 0;
    uint64_t bwd_stamp = 0;
    uint32_t parent = 0;
  };

  const Vertex* Find(uint32_t v) const {
    if (v >= index_.size() || index_[v] == kInvalidIndex) return nullptr;
    return &pool_[index_[v]];
  }
  /// The record of known vertex `v`.
  Vertex& At(uint32_t v) { return pool_[index_[v]]; }
  Vertex& Ensure(uint32_t v);

  /// Restores the topological order after inserting a -> b with
  /// ord[b] < ord[a].  Returns false iff a cycle was found (witness_ set).
  bool Reorder(uint32_t a, uint32_t b);

  std::vector<uint32_t> index_;  // vertex -> pool position
  std::vector<Vertex> pool_;
  std::vector<uint32_t> free_;  // pool positions of removed vertices
  size_t node_count_ = 0;
  uint64_t next_ord_ = 0;
  size_t edge_count_ = 0;
  bool cycle_ = false;
  std::vector<uint32_t> witness_;

  // Reorder scratch, reused across calls (capacity persists).
  uint64_t visit_stamp_ = 0;
  std::vector<uint32_t> forward_;
  std::vector<uint32_t> backward_;
  std::vector<uint32_t> stack_;
  std::vector<uint64_t> pool_ords_;
};

}  // namespace comptx::online

#endif  // COMPTX_ONLINE_INCREMENTAL_CYCLES_H_
