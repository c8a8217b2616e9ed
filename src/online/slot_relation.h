#ifndef COMPTX_ONLINE_SLOT_RELATION_H_
#define COMPTX_ONLINE_SLOT_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/ids.h"
#include "util/bitrow.h"

namespace comptx::online {

/// Live-window numbering of the certifier's nodes (DESIGN.md §13.3).  A
/// node gets a slot when it enters the session and gives it back when
/// pruning removes it; released slots are reused before new ones are
/// minted, so slot numbers stay below the peak live node count however
/// long the session runs.  Every online relation and cycle graph is keyed
/// by slot, so its rows span the live window, not the session's history.
///
/// Releasing a slot is the caller's promise that no structure still names
/// it: the certifier scrubs a pruned node from every row before Release,
/// because a stale bit would read as an edge of the slot's next owner.
class SlotMap {
 public:
  /// Assigns a slot to `n`, which must not hold one.
  uint32_t Acquire(NodeId n);

  /// Returns the slot of `n` to the free list.
  void Release(NodeId n);

  bool Live(NodeId n) const {
    return n.index() < slot_of_.size() && slot_of_[n.index()] != kInvalidIndex;
  }
  /// The slot of live node `n`.
  uint32_t SlotOf(NodeId n) const { return slot_of_[n.index()]; }
  /// The node holding `slot` (invalid when the slot is free).
  NodeId NodeAt(uint32_t slot) const { return node_of_[slot]; }

  size_t LiveCount() const { return node_of_.size() - free_.size(); }

  /// Invokes f(NodeId) for every live node, in slot order.
  template <typename F>
  void ForEachLive(F f) const {
    for (NodeId n : node_of_) {
      if (n.valid()) f(n);
    }
  }

 private:
  std::vector<uint32_t> slot_of_;  // NodeId index -> slot or kInvalidIndex
  std::vector<NodeId> node_of_;    // slot -> holder, invalid when free
  std::vector<uint32_t> free_;
};

/// A relation over dense vertex ids (slots, or child ordinals for the
/// per-transaction structures) with forward and reverse bit rows.
///
/// Rows exist only for vertices that have pairs: a vertex's rows are
/// found through a 4-byte directory entry and live in a dense pool whose
/// dropped entries keep their word buffers for the next vertex.  So
/// memory follows the pairs held, not (vertex capacity)², and steady-state
/// insertion into recycled rows does not touch the heap.
class SlotRelation {
 public:
  /// Adds (a, b); returns true if new.
  bool Add(uint32_t a, uint32_t b);
  bool Contains(uint32_t a, uint32_t b) const {
    const BitRow* row = succ_.Find(a);
    return row != nullptr && row->Test(b);
  }
  size_t PairCount() const { return pair_count_; }

  /// True iff some pair (x, v) exists with x not set in `inside`.
  bool HasPredOutside(uint32_t v, const BitRow& inside) const {
    const BitRow* row = pred_.Find(v);
    return row != nullptr && row->AnyAndNot(inside);
  }

  /// Drops every pair with `v` as an endpoint, clearing `v` from the rows
  /// of its neighbours, so `v` can be reused.
  void RemoveNode(uint32_t v);

  /// Invokes f(a, b) for every pair (unspecified order).
  template <typename F>
  void ForEach(F f) const {
    succ_.ForEach([&](uint32_t a, const BitRow& row) {
      row.ForEachSet([&](uint32_t b) { f(a, b); });
    });
  }

 protected:
  /// Bit rows indexed by vertex, stored only for vertices that have one.
  class Rows {
   public:
    const BitRow* Find(uint32_t v) const {
      if (v >= index_.size() || index_[v] == kInvalidIndex) return nullptr;
      return &pool_[index_[v]];
    }
    /// The row of `v`, created empty if absent.  The reference is valid
    /// until the next Get on this object.
    BitRow& Get(uint32_t v);
    /// Clears and frees the row of `v` (no-op if absent).
    void Drop(uint32_t v);

    template <typename F>
    void ForEach(F f) const {
      for (uint32_t v = 0; v < index_.size(); ++v) {
        if (index_[v] != kInvalidIndex) f(v, pool_[index_[v]]);
      }
    }

   private:
    std::vector<uint32_t> index_;  // vertex -> pool position
    std::vector<BitRow> pool_;
    std::vector<uint32_t> free_;  // pool positions of dropped rows
  };

  Rows succ_;
  Rows pred_;
  size_t pair_count_ = 0;
};

/// An incrementally maintained transitive closure of a growing relation.
/// Mirrors core ClosureWithin exactly (in particular, a vertex is closed
/// to itself only when it lies on a cycle), but each generating-edge
/// insertion reports just the *newly* closed pairs so downstream
/// structures can be patched instead of recomputed.  On Add(a, b) the new
/// pairs are ({a} ∪ pred(a)) × ({b} ∪ succ(b)) minus the pairs already
/// closed, computed one source x at a time as the word-parallel row
/// difference targets & ~succ(x).
class IncrementalClosure : private SlotRelation {
 public:
  /// Adds the generating edge a -> b and appends every newly closed pair
  /// to `new_pairs` (none if (a, b) was already closed).  Emission order
  /// is unspecified.
  void Add(uint32_t a, uint32_t b,
           std::vector<std::pair<uint32_t, uint32_t>>& new_pairs);

  using SlotRelation::Contains;
  using SlotRelation::ForEach;
  using SlotRelation::HasPredOutside;
  using SlotRelation::PairCount;
  /// Drops every closed pair with `v` as an endpoint; pairs derived
  /// *through* v stay, which is what pruning wants: only safe for nodes
  /// that will never be referenced again (sealed subtrees).
  using SlotRelation::RemoveNode;

 private:
  // Add scratch, kept across calls so insertion stays allocation-free.
  BitRow targets_;
  std::vector<uint32_t> sources_;
};

}  // namespace comptx::online

#endif  // COMPTX_ONLINE_SLOT_RELATION_H_
