#include "online/incremental_cycles.h"

#include <algorithm>

namespace comptx::online {

IncrementalCycleGraph::Vertex& IncrementalCycleGraph::Ensure(uint32_t v) {
  if (v >= index_.size()) index_.resize(v + 1, kInvalidIndex);
  if (index_[v] != kInvalidIndex) return pool_[index_[v]];
  if (!free_.empty()) {
    index_[v] = free_.back();
    free_.pop_back();
  } else {
    index_[v] = static_cast<uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  ++node_count_;
  Vertex& vv = pool_[index_[v]];
  vv.ord = next_ord_++;
  return vv;
}

void IncrementalCycleGraph::EnsureNode(uint32_t v) { Ensure(v); }

void IncrementalCycleGraph::RemoveNode(uint32_t v) {
  if (!Contains(v)) return;
  Vertex& vv = At(v);
  // A self-loop sits in both rows of v; it is counted once, here.
  vv.out.ForEachSet([&](uint32_t succ) {
    if (succ != v) At(succ).in.Reset(v);
    --edge_count_;
  });
  vv.in.ForEachSet([&](uint32_t pred) {
    if (pred == v) return;
    At(pred).out.Reset(v);
    --edge_count_;
  });
  // Scrub the record for its next owner: no edge, stamp or parent of v
  // survives into a recycled id.
  vv.out.Clear();
  vv.in.Clear();
  vv.fwd_stamp = vv.bwd_stamp = 0;
  vv.parent = 0;
  free_.push_back(index_[v]);
  index_[v] = kInvalidIndex;
  --node_count_;
}

bool IncrementalCycleGraph::AddEdge(uint32_t a, uint32_t b) {
  Ensure(a);
  if (At(a).out.Test(b)) return !cycle_;
  if (a == b) {
    Vertex& va = At(a);
    va.out.TestAndSet(b);
    va.in.TestAndSet(a);
    ++edge_count_;
    if (!cycle_) {
      cycle_ = true;
      witness_ = {a};
    }
    return false;
  }
  Ensure(b);  // may move the pool: take references only now.
  Vertex& va = At(a);
  Vertex& vb = At(b);
  va.out.TestAndSet(b);
  vb.in.TestAndSet(a);
  ++edge_count_;
  if (cycle_) return false;
  if (va.ord < vb.ord) return true;  // order already consistent: O(1).
  if (!Reorder(a, b)) {
    cycle_ = true;
    return false;
  }
  return true;
}

bool IncrementalCycleGraph::Reorder(uint32_t a, uint32_t b) {
  const uint64_t lb = At(b).ord;
  const uint64_t ub = At(a).ord;
  const uint64_t stamp = ++visit_stamp_;

  // Forward DFS from b over vertices with ord <= ub.  Reaching a means the
  // new edge a -> b closed a cycle; the DFS parents give the b ~> a path.
  forward_.clear();
  stack_.clear();
  stack_.push_back(b);
  At(b).fwd_stamp = stamp;
  while (!stack_.empty()) {
    uint32_t u = stack_.back();
    stack_.pop_back();
    forward_.push_back(u);
    if (u == a) {
      // Reconstruct b ~> a; with the closing edge a -> b this is a cycle.
      witness_.clear();
      for (uint32_t w = a; w != b; w = At(w).parent) {
        witness_.push_back(w);
      }
      witness_.push_back(b);
      std::reverse(witness_.begin(), witness_.end());
      return false;
    }
    At(u).out.ForEachSet([&](uint32_t w) {
      Vertex& vw = At(w);
      if (vw.ord > ub) return;
      if (vw.fwd_stamp != stamp) {
        vw.fwd_stamp = stamp;
        vw.parent = u;
        stack_.push_back(w);
      }
    });
  }

  // Backward DFS from a over vertices with ord >= lb.  Disjoint from the
  // forward set (overlap would have been a cycle caught above).
  backward_.clear();
  stack_.push_back(a);
  At(a).bwd_stamp = stamp;
  while (!stack_.empty()) {
    uint32_t u = stack_.back();
    stack_.pop_back();
    backward_.push_back(u);
    At(u).in.ForEachSet([&](uint32_t w) {
      Vertex& vw = At(w);
      if (vw.ord < lb) return;
      if (vw.bwd_stamp != stamp) {
        vw.bwd_stamp = stamp;
        stack_.push_back(w);
      }
    });
  }

  // Reassign: the affected vertices keep their relative order within each
  // set, but every backward (≼ a) vertex now sorts before every forward
  // (≽ b) vertex, reusing the same pool of order keys.
  auto by_ord = [this](uint32_t x, uint32_t y) {
    return At(x).ord < At(y).ord;
  };
  std::sort(backward_.begin(), backward_.end(), by_ord);
  std::sort(forward_.begin(), forward_.end(), by_ord);

  pool_ords_.clear();
  for (uint32_t x : backward_) pool_ords_.push_back(At(x).ord);
  for (uint32_t x : forward_) pool_ords_.push_back(At(x).ord);
  std::sort(pool_ords_.begin(), pool_ords_.end());

  size_t next = 0;
  for (uint32_t x : backward_) At(x).ord = pool_ords_[next++];
  for (uint32_t x : forward_) At(x).ord = pool_ords_[next++];
  return true;
}

}  // namespace comptx::online
