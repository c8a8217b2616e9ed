#include "online/slot_relation.h"

#include "util/logging.h"

namespace comptx::online {

// ---- SlotMap --------------------------------------------------------------

uint32_t SlotMap::Acquire(NodeId n) {
  if (n.index() >= slot_of_.size()) {
    slot_of_.resize(n.index() + 1, kInvalidIndex);
  }
  COMPTX_CHECK(slot_of_[n.index()] == kInvalidIndex) << n << " already live";
  uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    node_of_[slot] = n;
  } else {
    slot = static_cast<uint32_t>(node_of_.size());
    node_of_.push_back(n);
  }
  slot_of_[n.index()] = slot;
  return slot;
}

void SlotMap::Release(NodeId n) {
  const uint32_t slot = SlotOf(n);
  slot_of_[n.index()] = kInvalidIndex;
  node_of_[slot] = NodeId();
  free_.push_back(slot);
}

// ---- SlotRelation ---------------------------------------------------------

BitRow& SlotRelation::Rows::Get(uint32_t v) {
  if (v >= index_.size()) index_.resize(v + 1, kInvalidIndex);
  if (index_[v] == kInvalidIndex) {
    if (!free_.empty()) {
      index_[v] = free_.back();
      free_.pop_back();
    } else {
      index_[v] = static_cast<uint32_t>(pool_.size());
      pool_.emplace_back();
    }
  }
  return pool_[index_[v]];
}

void SlotRelation::Rows::Drop(uint32_t v) {
  if (v >= index_.size() || index_[v] == kInvalidIndex) return;
  pool_[index_[v]].Clear();
  free_.push_back(index_[v]);
  index_[v] = kInvalidIndex;
}

bool SlotRelation::Add(uint32_t a, uint32_t b) {
  if (!succ_.Get(a).TestAndSet(b)) return false;
  pred_.Get(b).TestAndSet(a);
  ++pair_count_;
  return true;
}

void SlotRelation::RemoveNode(uint32_t v) {
  // A self-pair sits in both rows of v; it is counted once, here.
  if (const BitRow* out = succ_.Find(v)) {
    out->ForEachSet([&](uint32_t b) {
      if (b != v) pred_.Get(b).Reset(v);
      --pair_count_;
    });
  }
  if (const BitRow* in = pred_.Find(v)) {
    in->ForEachSet([&](uint32_t a) {
      if (a != v) {
        succ_.Get(a).Reset(v);
        --pair_count_;
      }
    });
  }
  succ_.Drop(v);
  pred_.Drop(v);
}

// ---- IncrementalClosure ---------------------------------------------------

void IncrementalClosure::Add(
    uint32_t a, uint32_t b,
    std::vector<std::pair<uint32_t, uint32_t>>& new_pairs) {
  // (a, b) already closed: any path using the new edge factors through
  // existing closed pairs, so nothing new can appear.
  if (Contains(a, b)) return;
  targets_.Clear();
  if (const BitRow* row = succ_.Find(b)) targets_.OrWith(*row);
  targets_.TestAndSet(b);
  sources_.clear();
  sources_.push_back(a);
  if (const BitRow* row = pred_.Find(a)) {
    row->ForEachSet([&](uint32_t x) {
      if (x != a) sources_.push_back(x);
    });
  }
  for (uint32_t x : sources_) {
    BitRow& out = succ_.Get(x);
    targets_.ForEachSetAndNot(out, [&](uint32_t y) {
      pred_.Get(y).TestAndSet(x);
      ++pair_count_;
      new_pairs.emplace_back(x, y);
    });
    out.OrWith(targets_);
  }
}

}  // namespace comptx::online
