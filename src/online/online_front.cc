#include "online/online_front.h"

#include <algorithm>

#include "core/observed_order.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace comptx::online {

// ---- OnlineFrontEngine ----------------------------------------------------

void OnlineFrontEngine::Reset(const CompositeSystem* cs, const SlotMap* slots,
                              std::vector<uint32_t> schedule_levels,
                              uint32_t order, bool forgetting) {
  cs_ = cs;
  slots_ = slots;
  schedule_levels_ = std::move(schedule_levels);
  order_ = order;
  forgetting_ = forgetting;
  level_.assign(order_ + 1, LevelState{});
  quotient_.assign(order_ + 1, IncrementalCycleGraph{});
  intra_.clear();
  strong_of_.clear();
  failure_.reset();
  // A mid-batch Reset (schedule levels shifted) invalidates the deferred
  // ops' routing; drop them — the caller re-feeds its closures, which
  // defer afresh against the new levels.
  if (pending_) pending_->clear();
  // Only live roots: a pruned root never takes an edge again, and
  // registering it would make a rebuild cost O(history) and fill the
  // top-level graph with dead vertices.  Creation order, as the roots
  // arrived, fixes the initial order keys.
  std::vector<NodeId> roots;
  slots_->ForEachLive([&](NodeId n) {
    if (cs_->node(n).IsRoot()) roots.push_back(n);
  });
  std::sort(roots.begin(), roots.end());
  for (NodeId root : roots) {
    if (pending_) {
      pending_->push_back(PendingOp{PendingOp::Kind::kEnsureTop, 0, NodeId(),
                                    root, NodeId()});
    } else {
      level_[order_].cc.EnsureNode(Slot(root));
    }
  }
}

void OnlineFrontEngine::BeginBatch(MonotonicArena* arena) {
  pending_.emplace(ArenaAllocator<PendingOp>(arena));
}

void OnlineFrontEngine::FlushBatch() {
  if (!pending_) return;
  // Detach before applying so the *Now bodies (IntraEdgeNow in
  // particular, reached from kCalc routing) don't re-defer.
  auto ops = std::move(*pending_);
  pending_.reset();
  for (const PendingOp& op : ops) {
    switch (op.kind) {
      case PendingOp::Kind::kEnsureTop:
        level_[order_].cc.EnsureNode(Slot(op.a));
        break;
      case PendingOp::Kind::kCc:
        CcEdgeNow(op.idx, op.a, op.b);
        break;
      case PendingOp::Kind::kCalc:
        CalcEdgeNow(op.idx, op.a, op.b);
        break;
      case PendingOp::Kind::kIntra:
        IntraEdgeNow(op.idx, op.p, op.a, op.b);
        break;
    }
  }
}

uint32_t OnlineFrontEngine::SpanBegin(NodeId x) const {
  const Node& n = cs_->node(x);
  if (n.IsLeaf()) return 0;
  return schedule_levels_[n.owner_schedule.index()];
}

uint32_t OnlineFrontEngine::SpanEnd(NodeId x) const {
  const Node& n = cs_->node(x);
  if (n.IsRoot()) return order_;
  return schedule_levels_[cs_->HostScheduleOf(x).index()] - 1;
}

NodeId OnlineFrontEngine::Rep(NodeId x, uint32_t i) const {
  const Node& n = cs_->node(x);
  if (n.IsRoot()) return x;
  if (schedule_levels_[cs_->HostScheduleOf(x).index()] == i) return n.parent;
  return x;
}

std::vector<NodeId> OnlineFrontEngine::FrontMembersOfSubtree(
    NodeId t, uint32_t j) const {
  std::vector<NodeId> out;
  if (j > SpanEnd(t)) return out;
  if (InFront(t, j)) {
    out.push_back(t);
    return out;
  }
  for (NodeId d : cs_->Descendants(t)) {
    if (InFront(d, j)) out.push_back(d);
  }
  return out;
}

bool OnlineFrontEngine::BindingObserved(NodeId a, NodeId b) const {
  ScheduleId ha = cs_->HostScheduleOf(a);
  ScheduleId hb = cs_->HostScheduleOf(b);
  if (ha.valid() && ha == hb) {
    return cs_->EffectiveConflict(ha, a, b);
  }
  return true;  // cross-schedule pairs are observed-related by construction.
}

template <typename NodeOf>
void OnlineFrontEngine::Fail(uint32_t level, OnlineFailure::Step step,
                             const std::vector<uint32_t>& witness,
                             NodeOf node_of, const std::string& what) {
  if (failure_) return;
  OnlineFailure f;
  f.level = level;
  f.step = step;
  std::string cycle;
  for (uint32_t v : witness) {
    const NodeId n = node_of(v);
    f.witness.push_back(n);
    if (!cycle.empty()) cycle += " -> ";
    cycle += cs_->node(n).name;
  }
  f.description = StrCat(what, " [", cycle, "]");
  failure_ = std::move(f);
}

void OnlineFrontEngine::CcEdge(uint32_t j, NodeId a, NodeId b) {
  if (pending_) {
    pending_->push_back(PendingOp{PendingOp::Kind::kCc, j, NodeId(), a, b});
    return;
  }
  CcEdgeNow(j, a, b);
}

void OnlineFrontEngine::CcEdgeNow(uint32_t j, NodeId a, NodeId b) {
  IncrementalCycleGraph& cc = level_[j].cc;
  if (!cc.AddEdge(Slot(a), Slot(b)) && !failure_) {
    Fail(j, OnlineFailure::Step::kConflictConsistency, cc.cycle_witness(),
         [&](uint32_t v) { return slots_->NodeAt(v); },
         StrCat("front level ", j, " is not conflict consistent"));
  }
}

void OnlineFrontEngine::CalcEdge(uint32_t i, NodeId a, NodeId b) {
  if (i < 1 || i > order_) return;
  if (pending_) {
    // Routing inputs (Rep, schedule levels) are stable until the next
    // Reset, and a Reset discards the pending list — so routing at flush
    // time is identical to routing here.
    pending_->push_back(PendingOp{PendingOp::Kind::kCalc, i, NodeId(), a, b});
    return;
  }
  CalcEdgeNow(i, a, b);
}

void OnlineFrontEngine::CalcEdgeNow(uint32_t i, NodeId a, NodeId b) {
  NodeId ra = Rep(a, i);
  NodeId rb = Rep(b, i);
  const bool grouped = (ra != a) || (rb != b);
  if (ra == rb && grouped) {
    // Both endpoints collapse into one level-i transaction: the constraint
    // is internal to that block (Def 14 intra test).
    IntraEdgeNow(i, ra, a, b);
    return;
  }
  IncrementalCycleGraph& q = quotient_[i];
  if (!q.AddEdge(Slot(ra), Slot(rb)) && !failure_) {
    Fail(i, OnlineFailure::Step::kCalculation, q.cycle_witness(),
         [&](uint32_t v) { return slots_->NodeAt(v); },
         StrCat("no calculation at level ", i,
                ": block cycle prevents isolating the level ", i,
                " transactions"));
  }
}

void OnlineFrontEngine::IntraEdge(uint32_t i, NodeId p, NodeId a, NodeId b) {
  if (i < 1 || i > order_) return;
  if (pending_) {
    pending_->push_back(PendingOp{PendingOp::Kind::kIntra, i, p, a, b});
    return;
  }
  IntraEdgeNow(i, p, a, b);
}

void OnlineFrontEngine::IntraEdgeNow(uint32_t i, NodeId p, NodeId a, NodeId b) {
  const uint32_t ps = Slot(p);
  if (ps >= intra_.size()) intra_.resize(ps + 1);
  if (!intra_[ps]) intra_[ps] = std::make_unique<IncrementalCycleGraph>();
  IncrementalCycleGraph& g = *intra_[ps];
  if (!g.AddEdge(cs_->ChildOrdinal(a), cs_->ChildOrdinal(b)) && !failure_) {
    const std::vector<NodeId>& children = cs_->node(p).children;
    Fail(i, OnlineFailure::Step::kCalculation, g.cycle_witness(),
         [&](uint32_t v) { return children[v]; },
         StrCat("no calculation for transaction ", cs_->node(p).name,
                ": the observed order contradicts its intra-transaction ",
                "order"));
  }
}

void OnlineFrontEngine::AddObserved(uint32_t j, NodeId a, NodeId b) {
  if (j > order_) return;
  if (!level_[j].observed.Add(Slot(a), Slot(b))) return;
  CcEdge(j, a, b);
  if (j + 1 > order_) return;
  // Calculation rule 2 at step j+1: the pair binds iff it conflicts.
  if (BindingObserved(a, b)) CalcEdge(j + 1, a, b);
  // Pull-up (Def 10 points 2-4) to front j+1, sharing the exact per-pair
  // logic with the batch reducer.
  if (auto image = PullUpObservedPair(*cs_, a, b, Rep(a, j + 1), Rep(b, j + 1),
                                      forgetting_)) {
    AddObserved(j + 1, image->first, image->second);
  }
}

void OnlineFrontEngine::OnNodeAdded(NodeId x) {
  const Node& n = cs_->node(x);
  if (n.IsRoot()) {
    level_[order_].cc.EnsureNode(Slot(x));
    return;
  }
  // Retroactive pull-down: existing strong constraints on any ancestor now
  // also constrain x (x joined that ancestor's subtree).
  const uint32_t x_begin = SpanBegin(x);
  const uint32_t x_end = SpanEnd(x);
  for (NodeId anc = n.parent;; anc = cs_->node(anc).parent) {
    if (const uint32_t as = Slot(anc); as < strong_of_.size()) {
      for (const auto& [other, is_source] : strong_of_[as]) {
        const uint32_t hi = std::min(x_end, SpanEnd(other));
        for (uint32_t j = x_begin; j <= hi; ++j) {
          for (NodeId y : FrontMembersOfSubtree(other, j)) {
            if (is_source) {
              CcEdge(j, x, y);
              CalcEdge(j + 1, x, y);
            } else {
              CcEdge(j, y, x);
              CalcEdge(j + 1, y, x);
            }
          }
        }
      }
    }
    if (cs_->node(anc).IsRoot()) break;
  }
}

void OnlineFrontEngine::OnConflict(NodeId a, NodeId b, bool weak_out_ab,
                                   bool weak_out_ba) {
  const ScheduleId s = cs_->HostScheduleOf(a);
  // A pair the spec proves commuting behaves like an undeclared conflict:
  // it binds nothing and its observed pairs stay forgettable.  (Semantic
  // events arriving after the conflict are handled by a certifier
  // Rebuild, not here.)
  if (cs_->SemanticallyCommutes(a, b)) return;
  const uint32_t level = schedule_levels_[s.index()];
  const uint32_t lo = std::max(SpanBegin(a), SpanBegin(b));
  const uint32_t hi = std::min(SpanEnd(a), SpanEnd(b));
  for (uint32_t j = lo; j <= hi; ++j) {
    // Calculation rule 3: conflicting pairs ordered by the schedule's
    // closed weak output order.
    if (weak_out_ab) CalcEdge(j + 1, a, b);
    if (weak_out_ba) CalcEdge(j + 1, b, a);
    // The conflict turns existing observed pairs binding (calculation
    // rule 2) and un-forgets their pull-up (Def 10 rule 3).
    const SlotRelation& observed = level_[j].observed;
    for (auto [x, y] : {std::pair(a, b), std::pair(b, a)}) {
      if (!observed.Contains(Slot(x), Slot(y))) continue;
      CalcEdge(j + 1, x, y);
      if (j + 1 <= order_) {
        if (auto image = PullUpObservedPair(*cs_, x, y, Rep(x, j + 1),
                                            Rep(y, j + 1), forgetting_)) {
          AddObserved(j + 1, image->first, image->second);
        }
      }
    }
  }
  // Serialization orders (Def 10.2): the parents become observed-ordered.
  NodeId pa = cs_->node(a).parent;
  NodeId pb = cs_->node(b).parent;
  if (pa != pb) {
    if (weak_out_ab) AddObserved(level, pa, pb);
    if (weak_out_ba) AddObserved(level, pb, pa);
  }
}

void OnlineFrontEngine::OnClosedWeakOutput(ScheduleId s, NodeId a, NodeId b) {
  const uint32_t level = schedule_levels_[s.index()];
  const uint32_t lo = std::max(SpanBegin(a), SpanBegin(b));
  const uint32_t hi = std::min(SpanEnd(a), SpanEnd(b));
  const bool leafy = cs_->node(a).IsLeaf() || cs_->node(b).IsLeaf();
  const bool con = cs_->EffectiveConflict(s, a, b);
  for (uint32_t j = lo; j <= hi; ++j) {
    // Leaf atomicity rule (Def 10 point 1).
    if (leafy) AddObserved(j, a, b);
    // Calculation rule 3 for an already-declared conflict.
    if (con) CalcEdge(j + 1, a, b);
  }
  if (con) {
    NodeId pa = cs_->node(a).parent;
    NodeId pb = cs_->node(b).parent;
    if (pa != pb) AddObserved(level, pa, pb);
  }
}

void OnlineFrontEngine::OnClosedWeakInput(NodeId t1, NodeId t2) {
  const uint32_t lo = std::max(SpanBegin(t1), SpanBegin(t2));
  const uint32_t hi = std::min(SpanEnd(t1), SpanEnd(t2));
  for (uint32_t j = lo; j <= hi; ++j) CcEdge(j, t1, t2);
}

void OnlineFrontEngine::OnClosedStrongInput(NodeId t1, NodeId t2) {
  StrongPair(t1, t2);
}

void OnlineFrontEngine::OnClosedWeakIntra(NodeId p, NodeId a, NodeId b) {
  const uint32_t lo = std::max(SpanBegin(a), SpanBegin(b));
  const uint32_t hi = std::min(SpanEnd(a), SpanEnd(b));
  for (uint32_t j = lo; j <= hi; ++j) CcEdge(j, a, b);
  // Def 14: the intra test of p includes its closed weak intra order.
  IntraEdge(schedule_levels_[cs_->node(p).owner_schedule.index()], p, a, b);
}

void OnlineFrontEngine::OnClosedStrongIntra(NodeId a, NodeId b) {
  StrongPair(a, b);
}

void OnlineFrontEngine::StrongPair(NodeId u, NodeId v) {
  const uint32_t us = Slot(u), vs = Slot(v);
  if (std::max(us, vs) >= strong_of_.size()) {
    strong_of_.resize(std::max(us, vs) + 1);
  }
  strong_of_[us].emplace_back(v, true);
  strong_of_[vs].emplace_back(u, false);
  // Pull the constraint down onto every front (Def 16 / front strong
  // orders): all front pairs across the two disjoint subtrees, which are
  // both CC edges and calculation rule 1 edges at the next step.
  const uint32_t hi = std::min(SpanEnd(u), SpanEnd(v));
  for (uint32_t j = 0; j <= hi; ++j) {
    const std::vector<NodeId> in_u = FrontMembersOfSubtree(u, j);
    if (in_u.empty()) continue;
    const std::vector<NodeId> in_v = FrontMembersOfSubtree(v, j);
    for (NodeId x : in_u) {
      for (NodeId y : in_v) {
        CcEdge(j, x, y);
        CalcEdge(j + 1, x, y);
      }
    }
  }
}

uint64_t OnlineFrontEngine::TopOrderKey(NodeId root) const {
  return level_[order_].cc.OrderKey(Slot(root));
}

bool OnlineFrontEngine::HasIncomingEdges(NodeId n,
                                         const BitRow& inside) const {
  const uint32_t s = Slot(n);
  for (const LevelState& l : level_) {
    if (l.cc.HasInEdgeFromOutside(s, inside)) return true;
  }
  for (const IncrementalCycleGraph& q : quotient_) {
    if (q.HasInEdgeFromOutside(s, inside)) return true;
  }
  return false;
}

void OnlineFrontEngine::RemoveNode(NodeId n) {
  const uint32_t s = Slot(n);
  for (LevelState& l : level_) {
    l.observed.RemoveNode(s);
    l.cc.RemoveNode(s);
  }
  for (IncrementalCycleGraph& q : quotient_) q.RemoveNode(s);
  if (s < intra_.size()) intra_[s].reset();
  if (s < strong_of_.size()) {
    for (const auto& [other, is_source] : strong_of_[s]) {
      if (other == n) continue;  // a self pair lives in this list only.
      auto& peers = strong_of_[Slot(other)];
      peers.erase(std::remove_if(peers.begin(), peers.end(),
                                 [&](const auto& e) { return e.first == n; }),
                  peers.end());
    }
    strong_of_[s].clear();
  }
}

bool OnlineFrontEngine::IntraGraphClean(NodeId p) const {
  const uint32_t s = Slot(p);
  return s >= intra_.size() || !intra_[s] || !intra_[s]->has_cycle();
}

size_t OnlineFrontEngine::ObservedPairCount() const {
  size_t n = 0;
  for (const LevelState& l : level_) n += l.observed.PairCount();
  return n;
}

size_t OnlineFrontEngine::CcEdgeCount() const {
  size_t n = 0;
  for (const LevelState& l : level_) n += l.cc.EdgeCount();
  return n;
}

size_t OnlineFrontEngine::CalcEdgeCount() const {
  size_t n = 0;
  for (const IncrementalCycleGraph& q : quotient_) n += q.EdgeCount();
  for (const auto& g : intra_) {
    if (g) n += g->EdgeCount();
  }
  return n;
}

}  // namespace comptx::online
