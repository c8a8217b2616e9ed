// Tests for the online engine's dense relation types (online/slot_relation.h):
// the live-window SlotMap, SlotRelation and the word-parallel
// IncrementalClosure, checked against naive reference models under
// interleaved node removal and slot reuse.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "online/slot_relation.h"
#include "util/bitrow.h"
#include "util/rng.h"

namespace comptx::online {
namespace {

using Pair = std::pair<uint32_t, uint32_t>;

TEST(BitRowOps, ResetTrimsAndSetOpsMatchReference) {
  Rng rng(5);
  for (int round = 0; round < 200; ++round) {
    BitRow a, b;
    std::set<uint32_t> ra, rb;
    for (int i = 0; i < 40; ++i) {
      const uint32_t x = static_cast<uint32_t>(rng.UniformInt(400));
      const uint32_t y = static_cast<uint32_t>(rng.UniformInt(400));
      ASSERT_EQ(a.TestAndSet(x), ra.insert(x).second);
      b.TestAndSet(y);
      rb.insert(y);
      if (rng.Bernoulli(0.4)) {
        const uint32_t z = static_cast<uint32_t>(rng.UniformInt(400));
        a.Reset(z);
        ra.erase(z);
      }
    }
    ASSERT_EQ(a.Count(), ra.size());
    ASSERT_EQ(a.Empty(), ra.empty());
    std::vector<uint32_t> diff, expected;
    a.ForEachSetAndNot(b, [&](uint32_t id) { diff.push_back(id); });
    std::set_difference(ra.begin(), ra.end(), rb.begin(), rb.end(),
                        std::back_inserter(expected));
    ASSERT_EQ(diff, expected);
    ASSERT_EQ(a.AnyAndNot(b), !expected.empty());
    a.OrWith(b);
    ra.insert(rb.begin(), rb.end());
    std::vector<uint32_t> all;
    a.ForEachSet([&](uint32_t id) { all.push_back(id); });
    ASSERT_EQ(all, std::vector<uint32_t>(ra.begin(), ra.end()));
    // Clearing every bit one by one leaves an empty row.
    for (uint32_t id : ra) a.Reset(id);
    ASSERT_TRUE(a.Empty());
  }
}

TEST(SlotMap, ReusesReleasedSlotsBelowThePeak) {
  SlotMap slots;
  for (uint32_t i = 0; i < 8; ++i) EXPECT_EQ(slots.Acquire(NodeId(i)), i);
  slots.Release(NodeId(2));
  slots.Release(NodeId(5));
  EXPECT_FALSE(slots.Live(NodeId(2)));
  EXPECT_FALSE(slots.NodeAt(5).valid());
  EXPECT_EQ(slots.LiveCount(), 6u);
  // New nodes take the released slots before any new one is minted.
  const uint32_t s8 = slots.Acquire(NodeId(8));
  const uint32_t s9 = slots.Acquire(NodeId(9));
  EXPECT_EQ(std::set<uint32_t>({s8, s9}), std::set<uint32_t>({2, 5}));
  EXPECT_EQ(slots.NodeAt(s8), NodeId(8));
  EXPECT_EQ(slots.SlotOf(NodeId(9)), s9);
  EXPECT_EQ(slots.Acquire(NodeId(10)), 8u);
  std::vector<NodeId> live;
  slots.ForEachLive([&](NodeId n) { live.push_back(n); });
  EXPECT_EQ(live.size(), 9u);
}

/// SlotRelation against a std::set of pairs over *node* ids: nodes come
/// and go, and their slots are recycled, so a stale bit left behind by
/// RemoveNode would surface as a pair of the slot's next owner.
TEST(SlotRelation, RandomOpsWithSlotReuseMatchReference) {
  for (int round = 0; round < 100; ++round) {
    Rng rng(300 + static_cast<uint64_t>(round));
    SlotMap slots;
    SlotRelation rel;
    std::set<std::pair<uint32_t, uint32_t>> ref;  // node-id pairs
    std::vector<uint32_t> live;
    uint32_t next_node = 0;
    for (int step = 0; step < 300; ++step) {
      if (live.size() < 3 || rng.Bernoulli(0.2)) {
        slots.Acquire(NodeId(next_node));
        live.push_back(next_node++);
      } else if (rng.Bernoulli(0.15)) {
        const size_t k = rng.UniformInt(live.size());
        const uint32_t gone = live[k];
        rel.RemoveNode(slots.SlotOf(NodeId(gone)));
        slots.Release(NodeId(gone));
        live.erase(live.begin() + static_cast<ptrdiff_t>(k));
        std::erase_if(ref, [&](const auto& p) {
          return p.first == gone || p.second == gone;
        });
      } else {
        const uint32_t a = live[rng.UniformInt(live.size())];
        const uint32_t b = live[rng.UniformInt(live.size())];
        ASSERT_EQ(rel.Add(slots.SlotOf(NodeId(a)), slots.SlotOf(NodeId(b))),
                  ref.insert({a, b}).second);
      }
      ASSERT_EQ(rel.PairCount(), ref.size());
    }
    std::set<std::pair<uint32_t, uint32_t>> got;
    rel.ForEach([&](uint32_t a, uint32_t b) {
      got.insert({slots.NodeAt(a).index(), slots.NodeAt(b).index()});
    });
    ASSERT_EQ(got, ref) << "round " << round;
    // HasPredOutside against the reference, with a random inside mask.
    BitRow inside;
    std::set<uint32_t> inside_nodes;
    for (uint32_t n : live) {
      if (rng.Bernoulli(0.5)) {
        inside.TestAndSet(slots.SlotOf(NodeId(n)));
        inside_nodes.insert(n);
      }
    }
    for (uint32_t v : live) {
      bool expected = false;
      for (const auto& [a, b] : ref) {
        expected = expected || (b == v && inside_nodes.count(a) == 0);
      }
      ASSERT_EQ(rel.HasPredOutside(slots.SlotOf(NodeId(v)), inside), expected);
    }
  }
}

/// The dense closure against a naive Warshall closure over node ids.
/// After RemoveNode(v) the reference drops v's row and column; what is
/// left is still transitively closed, so every Add must emit exactly
/// Warshall(ref ∪ {(a, b)}) − ref, each new pair once.
TEST(IncrementalClosure, AddEmitsExactlyTheWarshallDelta) {
  constexpr uint32_t kMaxNodes = 128;
  for (int round = 0; round < 40; ++round) {
    Rng rng(9100 + static_cast<uint64_t>(round));
    SlotMap slots;
    IncrementalClosure closure;
    std::vector<std::vector<bool>> ref(kMaxNodes,
                                       std::vector<bool>(kMaxNodes, false));
    std::vector<uint32_t> live;
    uint32_t next_node = 0;
    std::vector<Pair> emitted;
    for (int step = 0; step < 200 && next_node < kMaxNodes; ++step) {
      if (live.size() < 4 || rng.Bernoulli(0.15)) {
        slots.Acquire(NodeId(next_node));
        live.push_back(next_node++);
        continue;
      }
      if (rng.Bernoulli(0.1)) {
        const size_t k = rng.UniformInt(live.size());
        const uint32_t gone = live[k];
        closure.RemoveNode(slots.SlotOf(NodeId(gone)));
        slots.Release(NodeId(gone));
        live.erase(live.begin() + static_cast<ptrdiff_t>(k));
        for (uint32_t x = 0; x < kMaxNodes; ++x) {
          ref[gone][x] = false;
          ref[x][gone] = false;
        }
        continue;
      }
      const uint32_t a = live[rng.UniformInt(live.size())];
      const uint32_t b = live[rng.UniformInt(live.size())];
      std::vector<std::vector<bool>> next = ref;
      next[a][b] = true;
      for (uint32_t k : live) {
        for (uint32_t i : live) {
          if (!next[i][k]) continue;
          for (uint32_t j : live) {
            if (next[k][j]) next[i][j] = true;
          }
        }
      }
      std::set<Pair> expected;
      for (uint32_t i : live) {
        for (uint32_t j : live) {
          if (next[i][j] && !ref[i][j]) expected.insert({i, j});
        }
      }
      emitted.clear();
      closure.Add(slots.SlotOf(NodeId(a)), slots.SlotOf(NodeId(b)), emitted);
      std::set<Pair> got;
      for (const auto& [x, y] : emitted) {
        ASSERT_TRUE(got.insert({slots.NodeAt(x).index(),
                                slots.NodeAt(y).index()})
                        .second)
            << "pair emitted twice";
      }
      ASSERT_EQ(got, expected) << "round " << round << " step " << step
                               << ": Add(" << a << ", " << b << ")";
      ref = std::move(next);
      size_t count = 0;
      for (uint32_t i : live) {
        for (uint32_t j : live) {
          count += ref[i][j] ? 1 : 0;
          ASSERT_EQ(closure.Contains(slots.SlotOf(NodeId(i)),
                                     slots.SlotOf(NodeId(j))),
                    ref[i][j]);
        }
      }
      ASSERT_EQ(closure.PairCount(), count);
    }
  }
}

}  // namespace
}  // namespace comptx::online
