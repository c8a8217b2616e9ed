// Tests for online::IncrementalCycleGraph (Pearce-Kelly dynamic
// acyclicity): cross-checks against the batch cycle finder after every
// insertion, and exercises the witness contract, node removal and the
// maintained topological order.

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "graph/cycle_finder.h"
#include "graph/digraph.h"
#include "online/incremental_cycles.h"
#include "util/bitrow.h"
#include "util/rng.h"

namespace comptx::online {
namespace {

TEST(IncrementalCycleGraph, EmptyGraphIsAcyclic) {
  IncrementalCycleGraph g;
  EXPECT_FALSE(g.has_cycle());
  EXPECT_EQ(g.NodeCount(), 0u);
  EXPECT_EQ(g.EdgeCount(), 0u);
}

TEST(IncrementalCycleGraph, ChainStaysAcyclic) {
  IncrementalCycleGraph g;
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(g.AddEdge(i, i + 1));
  }
  EXPECT_FALSE(g.has_cycle());
  EXPECT_EQ(g.EdgeCount(), 10u);
}

TEST(IncrementalCycleGraph, DuplicateEdgeIsIdempotent) {
  IncrementalCycleGraph g;
  EXPECT_TRUE(g.AddEdge(0u, 1u));
  EXPECT_TRUE(g.AddEdge(0u, 1u));
  EXPECT_EQ(g.EdgeCount(), 1u);
}

TEST(IncrementalCycleGraph, SelfLoopIsOneNodeCycle) {
  IncrementalCycleGraph g;
  EXPECT_FALSE(g.AddEdge(3u, 3u));
  EXPECT_TRUE(g.has_cycle());
  ASSERT_EQ(g.cycle_witness().size(), 1u);
  EXPECT_EQ(g.cycle_witness()[0], 3u);
}

TEST(IncrementalCycleGraph, TwoCycleDetected) {
  IncrementalCycleGraph g;
  EXPECT_TRUE(g.AddEdge(0u, 1u));
  EXPECT_FALSE(g.AddEdge(1u, 0u));
  EXPECT_TRUE(g.has_cycle());
}

TEST(IncrementalCycleGraph, BackEdgeClosingLongPathDetected) {
  IncrementalCycleGraph g;
  for (uint32_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(g.AddEdge(i, i + 1));
  }
  EXPECT_FALSE(g.AddEdge(20u, 0u));
  EXPECT_TRUE(g.has_cycle());
}

/// The witness must be a real cycle of the inserted edges: every
/// consecutive pair an edge, and the last node closing back to the first.
TEST(IncrementalCycleGraph, WitnessIsARealCycle) {
  IncrementalCycleGraph g;
  // Diamond with a back edge: 0->1->3, 0->2->3, then 3->0 closes.
  ASSERT_TRUE(g.AddEdge(0u, 1u));
  ASSERT_TRUE(g.AddEdge(1u, 3u));
  ASSERT_TRUE(g.AddEdge(0u, 2u));
  ASSERT_TRUE(g.AddEdge(2u, 3u));
  ASSERT_FALSE(g.AddEdge(3u, 0u));
  const std::vector<uint32_t>& w = g.cycle_witness();
  ASSERT_GE(w.size(), 2u);
  for (size_t i = 0; i + 1 < w.size(); ++i) {
    EXPECT_TRUE(g.HasEdge(w[i], w[i + 1]))
        << "witness edge " << w[i] << " -> " << w[i + 1] << " missing";
  }
  EXPECT_TRUE(g.HasEdge(w.back(), w.front()));
}

TEST(IncrementalCycleGraph, FailureIsSticky) {
  IncrementalCycleGraph g;
  ASSERT_TRUE(g.AddEdge(0u, 1u));
  ASSERT_FALSE(g.AddEdge(1u, 0u));
  // Later edges are still recorded (adjacency stays complete for pruning)
  // but the verdict stays failed.
  EXPECT_FALSE(g.AddEdge(5u, 6u));
  EXPECT_TRUE(g.has_cycle());
  EXPECT_TRUE(g.HasEdge(5u, 6u));
}

/// On an acyclic graph the maintained order keys are a topological order:
/// every edge goes from a smaller key to a larger one.
TEST(IncrementalCycleGraph, OrderKeysAreTopological) {
  Rng rng(7);
  IncrementalCycleGraph g;
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  // Random DAG edges i -> j with i < j, inserted in shuffled order so the
  // structure reorders constantly.
  for (uint32_t i = 0; i < 30; ++i) {
    for (uint32_t j = i + 1; j < 30; ++j) {
      if (rng.Bernoulli(0.12)) edges.emplace_back(i, j);
    }
  }
  rng.Shuffle(edges);
  for (const auto& [a, b] : edges) ASSERT_TRUE(g.AddEdge(a, b));
  EXPECT_FALSE(g.has_cycle());
  for (const auto& [a, b] : edges) {
    EXPECT_LT(g.OrderKey(a), g.OrderKey(b))
        << a << " -> " << b << " violates the maintained order";
  }
}

TEST(IncrementalCycleGraph, InDegreeAndRemoveNode) {
  IncrementalCycleGraph g;
  ASSERT_TRUE(g.AddEdge(0u, 2u));
  ASSERT_TRUE(g.AddEdge(1u, 2u));
  ASSERT_TRUE(g.AddEdge(2u, 3u));
  EXPECT_EQ(g.InDegree(2u), 2u);
  EXPECT_EQ(g.InDegree(0u), 0u);
  EXPECT_EQ(g.InDegree(99u), 0u);  // unknown node
  g.RemoveNode(2u);
  EXPECT_FALSE(g.Contains(2u));
  EXPECT_EQ(g.InDegree(3u), 0u);
  EXPECT_EQ(g.EdgeCount(), 0u);
  // The survivors can still take edges.
  EXPECT_TRUE(g.AddEdge(0u, 3u));
  EXPECT_FALSE(g.has_cycle());
}

/// Randomized cross-check: after every single insertion, the incremental
/// verdict must equal batch IsAcyclic on the same edge set.  Once a cycle
/// appears the incremental graph reports failure forever (sticky), which
/// the batch check confirms stays cyclic since edges are never removed.
TEST(IncrementalCycleGraph, RandomizedAgainstBatchCycleFinder) {
  constexpr uint32_t kNodes = 24;
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    Rng rng(1000 + static_cast<uint64_t>(round));
    IncrementalCycleGraph inc;
    graph::Digraph batch(kNodes);
    bool failed = false;
    const int edges = static_cast<int>(rng.UniformRange(5, 60));
    for (int e = 0; e < edges; ++e) {
      const uint32_t a = static_cast<uint32_t>(rng.UniformInt(kNodes));
      const uint32_t b = static_cast<uint32_t>(rng.UniformInt(kNodes));
      bool ok = inc.AddEdge(a, b);
      batch.AddEdge(a, b);
      bool batch_acyclic = graph::IsAcyclic(batch) && !batch.HasSelfLoop();
      failed = failed || !batch_acyclic;
      ASSERT_EQ(ok, !failed)
          << "round " << round << " edge " << e << ": " << a << " -> " << b;
      ASSERT_EQ(inc.has_cycle(), failed);
    }
    // When failed, the recorded witness must be a genuine cycle.
    if (failed && !inc.cycle_witness().empty()) {
      const std::vector<uint32_t>& w = inc.cycle_witness();
      for (size_t i = 0; i + 1 < w.size(); ++i) {
        ASSERT_TRUE(inc.HasEdge(w[i], w[i + 1]));
      }
      ASSERT_TRUE(inc.HasEdge(w.back(), w.front()));
    }
  }
}

/// A removed vertex's id handed to a new vertex carries nothing over: no
/// in- or out-edge in either direction, and a fresh order key that sorts
/// after every current vertex.
TEST(IncrementalCycleGraph, RemovedIdIsReusedWithoutStaleState) {
  IncrementalCycleGraph g;
  ASSERT_TRUE(g.AddEdge(5u, 1u));  // 5 sorts before 1 after the reorder
  ASSERT_TRUE(g.AddEdge(1u, 2u));
  ASSERT_TRUE(g.AddEdge(0u, 1u));
  ASSERT_TRUE(g.AddEdge(1u, 1000u));
  g.RemoveNode(1u);  // every edge touched 1
  EXPECT_EQ(g.EdgeCount(), 0u);
  EXPECT_EQ(g.NodeCount(), 4u);
  g.EnsureNode(1u);  // reuse: a brand-new vertex
  EXPECT_EQ(g.InDegree(1u), 0u);
  for (uint32_t other : {0u, 2u, 5u, 1000u}) {
    EXPECT_FALSE(g.HasEdge(1u, other));
    EXPECT_FALSE(g.HasEdge(other, 1u));
    EXPECT_LT(g.OrderKey(other), g.OrderKey(1u));
  }
  BitRow nobody;
  EXPECT_FALSE(g.HasInEdgeFromOutside(2u, nobody));
  EXPECT_FALSE(g.HasInEdgeFromOutside(1000u, nobody));
  // The reused vertex takes the reverse edges without a spurious cycle.
  EXPECT_TRUE(g.AddEdge(2u, 1u));
  EXPECT_TRUE(g.AddEdge(1000u, 1u));
  EXPECT_TRUE(g.AddEdge(1u, 0u));
  EXPECT_FALSE(g.has_cycle());
  EXPECT_FALSE(g.AddEdge(0u, 2u));  // closes 2 -> 1 -> 0 -> 2
  EXPECT_TRUE(g.has_cycle());
}

/// RandomizedAgainstBatchCycleFinder with removals: vertices are removed
/// at random and their ids reused by new vertices.  The batch reference
/// is keyed by a never-reused vertex name, so an edge or order key that
/// survived removal would make the two disagree.  Failure stays sticky:
/// once a cycle formed the incremental graph stays failed even if a later
/// removal breaks the cycle.
TEST(IncrementalCycleGraph, RandomizedRemoveAndReuseAgainstBatchCycleFinder) {
  for (int round = 0; round < 200; ++round) {
    Rng rng(5000 + static_cast<uint64_t>(round));
    IncrementalCycleGraph inc;
    std::vector<uint32_t> name_of_id;  // id -> current name
    std::vector<uint32_t> free_ids;
    std::vector<uint32_t> live_ids;
    std::set<std::pair<uint32_t, uint32_t>> edges;  // over names
    uint32_t next_name = 0;
    bool failed = false;
    auto new_vertex = [&] {
      uint32_t id;
      if (!free_ids.empty()) {
        id = free_ids.back();
        free_ids.pop_back();
        name_of_id[id] = next_name++;
      } else {
        id = static_cast<uint32_t>(name_of_id.size());
        name_of_id.push_back(next_name++);
      }
      live_ids.push_back(id);
    };
    for (int i = 0; i < 6; ++i) new_vertex();
    for (int step = 0; step < 80; ++step) {
      if (rng.Bernoulli(0.1)) {
        new_vertex();
        continue;
      }
      if (live_ids.size() > 3 && rng.Bernoulli(0.1)) {
        const size_t k = rng.UniformInt(live_ids.size());
        const uint32_t id = live_ids[k];
        const uint32_t name = name_of_id[id];
        inc.RemoveNode(id);
        std::erase_if(edges, [&](const auto& e) {
          return e.first == name || e.second == name;
        });
        live_ids.erase(live_ids.begin() + static_cast<ptrdiff_t>(k));
        free_ids.push_back(id);
        continue;
      }
      const uint32_t a = live_ids[rng.UniformInt(live_ids.size())];
      const uint32_t b = live_ids[rng.UniformInt(live_ids.size())];
      const bool ok = inc.AddEdge(a, b);
      edges.insert({name_of_id[a], name_of_id[b]});
      graph::Digraph batch(next_name);
      for (const auto& [x, y] : edges) batch.AddEdge(x, y);
      failed = failed || !graph::IsAcyclic(batch) || batch.HasSelfLoop();
      ASSERT_EQ(ok, !failed) << "round " << round << " step " << step;
      ASSERT_EQ(inc.EdgeCount(), edges.size());
      for (uint32_t x : live_ids) {
        for (uint32_t y : live_ids) {
          ASSERT_EQ(inc.HasEdge(x, y),
                    edges.count({name_of_id[x], name_of_id[y]}) > 0);
        }
      }
      if (!failed) {
        for (uint32_t x : live_ids) {
          for (uint32_t y : live_ids) {
            if (inc.HasEdge(x, y)) {
              ASSERT_LT(inc.OrderKey(x), inc.OrderKey(y));
            }
          }
        }
      }
    }
  }
}

/// Randomized DAG-only stress: only forward edges (never creating cycles),
/// verifying the incremental structure never reports a spurious cycle even
/// under heavy reordering, and keeps keys topological throughout.
TEST(IncrementalCycleGraph, RandomizedDagNeverFails) {
  for (int round = 0; round < 50; ++round) {
    Rng rng(77000 + static_cast<uint64_t>(round));
    constexpr uint32_t kNodes = 40;
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (uint32_t i = 0; i < kNodes; ++i) {
      for (uint32_t j = i + 1; j < kNodes; ++j) {
        if (rng.Bernoulli(0.08)) edges.emplace_back(i, j);
      }
    }
    rng.Shuffle(edges);
    IncrementalCycleGraph g;
    for (const auto& [a, b] : edges) {
      ASSERT_TRUE(g.AddEdge(a, b));
      ASSERT_FALSE(g.has_cycle());
    }
    for (const auto& [a, b] : edges) {
      ASSERT_LT(g.OrderKey(a), g.OrderKey(b));
    }
  }
}

}  // namespace
}  // namespace comptx::online
