#include "shortest_path/pruned_landmark_labeling.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "graph/graph_generators.h"
#include "shortest_path/dijkstra.h"
#include "shortest_path/path.h"

namespace teamdisc {
namespace {

std::unique_ptr<PrunedLandmarkLabeling> BuildPll(const Graph& g) {
  return PrunedLandmarkLabeling::Build(g).ValueOrDie();
}

TEST(PllTest, PathGraphDistances) {
  Graph g = PathGraph(8, 1.5).ValueOrDie();
  auto pll = BuildPll(g);
  EXPECT_DOUBLE_EQ(pll->Distance(0, 7), 10.5);
  EXPECT_DOUBLE_EQ(pll->Distance(2, 5), 4.5);
  EXPECT_EQ(pll->Distance(4, 4), 0.0);
}

TEST(PllTest, StarGraphLabelsAreSmall) {
  Graph g = StarGraph(50).ValueOrDie();
  auto pll = BuildPll(g);
  // The center is the top hub; every leaf label should be tiny.
  EXPECT_LE(pll->stats().avg_label_size, 3.0);
  EXPECT_DOUBLE_EQ(pll->Distance(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(pll->Distance(0, 10), 1.0);
}

TEST(PllTest, DisconnectedPairsAreInfinite) {
  GraphBuilder b(5);
  TD_CHECK_OK(b.AddEdge(0, 1, 1.0));
  TD_CHECK_OK(b.AddEdge(2, 3, 1.0));
  Graph g = b.Finish().ValueOrDie();
  auto pll = BuildPll(g);
  EXPECT_EQ(pll->Distance(0, 2), kInfDistance);
  EXPECT_EQ(pll->Distance(0, 4), kInfDistance);
  EXPECT_DOUBLE_EQ(pll->Distance(2, 3), 1.0);
  EXPECT_TRUE(pll->ShortestPath(0, 4).status().IsNotFound());
}

TEST(PllTest, EmptyAndSingletonGraphs) {
  GraphBuilder b0(0);
  Graph g0 = b0.Finish().ValueOrDie();
  auto pll0 = BuildPll(g0);
  EXPECT_EQ(pll0->stats().total_entries, 0u);

  GraphBuilder b1(1);
  Graph g1 = b1.Finish().ValueOrDie();
  auto pll1 = BuildPll(g1);
  EXPECT_EQ(pll1->Distance(0, 0), 0.0);
  EXPECT_EQ(pll1->ShortestPath(0, 0).ValueOrDie(), (std::vector<NodeId>{0}));
}

TEST(PllTest, PathReconstructionOnDiamond) {
  GraphBuilder b(4);
  TD_CHECK_OK(b.AddEdge(0, 1, 1.0));
  TD_CHECK_OK(b.AddEdge(1, 3, 1.0));
  TD_CHECK_OK(b.AddEdge(0, 2, 1.0));
  TD_CHECK_OK(b.AddEdge(2, 3, 5.0));
  Graph g = b.Finish().ValueOrDie();
  auto pll = BuildPll(g);
  auto path = pll->ShortestPath(0, 3).ValueOrDie();
  EXPECT_TRUE(ValidatePath(g, path, 0, 3).ok());
  EXPECT_DOUBLE_EQ(PathLength(g, path), 2.0);
}

TEST(PllTest, ZeroWeightEdgesPathStillValid) {
  GraphBuilder b(4);
  TD_CHECK_OK(b.AddEdge(0, 1, 0.0));
  TD_CHECK_OK(b.AddEdge(1, 2, 0.0));
  TD_CHECK_OK(b.AddEdge(2, 3, 0.0));
  TD_CHECK_OK(b.AddEdge(0, 3, 0.0));
  Graph g = b.Finish().ValueOrDie();
  auto pll = BuildPll(g);
  EXPECT_EQ(pll->Distance(0, 3), 0.0);
  auto path = pll->ShortestPath(0, 3).ValueOrDie();
  EXPECT_TRUE(ValidatePath(g, path, 0, 3).ok());
  EXPECT_TRUE(IsSimplePath(path));
  EXPECT_DOUBLE_EQ(PathLength(g, path), 0.0);
}

TEST(PllTest, StatsArePopulated) {
  Rng rng(41);
  Graph g = BarabasiAlbert(200, 2, rng).ValueOrDie();
  auto pll = BuildPll(g);
  const PllStats& stats = pll->stats();
  EXPECT_GT(stats.total_entries, 200u);  // at least one entry per node
  EXPECT_GT(stats.avg_label_size, 1.0);
  EXPECT_GE(stats.max_label_size, static_cast<size_t>(stats.avg_label_size));
  EXPECT_GE(stats.build_seconds, 0.0);
  size_t total = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    total += pll->LabelEntriesForNode(v);
  }
  EXPECT_EQ(total, stats.total_entries);
}

TEST(PllTest, HighestDegreeHubLabeledEverywhere) {
  // In a connected graph, every node's label contains the rank-0 hub.
  Rng rng(43);
  Graph g = RandomConnectedGraph(60, 60, rng).ValueOrDie();
  auto pll = BuildPll(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(pll->LabelEntriesForNode(v), 1u);
  }
}

TEST(PllTest, MemoryBytesPinnedOnTinyGraph) {
  // Hand-computed accounting for the aligned + padded CSR allocation on the
  // path 0-1-2 (unit weights), built sequentially so labels are fully
  // deterministic. Node 1 has degree 2 -> rank 0; hub 0 then prunes
  // everything, leaving labels {0:[(r0,1),(r1,0)], 1:[(r0,0)], 2:[(r0,1),
  // (r2,0)]} = 5 entries.
  GraphBuilder b(3);
  TD_CHECK_OK(b.AddEdge(0, 1, 1.0));
  TD_CHECK_OK(b.AddEdge(1, 2, 1.0));
  Graph g = b.Finish().ValueOrDie();
  auto pll = PrunedLandmarkLabeling::Build(g, {.num_threads = 1}).ValueOrDie();
  ASSERT_EQ(pll->stats().total_entries, 5u);
  EXPECT_EQ(pll->LabelEntriesForNode(0), 2u);
  EXPECT_EQ(pll->LabelEntriesForNode(1), 1u);
  EXPECT_EQ(pll->LabelEntriesForNode(2), 2u);
  // Flat arrays hold entries + one sentinel per node + the vector-load pad
  // tail; Flatten sizes each array exactly once so capacity == size and the
  // bytes below are the whole allocation story.
  const size_t n = 3;
  const size_t padded = 5 + n + kLabelRunPadEntries;
  const size_t expected = (n + 1) * sizeof(uint64_t)          // label_offsets_
                          + padded * sizeof(NodeId)           // hub_ranks_
                          + padded * sizeof(double)           // label_dists_
                          + padded * sizeof(NodeId)           // label_parents_
                          + 2 * n * sizeof(NodeId);           // order_, rank_of_
  EXPECT_EQ(pll->MemoryBytes(), expected);
  // The deserialization path must account identically (same Flatten).
  auto restored =
      PrunedLandmarkLabeling::Deserialize(g, pll->Serialize()).ValueOrDie();
  EXPECT_EQ(restored->MemoryBytes(), expected);
}

TEST(PllTest, OracleNameAndGraph) {
  Graph g = PathGraph(3).ValueOrDie();
  auto pll = BuildPll(g);
  EXPECT_EQ(pll->name(), "pruned_landmark_labeling");
  EXPECT_EQ(&pll->graph(), &g);
}

/// Random connected graph whose weights are small dyadic rationals
/// (multiples of 1/4), so shortest-path sums are exact in double and PLL
/// distances must be bit-identical to Dijkstra's.
Graph DyadicWeightGraph(NodeId n, size_t extra_edges, Rng& rng) {
  GraphBuilder b(n);
  auto weight = [&rng] { return 0.25 * static_cast<double>(1 + rng.NextBounded(16)); };
  for (NodeId v = 1; v < n; ++v) {
    TD_CHECK_OK(b.AddEdge(static_cast<NodeId>(rng.NextBounded(v)), v, weight()));
  }
  for (size_t e = 0; e < extra_edges; ++e) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u == v) continue;
    (void)b.AddEdge(u, v, weight());  // duplicate chords are fine to drop
  }
  return b.Finish().ValueOrDie();
}

TEST(PllParallelBuildTest, AllPairsBitIdenticalToDijkstra) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    Graph g = DyadicWeightGraph(90, 60, rng);
    auto pll =
        PrunedLandmarkLabeling::Build(g, {.num_threads = 4}).ValueOrDie();
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      ShortestPathTree tree = DijkstraSssp(g, s);
      for (NodeId t = 0; t < g.num_nodes(); ++t) {
        ASSERT_EQ(pll->Distance(s, t), tree.dist[t])
            << "seed " << seed << " s=" << s << " t=" << t;
      }
    }
  }
}

TEST(PllParallelBuildTest, ParallelAnswersMatchSequentialBuild) {
  Rng rng(51);
  Graph g = BarabasiAlbert(300, 3, rng).ValueOrDie();
  auto sequential =
      PrunedLandmarkLabeling::Build(g, {.num_threads = 1}).ValueOrDie();
  auto parallel = PrunedLandmarkLabeling::Build(
                      g, {.num_threads = 4, .max_batch_size = 32})
                      .ValueOrDie();
  // Batching weakens pruning, so the two indexes may answer through
  // different (equally shortest) hubs; distances agree to rounding.
  for (int q = 0; q < 400; ++q) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    EXPECT_DOUBLE_EQ(parallel->Distance(u, v), sequential->Distance(u, v));
  }
}

TEST(PllParallelBuildTest, ParallelPathsAreValid) {
  Rng rng(57);
  Graph g = RandomConnectedGraph(120, 80, rng).ValueOrDie();
  auto pll = PrunedLandmarkLabeling::Build(g, {.num_threads = 3}).ValueOrDie();
  for (int q = 0; q < 60; ++q) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    auto path = pll->ShortestPath(u, v).ValueOrDie();
    EXPECT_TRUE(ValidatePath(g, path, u, v).ok());
    EXPECT_NEAR(PathLength(g, path), DijkstraPointToPoint(g, u, v), 1e-9);
  }
}

TEST(PllParallelBuildTest, StatsReportThreadsBatchesAndRounds) {
  Rng rng(61);
  Graph g = BarabasiAlbert(200, 2, rng).ValueOrDie();
  auto parallel = PrunedLandmarkLabeling::Build(
                      g, {.num_threads = 4, .max_batch_size = 16})
                      .ValueOrDie();
  EXPECT_EQ(parallel->stats().num_threads, 4u);
  EXPECT_GT(parallel->stats().max_batch_size, 1u);
  EXPECT_LE(parallel->stats().max_batch_size, 16u);
  EXPECT_GT(parallel->stats().num_rounds, 0u);
  EXPECT_LT(parallel->stats().num_rounds, 200u);  // genuinely batched

  auto sequential =
      PrunedLandmarkLabeling::Build(g, {.num_threads = 1}).ValueOrDie();
  EXPECT_EQ(sequential->stats().num_threads, 1u);
  EXPECT_EQ(sequential->stats().max_batch_size, 1u);
  EXPECT_EQ(sequential->stats().num_rounds, 200u);  // one hub per round
}

}  // namespace
}  // namespace teamdisc
