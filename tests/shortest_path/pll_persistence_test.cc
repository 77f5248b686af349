#include <gtest/gtest.h>

#include <bit>
#include <cstdio>

#include "common/string_util.h"
#include "graph/graph_builder.h"
#include "graph/graph_generators.h"
#include "shortest_path/dijkstra.h"
#include "shortest_path/kernels/label_kernels.h"
#include "shortest_path/pruned_landmark_labeling.h"

namespace teamdisc {
namespace {

TEST(PllPersistenceTest, RoundTripAnswersIdenticalQueries) {
  Rng rng(71);
  Graph g = BarabasiAlbert(120, 2, rng).ValueOrDie();
  auto original = PrunedLandmarkLabeling::Build(g).ValueOrDie();
  auto restored =
      PrunedLandmarkLabeling::Deserialize(g, original->Serialize()).ValueOrDie();
  EXPECT_EQ(restored->stats().total_entries, original->stats().total_entries);
  for (int q = 0; q < 200; ++q) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    EXPECT_EQ(original->Distance(u, v), restored->Distance(u, v));
  }
}

TEST(PllPersistenceTest, RestoredPathsAreValid) {
  Rng rng(73);
  Graph g = RandomConnectedGraph(60, 40, rng).ValueOrDie();
  auto original = PrunedLandmarkLabeling::Build(g).ValueOrDie();
  auto restored =
      PrunedLandmarkLabeling::Deserialize(g, original->Serialize()).ValueOrDie();
  for (int q = 0; q < 40; ++q) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    auto path = restored->ShortestPath(u, v).ValueOrDie();
    EXPECT_EQ(path.front(), u);
    EXPECT_EQ(path.back(), v);
    double expected = DijkstraPointToPoint(g, u, v);
    double total = 0.0;
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      total += g.EdgeWeight(path[i], path[i + 1]);
    }
    EXPECT_NEAR(total, expected, 1e-9);
  }
}

TEST(PllPersistenceTest, FileRoundTrip) {
  Rng rng(79);
  Graph g = RandomConnectedGraph(40, 20, rng).ValueOrDie();
  auto original = PrunedLandmarkLabeling::Build(g).ValueOrDie();
  std::string path = testing::TempDir() + "/pll_index.txt";
  ASSERT_TRUE(original->SaveToFile(path).ok());
  auto restored = PrunedLandmarkLabeling::LoadFromFile(g, path).ValueOrDie();
  EXPECT_EQ(restored->Distance(0, 39), original->Distance(0, 39));
  std::remove(path.c_str());
}

TEST(PllPersistenceTest, RejectsMismatchedGraph) {
  Rng rng(83);
  Graph g1 = RandomConnectedGraph(30, 10, rng).ValueOrDie();
  Graph g2 = RandomConnectedGraph(31, 10, rng).ValueOrDie();
  auto original = PrunedLandmarkLabeling::Build(g1).ValueOrDie();
  auto result = PrunedLandmarkLabeling::Deserialize(g2, original->Serialize());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(PllPersistenceTest, RejectsCorruptInput) {
  Rng rng(89);
  Graph g = RandomConnectedGraph(20, 8, rng).ValueOrDie();
  auto original = PrunedLandmarkLabeling::Build(g).ValueOrDie();
  std::string good = original->Serialize();
  EXPECT_FALSE(PrunedLandmarkLabeling::Deserialize(g, "").ok());
  EXPECT_FALSE(PrunedLandmarkLabeling::Deserialize(g, "garbage").ok());
  EXPECT_FALSE(
      PrunedLandmarkLabeling::Deserialize(g, good.substr(0, good.size() / 2))
          .ok());
  // Negative distance injection.
  std::string tampered = good;
  size_t pos = tampered.find(" 0 ");  // some numeric field
  if (pos != std::string::npos) tampered.replace(pos, 3, " -9 ");
  (void)PrunedLandmarkLabeling::Deserialize(g, tampered);  // must not crash
}

TEST(PllPersistenceTest, V3RoundTripIdenticalAnswersOnWeightedGraph) {
  // Nontrivial weighted graph, parallel-built index: the v3 (flat CSR +
  // fingerprint) round-trip must answer every query identically, bit for bit.
  Rng rng(101);
  Graph g = BarabasiAlbert(180, 3, rng, 0.2, 5.0).ValueOrDie();
  auto original =
      PrunedLandmarkLabeling::Build(g, {.num_threads = 4}).ValueOrDie();
  std::string serialized = original->Serialize();
  EXPECT_EQ(serialized.rfind("pll v3 ", 0), 0u) << "Serialize must emit v3";
  auto restored = PrunedLandmarkLabeling::Deserialize(g, serialized).ValueOrDie();
  EXPECT_EQ(restored->stats().total_entries, original->stats().total_entries);
  EXPECT_EQ(restored->stats().max_label_size, original->stats().max_label_size);
  std::vector<NodeId> targets;
  for (int i = 0; i < 16; ++i) {
    targets.push_back(static_cast<NodeId>(rng.NextBounded(g.num_nodes())));
  }
  for (int q = 0; q < 300; ++q) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    ASSERT_EQ(original->Distance(u, v), restored->Distance(u, v));
  }
  NodeId s = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
  EXPECT_EQ(original->Distances(s, targets), restored->Distances(s, targets));
}

TEST(PllPersistenceTest, ReadsLegacyV1Format) {
  // Hand-written v1 index for the path graph 0 -1.5- 1 -2.5- 2. Hub order is
  // degree-descending (node 1 first); labels follow the sequential pruned
  // Dijkstra: every node is covered by hub 1, nodes 0 and 2 add themselves.
  Graph g = [] {
    GraphBuilder b(3);
    TD_CHECK_OK(b.AddEdge(0, 1, 1.5));
    TD_CHECK_OK(b.AddEdge(1, 2, 2.5));
    return b.Finish().ValueOrDie();
  }();
  const std::string v1 =
      "pll v1 3 2\n"
      "order 1 0 2\n"
      "label 0 2 0 1.5 1 1 0 -1\n"
      "label 1 1 0 0 -1\n"
      "label 2 2 0 2.5 1 2 0 -1\n";
  auto pll = PrunedLandmarkLabeling::Deserialize(g, v1).ValueOrDie();
  EXPECT_DOUBLE_EQ(pll->Distance(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(pll->Distance(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(pll->Distance(1, 2), 2.5);
  EXPECT_EQ(pll->ShortestPath(0, 2).ValueOrDie(), (std::vector<NodeId>{0, 1, 2}));
  // Re-serializing upgrades to v2 with identical answers.
  auto upgraded =
      PrunedLandmarkLabeling::Deserialize(g, pll->Serialize()).ValueOrDie();
  EXPECT_EQ(upgraded->Distance(0, 2), pll->Distance(0, 2));
}

// The v3 regression this format version exists for: an index serialized over
// a graph with the SAME shape (nodes, edges, even the same topology) but
// DIFFERENT weights must be rejected, not silently accepted with every
// stored distance wrong. This is exactly the authority-transform trap: G'
// at gamma=0.25 and gamma=0.75 share the topology of G and differ only in
// edge weights.
TEST(PllPersistenceTest, RejectsSameShapeDifferentWeightsGraph) {
  auto build_weighted = [](double scale) {
    GraphBuilder b(5);
    TD_CHECK_OK(b.AddEdge(0, 1, 1.0 * scale));
    TD_CHECK_OK(b.AddEdge(1, 2, 2.0 * scale));
    TD_CHECK_OK(b.AddEdge(2, 3, 1.5 * scale));
    TD_CHECK_OK(b.AddEdge(3, 4, 0.5 * scale));
    TD_CHECK_OK(b.AddEdge(4, 0, 2.5 * scale));
    return b.Finish().ValueOrDie();
  };
  Graph g1 = build_weighted(1.0);
  Graph g2 = build_weighted(3.0);  // identical topology, different weights
  ASSERT_EQ(g1.num_nodes(), g2.num_nodes());
  ASSERT_EQ(g1.num_edges(), g2.num_edges());
  auto original = PrunedLandmarkLabeling::Build(g1).ValueOrDie();
  auto result = PrunedLandmarkLabeling::Deserialize(g2, original->Serialize());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("fingerprint"), std::string::npos)
      << result.status().ToString();
  // Against the graph it was built over, the same payload loads fine.
  EXPECT_TRUE(PrunedLandmarkLabeling::Deserialize(g1, original->Serialize()).ok());
}

TEST(PllPersistenceTest, ReadsLegacyV2FormatFromSameGraph) {
  // A v2 artifact (flat CSR, no fingerprint) from the same graph must keep
  // loading: strip the fingerprint field off a v3 header to fabricate one.
  Rng rng(107);
  Graph g = BarabasiAlbert(90, 2, rng, 0.2, 4.0).ValueOrDie();
  auto original = PrunedLandmarkLabeling::Build(g).ValueOrDie();
  std::string v3 = original->Serialize();
  ASSERT_EQ(v3.rfind("pll v3 ", 0), 0u);
  size_t header_end = v3.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  std::string header = v3.substr(0, header_end);
  size_t last_space = header.rfind(' ');
  ASSERT_NE(last_space, std::string::npos);
  std::string v2 = "pll v2 " + header.substr(7, last_space - 7) +
                   v3.substr(header_end);
  auto restored = PrunedLandmarkLabeling::Deserialize(g, v2).ValueOrDie();
  for (int q = 0; q < 100; ++q) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    ASSERT_EQ(original->Distance(u, v), restored->Distance(u, v));
  }
}

TEST(PllPersistenceTest, RejectsMalformedV3Fingerprint) {
  Rng rng(109);
  Graph g = RandomConnectedGraph(15, 5, rng).ValueOrDie();
  auto original = PrunedLandmarkLabeling::Build(g).ValueOrDie();
  std::string good = original->Serialize();
  size_t header_end = good.find('\n');
  std::string no_fp = good;
  size_t last_space = good.rfind(' ', header_end);
  no_fp.replace(last_space + 1, header_end - last_space - 1, "nothex!");
  EXPECT_TRUE(
      PrunedLandmarkLabeling::Deserialize(g, no_fp).status().IsInvalidArgument());
}

TEST(PllPersistenceTest, RejectsCorruptV2Input) {
  Rng rng(103);
  Graph g = RandomConnectedGraph(25, 10, rng).ValueOrDie();
  auto original = PrunedLandmarkLabeling::Build(g).ValueOrDie();
  std::string good = original->Serialize();
  EXPECT_FALSE(
      PrunedLandmarkLabeling::Deserialize(g, good.substr(0, good.size() / 3))
          .ok());
  // Entry count that disagrees with the sizes section.
  std::string tampered = good;
  size_t header_end = tampered.find('\n');
  tampered.replace(0, header_end, StrFormat("pll v2 %u %zu %zu", g.num_nodes(),
                                            g.num_edges(), size_t{999999}));
  EXPECT_TRUE(
      PrunedLandmarkLabeling::Deserialize(g, tampered).status().IsInvalidArgument());
  // Out-of-range hub rank.
  std::string bad_rank = good;
  size_t pos = bad_rank.find("\nranks ");
  ASSERT_NE(pos, std::string::npos);
  bad_rank.replace(pos + 7, 1, "9999999");
  EXPECT_FALSE(PrunedLandmarkLabeling::Deserialize(g, bad_rank).ok());
}

TEST(PllPersistenceTest, V3WrittenByScalarBuildAnswersIdenticallyUnderAvx2) {
  // Alignment and padding are properties of the in-memory load path
  // (Flatten), not of the v3 file format: an index serialized by a
  // scalar-kernel build must deserialize into kernel-ready arrays and answer
  // bit-identically under every compiled backend the CPU supports.
  Rng rng(4242);
  Graph g = BarabasiAlbert(150, 2, rng).ValueOrDie();
  auto original = PrunedLandmarkLabeling::Build(g).ValueOrDie();
  original->UseKernelsForTesting(ScalarLabelKernels());
  const std::string artifact = original->Serialize();
  auto restored = PrunedLandmarkLabeling::Deserialize(g, artifact).ValueOrDie();
  std::vector<NodeId> targets;
  for (int i = 0; i < 40; ++i) {
    targets.push_back(static_cast<NodeId>(rng.NextBounded(g.num_nodes())));
  }
  std::vector<double> want, got;
  for (const LabelKernels* k : CompiledLabelKernels()) {
    if (!k->cpu_supported()) continue;
    restored->UseKernelsForTesting(*k);
    for (int q = 0; q < 200; ++q) {
      NodeId u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
      NodeId v = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
      ASSERT_EQ(std::bit_cast<uint64_t>(original->Distance(u, v)),
                std::bit_cast<uint64_t>(restored->Distance(u, v)))
          << k->name << " u=" << u << " v=" << v;
    }
    original->DistancesInto(3, targets, want);
    restored->DistancesInto(3, targets, got);
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(want[i]),
                std::bit_cast<uint64_t>(got[i]))
          << k->name << " batched target " << targets[i];
    }
  }
}

TEST(PllPersistenceTest, LoadMissingFileFails) {
  Rng rng(97);
  Graph g = RandomConnectedGraph(10, 4, rng).ValueOrDie();
  EXPECT_TRUE(PrunedLandmarkLabeling::LoadFromFile(g, "/no/such/index.txt")
                  .status()
                  .IsIOError());
  // A directory opens like a file but has no size to read; the load must
  // fail cleanly instead of sizing a buffer from its end offset.
  EXPECT_TRUE(PrunedLandmarkLabeling::LoadFromFile(g, testing::TempDir())
                  .status()
                  .IsIOError());
}

}  // namespace
}  // namespace teamdisc
