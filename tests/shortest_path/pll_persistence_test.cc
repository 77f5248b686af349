#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>

#include "graph/graph_builder.h"
#include "graph/graph_generators.h"
#include "shortest_path/dijkstra.h"
#include "shortest_path/kernels/label_kernels.h"
#include "shortest_path/pruned_landmark_labeling.h"

namespace teamdisc {
namespace {

/// Size statistics and footprint of a loaded index equal its built
/// original's (the build-only fields — time, threads, rounds — are not
/// persisted).
void ExpectSameShape(const PrunedLandmarkLabeling& built,
                     const PrunedLandmarkLabeling& loaded) {
  EXPECT_EQ(loaded.stats().total_entries, built.stats().total_entries);
  EXPECT_EQ(loaded.stats().max_label_size, built.stats().max_label_size);
  EXPECT_EQ(loaded.stats().avg_label_size, built.stats().avg_label_size);
  EXPECT_EQ(loaded.MemoryBytes(), built.MemoryBytes());
}

TEST(PllPersistenceTest, RoundTripAnswersIdenticalQueries) {
  Rng rng(71);
  Graph g = BarabasiAlbert(120, 2, rng).ValueOrDie();
  auto original = PrunedLandmarkLabeling::Build(g).ValueOrDie();
  auto restored =
      PrunedLandmarkLabeling::Deserialize(g, original->Serialize()).ValueOrDie();
  ExpectSameShape(*original, *restored);
  for (int q = 0; q < 200; ++q) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    EXPECT_EQ(original->Distance(u, v), restored->Distance(u, v));
  }
  // Serialization is a pure function of the index.
  EXPECT_EQ(restored->Serialize(), original->Serialize());
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
  std::string path = testing::TempDir() + "/pll_index.pll";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << original->Serialize();
    ASSERT_TRUE(out.good());
  }
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

TEST(PllPersistenceTest, V4RoundTripIdenticalAnswersOnWeightedGraph) {
  // Nontrivial weighted graph, parallel-built index: the round trip must
  // answer every query identically, bit for bit.
  Rng rng(101);
  Graph g = BarabasiAlbert(180, 3, rng, 0.2, 5.0).ValueOrDie();
  auto original =
      PrunedLandmarkLabeling::Build(g, {.num_threads = 4}).ValueOrDie();
  std::string serialized = original->Serialize();
  EXPECT_EQ(serialized.rfind("TDPLLIDX", 0), 0u) << "missing v4 magic";
  uint32_t version = 0;
  std::memcpy(&version, serialized.data() + 8, sizeof(version));
  EXPECT_EQ(version, 4u);
  auto restored = PrunedLandmarkLabeling::Deserialize(g, serialized).ValueOrDie();
  ExpectSameShape(*original, *restored);
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

// An index serialized over a graph with the SAME shape (nodes, edges, even
// the same topology) but DIFFERENT weights must be rejected, not silently
// accepted with every stored distance wrong. This is exactly the
// authority-transform trap: G' at gamma=0.25 and gamma=0.75 share the
// topology of G and differ only in edge weights.
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

/// Mutation fixture: a small index, its artifact, and the byte offsets of
/// the v4 sections (docs/FORMATS.md).
class PllArtifactMutationTest : public testing::Test {
 protected:
  void SetUp() override {
    Rng rng(89);
    graph_ = RandomConnectedGraph(20, 8, rng).ValueOrDie();
    index_ = PrunedLandmarkLabeling::Build(graph_).ValueOrDie();
    good_ = index_->Serialize();
    ASSERT_TRUE(PrunedLandmarkLabeling::Deserialize(graph_, good_).ok());
    const uint64_t n = graph_.num_nodes();
    std::memcpy(&flat_, good_.data() + 24, sizeof(flat_));
    order_at_ = 40;
    offsets_at_ = order_at_ + 4 * n;
    ranks_at_ = offsets_at_ + 8 * (n + 1);
    dists_at_ = ranks_at_ + 4 * flat_;
    ASSERT_EQ(good_.size(), dists_at_ + 12 * flat_ + 8);
  }

  Status Load(const std::string& artifact) const {
    return PrunedLandmarkLabeling::Deserialize(graph_, artifact).status();
  }

  template <typename T>
  static void Put(std::string& artifact, size_t at, T value) {
    std::memcpy(artifact.data() + at, &value, sizeof(T));
  }

  /// Rewrites the trailing checksum over the tampered bytes, so only a size
  /// or structure check can reject them.
  static void Reseal(std::string& artifact) {
    const size_t body = artifact.size() - sizeof(uint64_t);
    Put(artifact, body, Fnv1a64(std::string_view(artifact.data(), body)));
  }

  Graph graph_;
  std::unique_ptr<PrunedLandmarkLabeling> index_;
  std::string good_;
  uint64_t flat_ = 0;
  size_t order_at_ = 0, offsets_at_ = 0, ranks_at_ = 0, dists_at_ = 0;
};

TEST_F(PllArtifactMutationTest, EveryTruncationIsInvalidArgument) {
  for (size_t cut = 0; cut < good_.size(); ++cut) {
    const Status status = Load(good_.substr(0, cut));
    ASSERT_TRUE(status.IsInvalidArgument())
        << "prefix of " << cut << " bytes: " << status.ToString();
  }
}

TEST_F(PllArtifactMutationTest, EveryBitFlipIsInvalidArgument) {
  std::string mutated = good_;
  for (size_t byte = 0; byte < good_.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      mutated[byte] = static_cast<char>(good_[byte] ^ (1 << bit));
      const Status status = Load(mutated);
      ASSERT_TRUE(status.IsInvalidArgument())
          << "byte " << byte << " bit " << bit << ": " << status.ToString();
    }
    mutated[byte] = good_[byte];
  }
}

TEST_F(PllArtifactMutationTest, ResealedCorruptionFailsItsStructuralCheck) {
  ASSERT_GE(index_->LabelEntriesForNode(0), 1u);  // entry 0 is not a sentinel
  struct Row {
    const char* what;
    std::function<void(std::string&)> tamper;
    const char* message;  ///< expected in the error text
  };
  const std::vector<Row> rows = {
      {"rank out of range",
       [&](std::string& a) { Put<NodeId>(a, ranks_at_, graph_.num_nodes()); },
       "corrupt label entry"},
      {"NaN distance",
       [&](std::string& a) {
         Put(a, dists_at_, std::numeric_limits<double>::quiet_NaN());
       },
       "corrupt label entry"},
      {"order not a permutation",
       [&](std::string& a) {
         NodeId first;
         std::memcpy(&first, a.data() + order_at_, sizeof(first));
         Put(a, order_at_ + sizeof(NodeId), first);
       },
       "permutation"},
      {"offset past the entries",
       [&](std::string& a) { Put<uint64_t>(a, offsets_at_ + 8, flat_ + 64); },
       "offsets"},
      // Must fail on size, before anything is sized from the claim: a
      // 2^40-entry allocation would throw or abort.
      {"header claims 2^40 entries",
       [&](std::string& a) { Put<uint64_t>(a, 24, uint64_t{1} << 40); },
       "header implies"},
  };
  for (const Row& row : rows) {
    std::string artifact = good_;
    row.tamper(artifact);
    Reseal(artifact);
    const Status status = Load(artifact);
    EXPECT_TRUE(status.IsInvalidArgument())
        << row.what << ": " << status.ToString();
    EXPECT_NE(status.message().find(row.message), std::string::npos)
        << row.what << ": " << status.ToString();
  }
}

TEST(PllPersistenceTest, ScalarWrittenArtifactAnswersIdenticallyEverywhere) {
  // Alignment and padding are properties of the in-memory load path, not of
  // the file format: an index serialized by a scalar-kernel build must
  // deserialize into kernel-ready arrays, with the built index's shape and
  // footprint, and answer bit-identically under every compiled backend the
  // CPU supports.
  Rng rng(4242);
  Graph g = BarabasiAlbert(150, 2, rng).ValueOrDie();
  auto original = PrunedLandmarkLabeling::Build(g).ValueOrDie();
  original->UseKernelsForTesting(ScalarLabelKernels());
  const std::string artifact = original->Serialize();
  auto restored = PrunedLandmarkLabeling::Deserialize(g, artifact).ValueOrDie();
  ExpectSameShape(*original, *restored);
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
