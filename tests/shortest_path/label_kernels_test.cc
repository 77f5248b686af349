// Differential suite for the label-kernel backends: every compiled backend
// the CPU can run must be BIT-identical to the scalar reference on
// scatter_scan — same double bits — over adversarially shaped label runs
// (empty, run lengths straddling the vector width, all-inf and negative rank
// arrays) and over randomized runs; plus a seeded random-graph sweep
// asserting PLL-under-each-kernel == Dijkstra on dyadic weights, and
// coverage of the TEAMDISC_KERNEL resolution rules.
#include "shortest_path/kernels/label_kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/aligned_allocator.h"
#include "common/random.h"
#include "graph/graph_builder.h"
#include "shortest_path/dijkstra.h"
#include "shortest_path/pruned_landmark_labeling.h"

namespace teamdisc {
namespace {

/// A sentinel-terminated, pad-tailed label run per the kernel contract, so
/// hand-built runs are safe for vector loads exactly like the PLL's CSR.
struct PaddedRun {
  std::vector<NodeId> ranks;
  std::vector<double> dists;

  /// entries: (rank, dist) pairs, ascending in rank.
  explicit PaddedRun(const std::vector<std::pair<NodeId, double>>& entries) {
    for (const auto& [rank, dist] : entries) {
      ranks.push_back(rank);
      dists.push_back(dist);
    }
    for (size_t k = 0; k < 1 + kLabelRunPadEntries; ++k) {
      ranks.push_back(kInvalidNode);
      dists.push_back(kInfDistance);
    }
  }
};

/// Backends the running CPU can execute (scalar always first).
std::vector<const LabelKernels*> RunnableKernels() {
  std::vector<const LabelKernels*> out;
  for (const LabelKernels* k : CompiledLabelKernels()) {
    if (k->cpu_supported()) out.push_back(k);
  }
  return out;
}

void ExpectScanMatchesScalar(const LabelKernels& kernel, const PaddedRun& t,
                             const std::vector<double>& scratch,
                             const char* what) {
  const double ref = ScalarLabelKernels().scatter_scan(
      t.ranks.data(), t.dists.data(), scratch.data());
  const double got =
      kernel.scatter_scan(t.ranks.data(), t.dists.data(), scratch.data());
  EXPECT_EQ(std::bit_cast<uint64_t>(ref), std::bit_cast<uint64_t>(got))
      << kernel.name << " scatter_scan mismatch (" << what
      << "): scalar=" << ref << " got=" << got;
}

TEST(LabelKernelsTest, ScalarIsAlwaysCompiledAndFirst) {
  auto compiled = CompiledLabelKernels();
  ASSERT_GE(compiled.size(), 1u);
  EXPECT_STREQ(compiled[0]->name, "scalar");
  EXPECT_TRUE(compiled[0]->cpu_supported());
}

TEST(LabelKernelsTest, ScatterScanNastyShapesAndRandomizedDifferential) {
  Rng rng(97);
  const NodeId universe = 64;
  // Scratch with a mix of finite entries and kInfDistance holes, like a
  // scattered source label.
  std::vector<double> scratch(universe, kInfDistance);
  for (NodeId r = 0; r < universe; ++r) {
    if (rng.NextBounded(2) == 0) {
      scratch[r] = 0.25 * static_cast<double>(rng.NextBounded(32));
    }
  }
  // Widths around the 4-lane gather: 0, 1, 3, 4, 5, 8, 11 entries.
  for (size_t len : {0u, 1u, 3u, 4u, 5u, 8u, 11u}) {
    std::vector<std::pair<NodeId, double>> entries;
    NodeId r = static_cast<NodeId>(rng.NextBounded(4));
    for (size_t k = 0; k < len; ++k) {
      entries.push_back({r, 0.25 * static_cast<double>(rng.NextBounded(32))});
      r = static_cast<NodeId>(r + 1 + rng.NextBounded(4));
      if (r >= universe) break;
    }
    const PaddedRun run(entries);
    for (const LabelKernels* k : RunnableKernels()) {
      ExpectScanMatchesScalar(*k, run, scratch, "shaped");
    }
  }
  // All-holes scratch: every candidate is inf + finite = inf.
  const std::vector<double> empty_scratch(universe, kInfDistance);
  const PaddedRun run({{1, 1.0}, {5, 0.5}, {9, 2.0}, {12, 0.25}, {40, 1.0}});
  for (const LabelKernels* k : RunnableKernels()) {
    ExpectScanMatchesScalar(*k, run, empty_scratch, "all-inf scratch");
  }
  // A hub aggregate holds d(h, t) + offset(t), and offsets may be negative,
  // so the rank array can hold negative values (and sums exactly 0).
  std::vector<double> aggregate(universe, kInfDistance);
  for (NodeId r = 0; r < universe; r += 2) {
    aggregate[r] = -0.25 * static_cast<double>(rng.NextBounded(32));
  }
  const PaddedRun long_run({{0, 1.0}, {2, 0.5}, {4, 7.75}, {6, 0.25},
                            {8, 2.0}, {10, 3.0}, {12, 0.0}, {14, 1.25},
                            {16, 4.0}});
  for (const LabelKernels* k : RunnableKernels()) {
    ExpectScanMatchesScalar(*k, run, aggregate, "negative rank array");
    ExpectScanMatchesScalar(*k, long_run, aggregate, "negative, 9 entries");
  }
}

/// Random connected graph with dyadic weights (multiples of 1/4): sums are
/// exact in double, so PLL under any backend must equal Dijkstra exactly.
Graph DyadicWeightGraph(NodeId n, size_t extra_edges, Rng& rng) {
  GraphBuilder b(n);
  auto weight = [&rng] {
    return 0.25 * static_cast<double>(1 + rng.NextBounded(16));
  };
  for (NodeId v = 1; v < n; ++v) {
    TD_CHECK_OK(b.AddEdge(static_cast<NodeId>(rng.NextBounded(v)), v, weight()));
  }
  for (size_t e = 0; e < extra_edges; ++e) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u == v) continue;
    (void)b.AddEdge(u, v, weight());
  }
  return b.Finish().ValueOrDie();
}

TEST(LabelKernelsTest, PllUnderEveryKernelMatchesDijkstraOnDyadicWeights) {
  for (uint64_t seed : {101u, 202u}) {
    Rng rng(seed);
    Graph g = DyadicWeightGraph(70, 50, rng);
    auto pll = PrunedLandmarkLabeling::Build(g).ValueOrDie();
    std::vector<double> batched;
    std::vector<NodeId> all(g.num_nodes());
    for (NodeId t = 0; t < g.num_nodes(); ++t) all[t] = t;
    for (const LabelKernels* k : RunnableKernels()) {
      pll->UseKernelsForTesting(*k);
      for (NodeId s = 0; s < g.num_nodes(); ++s) {
        ShortestPathTree tree = DijkstraSssp(g, s);
        pll->DistancesInto(s, all, batched);
        for (NodeId t = 0; t < g.num_nodes(); ++t) {
          ASSERT_EQ(pll->Distance(s, t), tree.dist[t])
              << k->name << " seed " << seed << " s=" << s << " t=" << t;
          ASSERT_EQ(batched[t], tree.dist[t])
              << k->name << " batched, seed " << seed << " s=" << s
              << " t=" << t;
        }
      }
    }
  }
}

TEST(LabelKernelsTest, ResolutionRules) {
  // "scalar" always honors the request.
  EXPECT_STREQ(ResolveLabelKernels("scalar").name, "scalar");
  const LabelKernels* avx2 = Avx2LabelKernelsOrNull();
  const bool avx2_usable = avx2 != nullptr && avx2->cpu_supported();
  // "auto" (and the unset default) pick avx2 exactly when it is usable.
  for (const char* req : {"auto", ""}) {
    EXPECT_STREQ(ResolveLabelKernels(req).name,
                 avx2_usable ? "avx2" : "scalar")
        << "request \"" << req << "\"";
  }
  // An explicit "avx2" request degrades to scalar (with a warning) instead
  // of crashing when the backend is missing or the CPU lacks it.
  EXPECT_STREQ(ResolveLabelKernels("avx2").name,
               avx2_usable ? "avx2" : "scalar");
  // Unknown values warn and behave like auto.
  EXPECT_STREQ(ResolveLabelKernels("sse9").name,
               avx2_usable ? "avx2" : "scalar");
  // The process-wide selection is one of the compiled backends and runnable.
  const LabelKernels& selected = SelectedLabelKernels();
  EXPECT_TRUE(selected.cpu_supported());
}

TEST(LabelKernelsTest, AlignedAllocatorDelivers32ByteBases) {
  // The CSR arrays the kernels load from are allocated through
  // AlignedAllocator<_, 32>; verify the allocator actually over-aligns, for
  // a few sizes including reallocation-driven growth.
  std::vector<double, AlignedAllocator<double, 32>> d;
  std::vector<NodeId, AlignedAllocator<NodeId, 32>> r;
  for (int i = 0; i < 100; ++i) {
    d.push_back(1.0);
    r.push_back(2);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(d.data()) % 32, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(r.data()) % 32, 0u);
  }
}

TEST(LabelKernelsTest, KernelSwapKeepsAnswersIdentical) {
  // Kernels are pure functions over the CSR arrays, so swapping the backend
  // on a live index must not change a single bit of any answer: batched
  // distances, and target-set bounds built before or after the swap.
  Rng rng(7);
  Graph g = DyadicWeightGraph(40, 30, rng);
  auto pll = PrunedLandmarkLabeling::Build(g).ValueOrDie();
  const std::vector<NodeId> targets = {17, 4, 29, 33};
  const std::vector<double> offsets = {0.5, -0.75, 0.0, 1.25};
  std::vector<double> before;
  pll->DistancesInto(3, targets, before);
  const double bound_before =
      pll->MakeTargetSetBound(targets, offsets)->MinOffsetDistance(3);
  for (const LabelKernels* k : RunnableKernels()) {
    pll->UseKernelsForTesting(*k);
    std::vector<double> after;
    pll->DistancesInto(3, targets, after);
    for (size_t i = 0; i < targets.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(after[i]),
                std::bit_cast<uint64_t>(before[i]))
          << k->name << " target " << targets[i];
    }
    const double bound_after =
        pll->MakeTargetSetBound(targets, offsets)->MinOffsetDistance(3);
    EXPECT_EQ(std::bit_cast<uint64_t>(bound_after),
              std::bit_cast<uint64_t>(bound_before))
        << k->name;
  }
}

}  // namespace
}  // namespace teamdisc
