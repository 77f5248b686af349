// Weighted Pruned Landmark Labeling (2-hop cover), after Akiba, Iwata &
// Yoshida, "Fast Exact Shortest-path Distance Queries on Large Networks by
// Pruned Landmark Labeling", SIGMOD 2013 — the indexing method the paper's
// Algorithm 1 relies on for constant-time DIST.
//
// This is the Dijkstra-based variant for non-negative real edge weights.
// Each node stores a label: a list of (hub, distance, parent) entries sorted
// by hub rank. A query merges the two labels and minimizes d(u,h) + d(h,v).
// Parent pointers (the predecessor on the hub's shortest-path tree) make
// exact path reconstruction possible without re-running any search.
//
// Storage is a flat struct-of-arrays CSR: one contiguous hub-rank array, one
// distance array, one parent array, plus per-node offsets. Every label ends
// with a sentinel entry of rank kInvalidNode so the query merge loop runs
// without bounds checks. Construction proceeds round-by-round: within a
// round, pruned Dijkstras for a batch of hubs run in parallel against the
// frozen label set, and the batch's entries are committed in rank order.
// Batching only weakens pruning (labels may grow slightly versus the
// sequential order); query answers stay exact.
// Point queries merge the two labels in plain scalar code. Label scans
// against a rank-indexed array (batched distances, target-set bounds) route
// through a runtime-dispatched kernel backend (scalar reference or AVX2; see
// shortest_path/kernels/label_kernels.h). To make the vectorized path safe
// the CSR arrays are allocated 32-byte aligned and carry kLabelRunPadEntries
// of sentinel padding past the final entry, so a vector load issued anywhere
// inside a run stays in-bounds.
// Serialize/Deserialize persist exactly these arrays as a checksummed binary
// artifact (format v4, docs/FORMATS.md), so a load is a verified copy.
#pragma once

#include <cstdint>
#include <memory>

#include "common/aligned_allocator.h"
#include "shortest_path/distance_oracle.h"
#include "shortest_path/kernels/label_kernels.h"

namespace teamdisc {

/// \brief Index-construction knobs.
struct PllBuildOptions {
  /// Worker threads for BuildIndex. 0 resolves TEAMDISC_PLL_THREADS from the
  /// environment, falling back to the hardware concurrency. 1 builds fully
  /// sequentially (classic pruned-Dijkstra order, tightest labels).
  size_t num_threads = 0;
  /// Upper bound on hubs per parallel round; the batch grows geometrically
  /// from 1 up to this cap so the top-ranked hubs (which prune the most)
  /// commit before wide rounds begin. 0 means 16 * num_threads. Forced to 1
  /// when building with a single thread.
  size_t max_batch_size = 0;
};

/// \brief Build-time and size statistics of a PLL index.
struct PllStats {
  size_t total_entries = 0;
  double avg_label_size = 0.0;
  size_t max_label_size = 0;
  double build_seconds = 0.0;
  size_t num_threads = 1;     ///< worker threads BuildIndex actually used
  size_t max_batch_size = 1;  ///< largest hub batch committed in one round
  size_t num_rounds = 0;      ///< rounds (== number of hubs when sequential)
};

/// \brief Exact 2-hop-cover distance/path oracle.
///
/// Index construction: nodes are ranked by degree (descending, ties by id);
/// for each hub in rank order a pruned Dijkstra labels every node whose
/// current-label query cannot already certify the popped distance.
/// Queries are O(|L(u)| + |L(v)|) merge joins over the flat label arrays.
class PrunedLandmarkLabeling final : public DistanceOracle {
 public:
  /// Builds the index over `g`; `g` must outlive the oracle.
  static Result<std::unique_ptr<PrunedLandmarkLabeling>> Build(
      const Graph& g, const PllBuildOptions& options = {});

  double Distance(NodeId u, NodeId v) const override;
  Result<std::vector<NodeId>> ShortestPath(NodeId u, NodeId v) const override;

  /// Batched distances: scatters the source label into a rank-indexed scratch
  /// array once, then answers each target with a single O(|L(t)|) scan —
  /// O(|L(s)| + sum |L(t)|) total instead of one merge join per target.
  void DistancesInto(NodeId source, std::span<const NodeId> targets,
                     std::vector<double>& out) const override;

  /// Hub aggregate of the target set (the keyword lookup table of Jiang, Fu
  /// and Wong, "Exact Top-k Nearest Keyword Search in Large Networks",
  /// SIGMOD 2015, on 2-hop labels): agg[rank(h)] = min over targets t with h
  /// in L(t) of d(h, t) + offset(t), built in one pass over the targets'
  /// labels. A source's answer is then min over h in L(source) of
  /// d(source, h) + agg[rank(h)], one scatter_scan over L(source) whatever
  /// the number of targets.
  std::unique_ptr<const TargetSetBound> MakeTargetSetBound(
      std::span<const NodeId> targets,
      std::span<const double> offsets) const override;

  std::string name() const override { return "pruned_landmark_labeling"; }
  const Graph& graph() const override { return *graph_; }

  const PllStats& stats() const { return stats_; }

  /// The kernel backend this oracle's label scans run on (process-wide
  /// selection at construction; see SelectedLabelKernels()).
  const LabelKernels& kernels() const { return *kernels_; }

  /// Swaps the kernel backend. Kernels are pure functions over the CSR
  /// arrays — no per-backend state — so switching is always safe; tests use
  /// this to run the same index (built or deserialized) under every compiled
  /// backend. The caller must check cpu_supported() first.
  void UseKernelsForTesting(const LabelKernels& kernels) { kernels_ = &kernels; }

  /// Heap footprint of the flat label arrays. Counts capacity (allocated,
  /// not just used, bytes) of every array, which since the aligned+padded
  /// allocation includes the kLabelRunPadEntries sentinel tail carried by
  /// hub_ranks_/label_dists_/label_parents_ beyond label_offsets_[n]; the
  /// arrays are sized exactly once (Flatten after a build, Deserialize after
  /// a load), so capacity == size and a loaded index reports what its built
  /// original did.
  size_t MemoryBytes() const override {
    return label_offsets_.capacity() * sizeof(uint64_t) +
           hub_ranks_.capacity() * sizeof(NodeId) +
           label_dists_.capacity() * sizeof(double) +
           label_parents_.capacity() * sizeof(NodeId) +
           (order_.capacity() + rank_of_.capacity()) * sizeof(NodeId);
  }

  /// Label entries of node v, excluding the sentinel (and unaffected by the
  /// pad tail, which lives past label_offsets_[n] and belongs to no node).
  size_t LabelEntriesForNode(NodeId v) const {
    return static_cast<size_t>(label_offsets_[v + 1] - label_offsets_[v]) - 1;
  }

  /// Serializes the index into the v4 artifact format (docs/FORMATS.md): a
  /// little-endian binary copy of the CSR arrays behind a header carrying
  /// the 64-bit weighted-edge-set fingerprint of the graph it was built
  /// over, sealed by an FNV-1a checksum of every byte. The graph itself is
  /// NOT stored; Deserialize checks the supplied graph against the
  /// fingerprint.
  std::string Serialize() const;

  /// Restores an index previously produced by Serialize over the same graph.
  /// Fails InvalidArgument, and allocates nothing from an unchecked size,
  /// on any other input: another format or version, a mismatched graph
  /// (the fingerprint must match exactly, so an index built over a
  /// same-shape graph with different weights, e.g. another gamma's
  /// authority transform, is rejected instead of silently answering wrong
  /// distances), a size the header does not imply, a checksum mismatch, or
  /// arrays that do not form a valid label set.
  static Result<std::unique_ptr<PrunedLandmarkLabeling>> Deserialize(
      const Graph& g, const std::string& content);

  /// Reads `path` with one sized read and Deserializes it.
  static Result<std::unique_ptr<PrunedLandmarkLabeling>> LoadFromFile(
      const Graph& g, const std::string& path);

 private:
  /// One label entry during construction; the query-time representation is
  /// the flat struct-of-arrays CSR below.
  struct LabelEntry {
    NodeId hub_rank;  ///< rank (not id) of the hub, ascending within a label
    double dist;      ///< d(node, hub)
    NodeId parent;    ///< predecessor of node on the hub's SP tree; kInvalidNode at the hub
  };

  explicit PrunedLandmarkLabeling(const Graph& g)
      : graph_(&g), kernels_(&SelectedLabelKernels()) {}

  void BuildIndex(const PllBuildOptions& options);

  /// Moves nested per-node labels into the flat CSR arrays (appending one
  /// sentinel per node) and fills the size statistics.
  void Flatten(const std::vector<std::vector<LabelEntry>>& labels);

  /// Distance query by label merge; also reports the best hub rank.
  double QueryWithHub(NodeId u, NodeId v, NodeId* best_hub_rank) const;

  /// Unwinds parent pointers from `v` up to the hub with rank `hub_rank`.
  /// Returns the node sequence v -> ... -> hub.
  std::vector<NodeId> UnwindToHub(NodeId v, NodeId hub_rank) const;

  /// 32-byte-aligned storage for the flat arrays, per the kernel contract.
  template <typename T>
  using AlignedVector = std::vector<T, AlignedAllocator<T, 32>>;

  const Graph* graph_;
  const LabelKernels* kernels_;
  // Flat CSR label storage (struct-of-arrays). Entry k of node v lives at
  // flat index label_offsets_[v] + k; hub_ranks_ ascends within each label
  // and ends with a kInvalidNode sentinel (dist kInfDistance), so merge
  // loops terminate without bounds checks. The three flat arrays extend
  // kLabelRunPadEntries sentinel entries past label_offsets_[n] so vector
  // loads issued at any in-run position (the last node's sentinel included)
  // stay inside the allocation.
  std::vector<uint64_t> label_offsets_;  ///< size n + 1
  AlignedVector<NodeId> hub_ranks_;
  AlignedVector<double> label_dists_;
  AlignedVector<NodeId> label_parents_;
  std::vector<NodeId> order_;    ///< rank -> node id
  std::vector<NodeId> rank_of_;  ///< node id -> rank
  PllStats stats_;
};

}  // namespace teamdisc
