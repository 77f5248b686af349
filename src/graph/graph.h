// Immutable undirected weighted graph in CSR (compressed sparse row) form.
// This is the substrate the expert network and all shortest-path oracles
// operate on.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"

namespace teamdisc {

/// Node identifier: dense 0-based index.
using NodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Distance value for unreachable pairs.
inline constexpr double kInfDistance = std::numeric_limits<double>::infinity();

/// \brief A weighted half-edge (target + weight) in an adjacency list.
struct Neighbor {
  NodeId node;
  double weight;

  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.node == b.node && a.weight == b.weight;
  }
};

/// \brief An undirected edge with canonical endpoint order (u <= v).
struct Edge {
  NodeId u;
  NodeId v;
  double weight;

  /// Canonicalizes so that u <= v.
  static Edge Make(NodeId a, NodeId b, double weight) {
    return a <= b ? Edge{a, b, weight} : Edge{b, a, weight};
  }
  friend bool operator==(const Edge& a, const Edge& b) {
    return a.u == b.u && a.v == b.v && a.weight == b.weight;
  }
};

/// 64-bit canonical key of an undirected node pair, for hashing edge sets.
inline uint64_t EdgeKey(NodeId a, NodeId b) {
  NodeId lo = a < b ? a : b;
  NodeId hi = a < b ? b : a;
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

/// \brief Immutable undirected weighted graph (CSR).
///
/// Each undirected edge {u,v} is stored twice (u->v and v->u). Neighbor lists
/// are sorted by target id. Construct via GraphBuilder.
class Graph {
 public:
  Graph() = default;

  /// Number of nodes.
  NodeId num_nodes() const { return static_cast<NodeId>(offsets_.size()) - 1; }

  /// Number of undirected edges.
  size_t num_edges() const { return neighbors_.size() / 2; }

  bool empty() const { return num_nodes() == 0; }

  /// Degree of `v`.
  size_t Degree(NodeId v) const {
    TD_DCHECK(v < num_nodes());
    return offsets_[v + 1] - offsets_[v];
  }

  /// Sorted neighbor list of `v`.
  std::span<const Neighbor> Neighbors(NodeId v) const {
    TD_DCHECK(v < num_nodes());
    return std::span<const Neighbor>(neighbors_.data() + offsets_[v],
                                     offsets_[v + 1] - offsets_[v]);
  }

  /// Weight of edge {u, v}; kInfDistance when the edge is absent.
  /// O(log deg(u)).
  double EdgeWeight(NodeId u, NodeId v) const;

  /// True if the undirected edge {u, v} exists.
  bool HasEdge(NodeId u, NodeId v) const { return EdgeWeight(u, v) != kInfDistance; }

  /// All undirected edges in canonical (u <= v) order, sorted.
  std::vector<Edge> CanonicalEdges() const;

  /// Sum of all edge weights.
  double TotalWeight() const;

  /// Largest / smallest edge weight (0 for an edgeless graph).
  double MaxEdgeWeight() const;
  double MinEdgeWeight() const;

  /// Approximate heap footprint of the CSR arrays (for cache budgeting).
  size_t MemoryBytes() const {
    return offsets_.capacity() * sizeof(size_t) +
           neighbors_.capacity() * sizeof(Neighbor);
  }

  /// Human-readable one-line summary.
  std::string DebugString() const;

  /// Structural + weight equality.
  bool Equals(const Graph& other) const {
    return offsets_ == other.offsets_ && neighbors_ == other.neighbors_;
  }

 private:
  friend class GraphBuilder;
  Graph(std::vector<size_t> offsets, std::vector<Neighbor> neighbors)
      : offsets_(std::move(offsets)), neighbors_(std::move(neighbors)) {}

  // offsets_.size() == num_nodes + 1; empty() graph has offsets_ == {0}.
  std::vector<size_t> offsets_{0};
  std::vector<Neighbor> neighbors_;
};

/// FNV-1a 64 offset basis: the state Fnv1a64 starts from.
inline constexpr uint64_t kFnv1a64Offset = 1469598103934665603ULL;

/// 64-bit FNV-1a over `bytes`, one byte at a time, continuing from `state`.
/// The one hash behind the graph fingerprints below and the checksum that
/// seals a PLL index artifact.
uint64_t Fnv1a64(std::string_view bytes, uint64_t state = kFnv1a64Offset);

/// 64-bit FNV-1a fingerprint of a graph's weighted edge set: node count plus
/// every canonical (u, v, weight-bits) triple in sorted order. Two graphs
/// share a fingerprint iff they have the same topology AND the same
/// bit-exact edge weights — which is what persisted index artifacts must
/// check, since e.g. two authority transforms of one network differ only in
/// weights. Deterministic across runs and platforms (IEEE-754 bit pattern).
uint64_t WeightedEdgeFingerprint(const Graph& g);

/// Same fingerprint computed from an explicit edge list instead of a built
/// CSR graph. `edges` must be canonical (u <= v) and sorted by (u, v) —
/// exactly what Graph::CanonicalEdges returns — or the hash will not match
/// the graph form. Lets update paths (network deltas) predict the
/// fingerprint of a mutated edge set before paying for graph construction:
/// WeightedEdgeFingerprint(g) == WeightedEdgeSetFingerprint(g.num_nodes(),
/// g.CanonicalEdges()).
uint64_t WeightedEdgeSetFingerprint(NodeId num_nodes,
                                    std::span<const Edge> edges);

}  // namespace teamdisc
