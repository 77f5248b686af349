// Abstract point-to-point shortest-path oracle over a Graph.
//
// The paper's Algorithm 1 assumes DIST(u, v) answered in (near) constant
// time via "distance labeling, or 2-hop cover [Akiba et al., SIGMOD'13]".
// We provide that (PrunedLandmarkLabeling) plus Dijkstra-based oracles for
// verification and ablation, all behind this interface.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace teamdisc {

/// \brief min over a fixed target set T of Distance(source, t) + offset(t),
/// answered for any source without visiting T (see
/// DistanceOracle::MakeTargetSetBound).
class TargetSetBound {
 public:
  virtual ~TargetSetBound() = default;

  /// min over t in T of Distance(source, t) + offset(t). It equals the value
  /// computed from Distance() only up to floating-point rounding (the terms
  /// are added in another order), so callers comparing it with exact costs
  /// must allow a slack. kInfDistance when no target is reachable.
  virtual double MinOffsetDistance(NodeId source) const = 0;
};

/// \brief Point-to-point distance + path queries over a fixed graph.
///
/// Implementations hold a reference to the graph they were built on; the
/// graph must outlive the oracle.
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  /// Shortest-path distance between u and v; kInfDistance if disconnected;
  /// 0 when u == v.
  virtual double Distance(NodeId u, NodeId v) const = 0;

  /// A shortest path as a node sequence [u, ..., v]. Fails with NotFound when
  /// v is unreachable from u. Returns {u} when u == v.
  virtual Result<std::vector<NodeId>> ShortestPath(NodeId u, NodeId v) const = 0;

  /// Distances from `source` to each of `targets`; convenience wrapper over
  /// DistancesInto that allocates the result vector.
  std::vector<double> Distances(NodeId source,
                                std::span<const NodeId> targets) const;

  /// Fills `out` with the distance from `source` to each target (aligned with
  /// `targets`; `out` is cleared first). The default loops over Distance();
  /// batched implementations override with one traversal (Dijkstra) or one
  /// label scatter (PLL). Hot loops should reuse `out` across calls so its
  /// capacity amortizes.
  virtual void DistancesInto(NodeId source, std::span<const NodeId> targets,
                             std::vector<double>& out) const;

  /// Preprocesses `targets`, with the finite per-target `offsets` (aligned
  /// with `targets`), for callers that ask the same target set from many
  /// sources. Null (the default) when the oracle cannot answer a source
  /// faster than DistancesInto over the targets. The result reads this
  /// oracle's index, so the oracle must outlive it.
  virtual std::unique_ptr<const TargetSetBound> MakeTargetSetBound(
      std::span<const NodeId> /*targets*/,
      std::span<const double> /*offsets*/) const {
    return nullptr;
  }

  /// Approximate heap footprint of the oracle's own index structures,
  /// excluding the graph it references (for cache budgeting). Oracles that
  /// keep no index (per-query Dijkstra) report 0.
  virtual size_t MemoryBytes() const { return 0; }

  /// Implementation name for logs and ablation tables.
  virtual std::string name() const = 0;

  /// The graph this oracle answers queries about.
  virtual const Graph& graph() const = 0;
};

/// Oracle implementation selector (ablation experiment E7).
enum class OracleKind {
  kPrunedLandmarkLabeling,  ///< default; the paper's 2-hop cover
  kDijkstra,                ///< per-query Dijkstra with early exit
  kBidirectionalDijkstra,   ///< per-query bidirectional Dijkstra
};

/// Builds an oracle of the given kind over `g` (g must outlive the oracle).
Result<std::unique_ptr<DistanceOracle>> MakeOracle(const Graph& g, OracleKind kind);

std::string_view OracleKindToString(OracleKind kind);

/// Inverse of OracleKindToString ("pll", "dijkstra", "bidirectional");
/// fails InvalidArgument on anything else.
Result<OracleKind> OracleKindFromString(std::string_view name);

}  // namespace teamdisc
