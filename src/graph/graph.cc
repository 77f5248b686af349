#include "graph/graph.h"

#include <algorithm>
#include <bit>

#include "common/string_util.h"

namespace teamdisc {

namespace {

constexpr uint64_t kFnv1a64Prime = 1099511628211ULL;

// Feeds `value` to the hash least significant byte first, whatever the host
// byte order, so a fingerprint is the same on every platform. The
// fingerprints mix the node count first, so an edgeless 3-node graph and an
// edgeless 4-node graph differ, then every canonical edge in sorted order.
void Mix64(uint64_t& h, uint64_t value) {
  char bytes[8];
  for (int byte = 0; byte < 8; ++byte) {
    bytes[byte] = static_cast<char>(value >> (8 * byte));
  }
  h = Fnv1a64(std::string_view(bytes, sizeof(bytes)), h);
}

}  // namespace

uint64_t Fnv1a64(std::string_view bytes, uint64_t state) {
  for (char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= kFnv1a64Prime;
  }
  return state;
}

uint64_t WeightedEdgeFingerprint(const Graph& g) {
  uint64_t h = kFnv1a64Offset;
  Mix64(h, g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const Neighbor& n : g.Neighbors(u)) {
      if (u >= n.node) continue;  // canonical orientation only
      Mix64(h, EdgeKey(u, n.node));
      Mix64(h, std::bit_cast<uint64_t>(n.weight));
    }
  }
  return h;
}

uint64_t WeightedEdgeSetFingerprint(NodeId num_nodes,
                                    std::span<const Edge> edges) {
  uint64_t h = kFnv1a64Offset;
  Mix64(h, num_nodes);
  for (const Edge& e : edges) {
    TD_DCHECK(e.u <= e.v);
    Mix64(h, EdgeKey(e.u, e.v));
    Mix64(h, std::bit_cast<uint64_t>(e.weight));
  }
  return h;
}

double Graph::EdgeWeight(NodeId u, NodeId v) const {
  TD_DCHECK(u < num_nodes());
  TD_DCHECK(v < num_nodes());
  auto nbrs = Neighbors(u);
  auto it = std::lower_bound(
      nbrs.begin(), nbrs.end(), v,
      [](const Neighbor& n, NodeId target) { return n.node < target; });
  if (it != nbrs.end() && it->node == v) return it->weight;
  return kInfDistance;
}

std::vector<Edge> Graph::CanonicalEdges() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges());
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (const Neighbor& n : Neighbors(u)) {
      if (u < n.node) edges.push_back(Edge{u, n.node, n.weight});
    }
  }
  return edges;
}

double Graph::TotalWeight() const {
  double total = 0.0;
  for (const Neighbor& n : neighbors_) total += n.weight;
  return total / 2.0;
}

double Graph::MaxEdgeWeight() const {
  double best = 0.0;
  for (const Neighbor& n : neighbors_) best = std::max(best, n.weight);
  return best;
}

double Graph::MinEdgeWeight() const {
  if (neighbors_.empty()) return 0.0;
  double best = neighbors_.front().weight;
  for (const Neighbor& n : neighbors_) best = std::min(best, n.weight);
  return best;
}

std::string Graph::DebugString() const {
  return StrFormat("Graph{nodes=%u, edges=%zu, total_weight=%.4f}", num_nodes(),
                   num_edges(), TotalWeight());
}

}  // namespace teamdisc
