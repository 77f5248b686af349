#include "shortest_path/pruned_landmark_labeling.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

#include "common/env.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "shortest_path/min_heap.h"
#include "shortest_path/path.h"

namespace teamdisc {

namespace {

// Index artifact, format v4: the in-memory CSR arrays, little-endian, behind
// a fixed header and ahead of a checksum (layout table in docs/FORMATS.md).
//   0  magic "TDPLLIDX"      8  u32 version = 4     12  u32 num_nodes
//   16 u64 num_edges         24 u64 flat (entries + one sentinel per node)
//   32 u64 WeightedEdgeFingerprint of the graph
//   40 order u32[n], label_offsets u64[n+1], hub_ranks u32[flat],
//      label_dists f64[flat], label_parents u32[flat]
//   then u64 Fnv1a64 of every byte before it.
// The bytes are the host's own, so the format needs a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the PLL index artifact is read and written little-endian");

constexpr char kArtifactMagic[8] = {'T', 'D', 'P', 'L', 'L', 'I', 'D', 'X'};
constexpr uint32_t kArtifactVersion = 4;
constexpr size_t kArtifactHeaderBytes = 40;
/// A flat entry's bytes across hub_ranks, label_dists and label_parents.
constexpr uint64_t kBytesPerEntry =
    sizeof(NodeId) + sizeof(double) + sizeof(NodeId);

/// Artifact size for `n` nodes and `flat` entries; exact for any n, since
/// n is 32-bit (callers keep `flat` small enough not to overflow).
uint64_t ArtifactBytes(uint64_t n, uint64_t flat) {
  return kArtifactHeaderBytes + n * sizeof(NodeId) +
         (n + 1) * sizeof(uint64_t) + flat * kBytesPerEntry + sizeof(uint64_t);
}

template <typename T>
T GetAt(const std::string& in, size_t at) {
  T value;
  std::memcpy(&value, in.data() + at, sizeof(T));
  return value;
}

template <typename T>
void AppendArray(std::string& out, const T* data, size_t count) {
  out.append(reinterpret_cast<const char*>(data), count * sizeof(T));
}

/// Copies `count` values from `in` at byte `at` into `out`; advances `at`.
template <typename T>
void CopyArray(const std::string& in, size_t& at, T* out, size_t count) {
  std::memcpy(out, in.data() + at, count * sizeof(T));
  at += count * sizeof(T);
}

/// Effective worker count: explicit option, else TEAMDISC_PLL_THREADS, else
/// the hardware concurrency.
size_t ResolveBuildThreads(const PllBuildOptions& options) {
  return ThreadPool::ResolveThreadCount(options.num_threads,
                                        "TEAMDISC_PLL_THREADS");
}

/// Sentinel-terminated merge of two label runs: both cursors walk forward,
/// matches minimize with strict < (so ties break to the lowest-ranked hub),
/// and the loop ends when both cursors sit on their sentinels. Returns
/// min(u_dist + v_dist) over common hubs, kInfDistance when there is none;
/// `best_hub_rank` (may be null) receives the rank attaining it.
double MergeDistance(const NodeId* ru, const double* du, const NodeId* rv,
                     const double* dv, NodeId* best_hub_rank) {
  double best = kInfDistance;
  if (best_hub_rank == nullptr) {
    // Distance-only path (the common point query): no hub tracking, so the
    // minimization is a branchless minsd instead of a compare-and-branch.
    for (;;) {
      const NodeId a = *ru, b = *rv;
      if (a == b) {
        if (a == kInvalidNode) break;
        const double d = *du + *dv;
        best = d < best ? d : best;
        ++ru, ++du, ++rv, ++dv;
      } else if (a < b) {
        ++ru, ++du;
      } else {
        ++rv, ++dv;
      }
    }
    return best;
  }
  NodeId best_rank = kInvalidNode;
  for (;;) {
    const NodeId a = *ru, b = *rv;
    if (a == b) {
      if (a == kInvalidNode) break;
      const double d = *du + *dv;
      if (d < best) {
        best = d;
        best_rank = a;
      }
      ++ru, ++du, ++rv, ++dv;
    } else if (a < b) {
      ++ru, ++du;
    } else {
      ++rv, ++dv;
    }
  }
  *best_hub_rank = best_rank;
  return best;
}

/// See PrunedLandmarkLabeling::MakeTargetSetBound. Holds raw views of the
/// index's CSR arrays; the index outlives it by the DistanceOracle contract.
class HubAggregate final : public TargetSetBound {
 public:
  HubAggregate(const LabelKernels& kernels, const uint64_t* offsets,
               const NodeId* ranks, const double* dists, size_t num_ranks)
      : kernels_(kernels),
        offsets_(offsets),
        ranks_(ranks),
        dists_(dists),
        agg_(num_ranks, kInfDistance) {}

  /// Folds target `t`'s label into the aggregate.
  void Add(NodeId t, double offset) {
    for (uint64_t k = offsets_[t]; k < offsets_[t + 1] - 1; ++k) {
      const double d = dists_[k] + offset;
      double& slot = agg_[ranks_[k]];
      if (d < slot) slot = d;
    }
  }

  double MinOffsetDistance(NodeId source) const override {
    return kernels_.scatter_scan(ranks_ + offsets_[source],
                                 dists_ + offsets_[source], agg_.data());
  }

 private:
  const LabelKernels& kernels_;
  const uint64_t* offsets_;
  const NodeId* ranks_;
  const double* dists_;
  std::vector<double> agg_;  ///< rank-indexed; kInfDistance at unshared hubs
};

}  // namespace

Result<std::unique_ptr<PrunedLandmarkLabeling>> PrunedLandmarkLabeling::Build(
    const Graph& g, const PllBuildOptions& options) {
  auto pll = std::unique_ptr<PrunedLandmarkLabeling>(new PrunedLandmarkLabeling(g));
  pll->BuildIndex(options);
  return pll;
}

void PrunedLandmarkLabeling::BuildIndex(const PllBuildOptions& options) {
  Timer timer;
  const Graph& g = *graph_;
  const NodeId n = g.num_nodes();
  order_.resize(n);
  rank_of_.resize(n);
  std::iota(order_.begin(), order_.end(), NodeId{0});
  // Degree-descending hub order: high-degree nodes cover many shortest paths,
  // which is what makes pruning effective on social networks.
  std::sort(order_.begin(), order_.end(), [&g](NodeId a, NodeId b) {
    size_t da = g.Degree(a), db = g.Degree(b);
    if (da != db) return da > db;
    return a < b;
  });
  for (NodeId rank = 0; rank < n; ++rank) rank_of_[order_[rank]] = rank;

  const size_t threads = ResolveBuildThreads(options);
  // A single thread gains nothing from batching but would still lose the
  // within-batch prunings, so it keeps the classic one-hub-at-a-time order.
  const size_t batch_cap =
      threads <= 1 ? 1
                   : (options.max_batch_size != 0 ? options.max_batch_size
                                                  : 16 * threads);

  // Labels under construction (nested; flattened into the CSR at the end).
  // Reading is concurrent during a round; writes happen only in the
  // single-threaded commit step between rounds.
  std::vector<std::vector<LabelEntry>> labels(n);

  // Per-worker Dijkstra scratch, allocated once and reset via `touched`.
  struct Scratch {
    std::vector<double> dist;
    std::vector<NodeId> parent;
    std::vector<NodeId> touched;
    internal::MinHeap heap;
  };
  ThreadPool pool(threads > 1 ? threads : 0);
  std::vector<Scratch> scratch(pool.NumShards(threads > 1 ? batch_cap : 1));
  for (Scratch& s : scratch) {
    s.dist.assign(n, kInfDistance);
    s.parent.assign(n, kInvalidNode);
    s.touched.reserve(n);
  }

  // An entry discovered for one hub, in Dijkstra settle order.
  struct Pending {
    NodeId node;
    NodeId parent;
    double dist;
  };

  // Pruned Dijkstra from the hub at `rank` against the frozen labels;
  // appends every labeled node to `out` instead of mutating `labels`.
  auto run_hub = [&](Scratch& s, NodeId rank, std::vector<Pending>& out) {
    const NodeId hub = order_[rank];
    const std::vector<LabelEntry>& hub_label = labels[hub];
    s.dist[hub] = 0.0;
    s.touched.push_back(hub);
    s.heap.push({0.0, hub});
    while (!s.heap.empty()) {
      auto [d, u] = s.heap.top();
      s.heap.pop();
      if (d > s.dist[u]) continue;  // stale entry
      // Prune: if committed labels already certify a distance <= d for the
      // pair (hub, u), u needs no entry for this hub and no expansion.
      // (All committed entries have rank below this round's batch.)
      bool pruned = false;
      if (u != hub) {
        const std::vector<LabelEntry>& u_label = labels[u];
        size_t i = 0, j = 0;
        while (i < hub_label.size() && j < u_label.size()) {
          if (hub_label[i].hub_rank < u_label[j].hub_rank) {
            ++i;
          } else if (hub_label[i].hub_rank > u_label[j].hub_rank) {
            ++j;
          } else {
            if (hub_label[i].dist + u_label[j].dist <= d) {
              pruned = true;
              break;
            }
            ++i;
            ++j;
          }
        }
      }
      if (pruned) continue;
      out.push_back(Pending{u, s.parent[u], d});
      for (const Neighbor& nb : g.Neighbors(u)) {
        double nd = d + nb.weight;
        if (nd < s.dist[nb.node]) {
          if (s.dist[nb.node] == kInfDistance) s.touched.push_back(nb.node);
          s.dist[nb.node] = nd;
          s.parent[nb.node] = u;
          s.heap.push({nd, nb.node});
        }
      }
    }
    for (NodeId v : s.touched) {
      s.dist[v] = kInfDistance;
      s.parent[v] = kInvalidNode;
    }
    s.touched.clear();
  };

  // Round-by-round batched construction. The batch grows geometrically from
  // 1 to batch_cap: the first (highest-degree) hubs prune the most, and
  // committing them before wide rounds keeps labels close to the sequential
  // build's size.
  std::vector<std::vector<Pending>> round_out;
  size_t rounds = 0;
  size_t max_batch_used = n > 0 ? 1 : 0;
  size_t batch = 1;
  NodeId next_rank = 0;
  while (next_rank < n) {
    const size_t count = std::min<size_t>(batch, n - next_rank);
    if (round_out.size() < count) round_out.resize(count);
    pool.ParallelForWorkers(count, [&](size_t worker, size_t i) {
      run_hub(scratch[worker], next_rank + static_cast<NodeId>(i), round_out[i]);
    });
    // Commit in rank order so every per-node label stays rank-sorted.
    for (size_t i = 0; i < count; ++i) {
      const NodeId rank = next_rank + static_cast<NodeId>(i);
      for (const Pending& p : round_out[i]) {
        labels[p.node].push_back(LabelEntry{rank, p.dist, p.parent});
      }
      round_out[i].clear();
    }
    max_batch_used = std::max(max_batch_used, count);
    ++rounds;
    next_rank += static_cast<NodeId>(count);
    batch = std::min(batch * 2, batch_cap);
  }

  Flatten(labels);
  stats_.num_threads = threads;
  stats_.max_batch_size = max_batch_used;
  stats_.num_rounds = rounds;
  stats_.build_seconds = timer.ElapsedSeconds();
}

void PrunedLandmarkLabeling::Flatten(
    const std::vector<std::vector<LabelEntry>>& labels) {
  const size_t n = labels.size();
  stats_.total_entries = 0;
  stats_.max_label_size = 0;
  for (const auto& label : labels) {
    stats_.total_entries += label.size();
    stats_.max_label_size = std::max(stats_.max_label_size, label.size());
  }
  stats_.avg_label_size =
      n == 0 ? 0.0 : static_cast<double>(stats_.total_entries) / n;

  const size_t flat = stats_.total_entries + n;  // one sentinel per node
  // The pad tail keeps vector loads in-bounds even when a kernel's cursor
  // sits on the last node's sentinel; it lives past label_offsets_[n] and is
  // excluded from every per-node accessor. Sized exactly once, so
  // capacity == size and MemoryBytes() accounts the padding too.
  const size_t padded = flat + kLabelRunPadEntries;
  label_offsets_.assign(n + 1, 0);
  hub_ranks_.resize(padded);
  label_dists_.resize(padded);
  label_parents_.resize(padded);
  uint64_t off = 0;
  for (size_t v = 0; v < n; ++v) {
    label_offsets_[v] = off;
    for (const LabelEntry& e : labels[v]) {
      hub_ranks_[off] = e.hub_rank;
      label_dists_[off] = e.dist;
      label_parents_[off] = e.parent;
      ++off;
    }
    hub_ranks_[off] = kInvalidNode;  // sentinel: compares greater than any rank
    label_dists_[off] = kInfDistance;
    label_parents_[off] = kInvalidNode;
    ++off;
  }
  label_offsets_[n] = off;
  for (size_t k = flat; k < padded; ++k) {
    hub_ranks_[k] = kInvalidNode;
    label_dists_[k] = kInfDistance;
    label_parents_[k] = kInvalidNode;
  }
}

double PrunedLandmarkLabeling::QueryWithHub(NodeId u, NodeId v,
                                            NodeId* best_hub_rank) const {
  return MergeDistance(hub_ranks_.data() + label_offsets_[u],
                       label_dists_.data() + label_offsets_[u],
                       hub_ranks_.data() + label_offsets_[v],
                       label_dists_.data() + label_offsets_[v], best_hub_rank);
}

double PrunedLandmarkLabeling::Distance(NodeId u, NodeId v) const {
  TD_DCHECK(u < graph_->num_nodes());
  TD_DCHECK(v < graph_->num_nodes());
  if (u == v) return 0.0;
  return QueryWithHub(u, v, nullptr);
}

void PrunedLandmarkLabeling::DistancesInto(NodeId source,
                                           std::span<const NodeId> targets,
                                           std::vector<double>& out) const {
  TD_DCHECK(source < graph_->num_nodes());
  out.clear();
  out.reserve(targets.size());
  // Rank-indexed scratch, grown on demand and restored to kInfDistance after
  // every call so it can be shared across oracles on the same thread.
  thread_local std::vector<double> scratch;
  const size_t n = rank_of_.size();
  if (scratch.size() < n) scratch.resize(n, kInfDistance);
  const uint64_t s_begin = label_offsets_[source];
  const uint64_t s_end = label_offsets_[source + 1] - 1;  // exclude sentinel
  for (uint64_t k = s_begin; k < s_end; ++k) {
    scratch[hub_ranks_[k]] = label_dists_[k];
  }
  for (size_t i = 0; i < targets.size(); ++i) {
    const NodeId t = targets[i];
    TD_DCHECK(t < graph_->num_nodes());
    // Pull the next target's run toward the cache while this one scans; the
    // targets of one batch are scattered all over the flat arrays, so each
    // scan otherwise opens with a cold miss.
    if (i + 1 < targets.size()) {
      const uint64_t next = label_offsets_[targets[i + 1]];
      __builtin_prefetch(hub_ranks_.data() + next);
      __builtin_prefetch(label_dists_.data() + next);
    }
    if (t == source) {
      out.push_back(0.0);
      continue;
    }
    out.push_back(kernels_->scatter_scan(hub_ranks_.data() + label_offsets_[t],
                                         label_dists_.data() + label_offsets_[t],
                                         scratch.data()));
  }
  for (uint64_t k = s_begin; k < s_end; ++k) {
    scratch[hub_ranks_[k]] = kInfDistance;
  }
}

std::unique_ptr<const TargetSetBound>
PrunedLandmarkLabeling::MakeTargetSetBound(
    std::span<const NodeId> targets, std::span<const double> offsets) const {
  TD_DCHECK(targets.size() == offsets.size());
  auto aggregate = std::make_unique<HubAggregate>(
      *kernels_, label_offsets_.data(), hub_ranks_.data(), label_dists_.data(),
      rank_of_.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    TD_DCHECK(targets[i] < graph_->num_nodes());
    aggregate->Add(targets[i], offsets[i]);
  }
  return aggregate;
}

std::vector<NodeId> PrunedLandmarkLabeling::UnwindToHub(NodeId v,
                                                        NodeId hub_rank) const {
  // Each node on the hub's shortest-path tree stores its tree parent in the
  // entry for that hub; pruning never removes entries on the tree path
  // (a pruned node is never expanded, so nothing downstream was labeled
  // through it). Hence the chain below always terminates at the hub.
  std::vector<NodeId> chain;
  NodeId cur = v;
  while (true) {
    chain.push_back(cur);
    const NodeId* begin = hub_ranks_.data() + label_offsets_[cur];
    const NodeId* end = hub_ranks_.data() + (label_offsets_[cur + 1] - 1);
    const NodeId* it = std::lower_bound(begin, end, hub_rank);
    TD_CHECK(it != end && *it == hub_rank)
        << "PLL parent chain broken at node " << cur;
    const uint64_t k = label_offsets_[cur] + static_cast<uint64_t>(it - begin);
    if (label_parents_[k] == kInvalidNode) break;  // reached the hub
    cur = label_parents_[k];
  }
  return chain;
}

std::string PrunedLandmarkLabeling::Serialize() const {
  const NodeId n = graph_->num_nodes();
  const uint64_t flat = label_offsets_[n];
  const uint64_t header[] = {graph_->num_edges(), flat,
                             WeightedEdgeFingerprint(*graph_)};
  std::string out;
  out.reserve(ArtifactBytes(n, flat));
  out.append(kArtifactMagic, sizeof(kArtifactMagic));
  AppendArray(out, &kArtifactVersion, 1);
  AppendArray(out, &n, 1);
  AppendArray(out, header, 3);
  // The pad tail past label_offsets_[n] is an in-memory concern of the
  // kernels; the reader rebuilds it.
  AppendArray(out, order_.data(), n);
  AppendArray(out, label_offsets_.data(), n + 1);
  AppendArray(out, hub_ranks_.data(), flat);
  AppendArray(out, label_dists_.data(), flat);
  AppendArray(out, label_parents_.data(), flat);
  const uint64_t checksum = Fnv1a64(out);
  AppendArray(out, &checksum, 1);
  return out;
}

Result<std::unique_ptr<PrunedLandmarkLabeling>> PrunedLandmarkLabeling::Deserialize(
    const Graph& g, const std::string& content) {
  // 1. Header: format, then the graph it was built over.
  if (content.size() < kArtifactHeaderBytes + sizeof(uint64_t) ||
      std::memcmp(content.data(), kArtifactMagic, sizeof(kArtifactMagic))) {
    return Status::InvalidArgument("not a PLL index artifact");
  }
  const auto version = GetAt<uint32_t>(content, 8);
  if (version != kArtifactVersion) {
    return Status::InvalidArgument(
        StrFormat("PLL index artifact version %u, this reader reads %u",
                  version, kArtifactVersion));
  }
  const auto num_nodes = GetAt<NodeId>(content, 12);
  const auto num_edges = GetAt<uint64_t>(content, 16);
  const auto flat = GetAt<uint64_t>(content, 24);
  const auto stored_fp = GetAt<uint64_t>(content, 32);
  if (num_nodes != g.num_nodes() || num_edges != g.num_edges()) {
    return Status::InvalidArgument(StrFormat(
        "index was built for a %u-node/%llu-edge graph, got %u/%zu", num_nodes,
        static_cast<unsigned long long>(num_edges), g.num_nodes(),
        g.num_edges()));
  }
  // The weighted-edge fingerprint is what actually ties the artifact to
  // this graph: equal node/edge counts do not rule out a different topology
  // or — the dangerous case — the same topology with different weights,
  // against which every stored distance would be wrong.
  if (const uint64_t actual = WeightedEdgeFingerprint(g); stored_fp != actual) {
    return Status::InvalidArgument(StrFormat(
        "index fingerprint %016llx does not match the supplied graph's "
        "%016llx: the index was built over a graph with a different "
        "weighted edge set (same shape is not enough)",
        static_cast<unsigned long long>(stored_fp),
        static_cast<unsigned long long>(actual)));
  }
  // 2. Size, before anything is allocated from the header's counts. `flat`
  // is compared by division, so no claimed count can overflow the check.
  const uint64_t fixed = ArtifactBytes(num_nodes, 0);
  if (content.size() < fixed ||
      (content.size() - fixed) % kBytesPerEntry != 0 ||
      (content.size() - fixed) / kBytesPerEntry != flat) {
    return Status::InvalidArgument(StrFormat(
        "PLL index artifact holds %zu bytes, its header implies %llu entries",
        content.size(), static_cast<unsigned long long>(flat)));
  }
  // 3. Checksum over every byte before the trailer.
  const size_t body = content.size() - sizeof(uint64_t);
  if (GetAt<uint64_t>(content, body) !=
      Fnv1a64(std::string_view(content.data(), body))) {
    return Status::InvalidArgument("PLL index artifact checksum mismatch");
  }

  // 4. Copy the arrays into place.
  const size_t n = num_nodes;
  auto pll = std::unique_ptr<PrunedLandmarkLabeling>(new PrunedLandmarkLabeling(g));
  size_t at = kArtifactHeaderBytes;
  pll->order_.resize(n);
  pll->label_offsets_.resize(n + 1);
  pll->hub_ranks_.resize(flat + kLabelRunPadEntries, kInvalidNode);
  pll->label_dists_.resize(flat + kLabelRunPadEntries, kInfDistance);
  pll->label_parents_.resize(flat + kLabelRunPadEntries, kInvalidNode);
  CopyArray(content, at, pll->order_.data(), n);
  CopyArray(content, at, pll->label_offsets_.data(), n + 1);
  CopyArray(content, at, pll->hub_ranks_.data(), flat);
  CopyArray(content, at, pll->label_dists_.data(), flat);
  CopyArray(content, at, pll->label_parents_.data(), flat);

  // 5. Structure. The checksum proves the bytes are the ones written, not
  // that the writer was this code: an artifact is input from outside.
  pll->rank_of_.assign(n, kInvalidNode);
  for (NodeId rank = 0; rank < num_nodes; ++rank) {
    const NodeId v = pll->order_[rank];
    if (v >= num_nodes || pll->rank_of_[v] != kInvalidNode) {
      return Status::InvalidArgument("hub order is not a permutation");
    }
    pll->rank_of_[v] = rank;
  }
  // Offsets first, in full: the entry scan below indexes by them.
  const std::vector<uint64_t>& offsets = pll->label_offsets_;
  if (offsets[0] != 0 || offsets[n] != flat) {
    return Status::InvalidArgument("label offsets do not span the entries");
  }
  for (size_t v = 0; v < n; ++v) {
    if (offsets[v + 1] <= offsets[v]) {
      return Status::InvalidArgument(
          StrFormat("label offsets not increasing at node %zu", v));
    }
  }
  PllStats& stats = pll->stats_;
  for (size_t v = 0; v < n; ++v) {
    const uint64_t sentinel = offsets[v + 1] - 1;
    for (uint64_t k = offsets[v]; k < sentinel; ++k) {
      const NodeId rank = pll->hub_ranks_[k];
      const double dist = pll->label_dists_[k];
      const NodeId parent = pll->label_parents_[k];
      if (rank >= num_nodes ||
          (k > offsets[v] && rank <= pll->hub_ranks_[k - 1]) ||
          !std::isfinite(dist) || dist < 0.0 ||
          (parent >= num_nodes && parent != kInvalidNode)) {
        return Status::InvalidArgument(
            StrFormat("corrupt label entry %llu of node %zu",
                      static_cast<unsigned long long>(k - offsets[v]), v));
      }
    }
    if (pll->hub_ranks_[sentinel] != kInvalidNode ||
        pll->label_dists_[sentinel] != kInfDistance ||
        pll->label_parents_[sentinel] != kInvalidNode) {
      return Status::InvalidArgument(
          StrFormat("label of node %zu does not end in a sentinel", v));
    }
    stats.max_label_size =
        std::max<size_t>(stats.max_label_size, sentinel - offsets[v]);
  }
  stats.total_entries = flat - n;
  stats.avg_label_size =
      n == 0 ? 0.0 : static_cast<double>(stats.total_entries) / n;
  return pll;
}

Result<std::unique_ptr<PrunedLandmarkLabeling>> PrunedLandmarkLabeling::LoadFromFile(
    const Graph& g, const std::string& path) {
  // One sized read into one buffer: an artifact is megabytes, and
  // streaming it would hold extra copies of it. Only a regular file has a
  // size to trust: a directory opens, and its end offset reads 2^63 - 1.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    return Status::IOError("not a regular file: " + path);
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IOError("cannot size " + path);
  std::string content(static_cast<size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(content.data(), size)) {
    return Status::IOError("short read: " + path);
  }
  return Deserialize(g, content);
}

Result<std::vector<NodeId>> PrunedLandmarkLabeling::ShortestPath(NodeId u,
                                                                 NodeId v) const {
  if (u == v) return std::vector<NodeId>{u};
  NodeId hub_rank = kInvalidNode;
  double d = QueryWithHub(u, v, &hub_rank);
  if (d == kInfDistance) {
    return Status::NotFound(StrFormat("node %u unreachable from %u", v, u));
  }
  std::vector<NodeId> from_u = UnwindToHub(u, hub_rank);  // u .. hub
  std::vector<NodeId> from_v = UnwindToHub(v, hub_rank);  // v .. hub
  // Concatenate u..hub + reverse(v..hub) minus the duplicated hub.
  std::vector<NodeId> walk = std::move(from_u);
  for (auto it = from_v.rbegin(); it != from_v.rend(); ++it) {
    if (*it != walk.back()) walk.push_back(*it);
  }
  // Zero-weight edges can make the two tree branches overlap; excise loops.
  std::vector<NodeId> path = SimplifyWalk(walk);
  return path;
}

}  // namespace teamdisc
