// On-disk snapshot of an expert network plus pre-built distance-oracle
// artifacts — the persistence substrate of TeamDiscoveryService. A snapshot
// is what `teamdisc_cli build-index` writes and what a serving process loads
// at startup so it never rebuilds an index it already paid for.
//
// Layout of a snapshot directory:
//   manifest.txt    versioned listing (format below)
//   network.net     the expert network (network_io text format)
//   index-*.pll     one PrunedLandmarkLabeling artifact per entry, in the
//                   checksummed binary v4 format (carries a weighted-edge-set
//                   fingerprint of the graph it was built over, so a stale
//                   artifact can never be loaded against the wrong weights)
//
// Manifest format ('#' comments allowed, sections in order):
//   teamdisc-snapshot v2
//   generation <n>
//   network <file> <weighted-edge-fingerprint-hex of the base graph>
//   index base 0 <kind> <file> <search-graph-fingerprint-hex>
//   index transform <gamma_bp> <kind> <file> <search-graph-fingerprint-hex>
//
// `base` entries index the network's own graph (the CC strategy's search
// graph); `transform` entries index the authority transform G' built at
// gamma = gamma_bp / 10000. Only PLL indexes are persisted — the Dijkstra
// oracles have no index worth storing.
//
// Generations: every ApplySnapshotDelta / CommitSnapshotNetwork bumps the
// manifest generation and writes the post-delta network under a versioned
// file name (network-g<generation>.net). The manifest rewrite (atomic
// temp + rename) is the commit point — a crash mid-update leaves the old
// manifest referencing the old network file, and any artifact already
// overwritten for the new graph simply fails its fingerprint check and is
// rebuilt. See docs/FORMATS.md.
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "network/expert_network.h"
#include "network/network_delta.h"
#include "shortest_path/distance_oracle.h"
#include "shortest_path/pruned_landmark_labeling.h"

namespace teamdisc {

/// \brief One persisted index artifact in a snapshot.
struct SnapshotIndexEntry {
  bool transformed = false;  ///< over G' (true) or the base graph (false)
  int gamma_bp = 0;          ///< gamma in basis points; 0 for base entries
  OracleKind kind = OracleKind::kPrunedLandmarkLabeling;
  std::string file;          ///< artifact file name, relative to the snapshot dir
  /// WeightedEdgeFingerprint of the search graph the artifact indexes
  /// (mirrors the artifact's own header). Update paths compare this against
  /// the post-delta search graph to decide keep vs rebuild without
  /// deserializing the artifact.
  uint64_t fingerprint = 0;
};

/// \brief Parsed manifest of a snapshot directory.
struct SnapshotManifest {
  /// Update counter: 0 for a fresh BuildSnapshot, +1 per applied delta.
  uint64_t generation = 0;
  std::string network_file = "network.net";
  /// WeightedEdgeFingerprint of the network's base graph at build time; a
  /// loader must verify the loaded network still hashes to this.
  uint64_t network_fingerprint = 0;
  std::vector<SnapshotIndexEntry> entries;
};

/// Canonical artifact file name for an index entry
/// ("index-base-pll.pll" / "index-g2500-pll.pll").
std::string SnapshotIndexFileName(bool transformed, int gamma_bp,
                                  OracleKind kind);

/// The manifest entry for (transformed, gamma_bp, kind), or nullptr when
/// the manifest lists none.
const SnapshotIndexEntry* FindSnapshotIndexEntry(
    const SnapshotManifest& manifest, bool transformed, int gamma_bp,
    OracleKind kind);

/// Serializes / parses the manifest text (exposed for tests).
std::string SerializeSnapshotManifest(const SnapshotManifest& manifest);
Result<SnapshotManifest> ParseSnapshotManifest(const std::string& content);

/// Reads `<dir>/manifest.txt`.
Result<SnapshotManifest> ReadSnapshotManifest(const std::string& dir);

/// Deletes `*.tmp` files a crashed writer left in `dir` (atomic writes go
/// through sibling temp files; a crash between open and rename leaks one).
/// Returns how many were removed. Call only when no other process is
/// writing into the snapshot — a live writer's in-flight temp file would be
/// swept too (its retry recovers, but the first attempt fails).
size_t RemoveStaleSnapshotTempFiles(const std::string& dir);

/// Writes `<dir>/manifest.txt` atomically (write-to-temp + rename), creating
/// `dir` if needed.
Status WriteSnapshotManifest(const std::string& dir,
                             const SnapshotManifest& manifest);

/// \brief What BuildSnapshot should pre-build.
struct BuildSnapshotOptions {
  /// Gammas whose authority-transform indexes are persisted.
  std::vector<double> gammas = {0.0, 0.25, 0.5, 0.75, 1.0};
  /// Also persist the base-graph (CC strategy) index.
  bool include_base = true;
  /// Index construction knobs, forwarded to PrunedLandmarkLabeling::Build.
  PllBuildOptions pll;
};

/// Builds a PLL index per configured search graph, writes every artifact
/// plus the network and manifest into `dir` (created if needed), and returns
/// the manifest. Existing artifacts in `dir` are overwritten.
Result<SnapshotManifest> BuildSnapshot(const ExpertNetwork& net,
                                       const std::string& dir,
                                       const BuildSnapshotOptions& options);

/// Persists one freshly built index into an existing snapshot and appends it
/// to `manifest` (rewriting `<dir>/manifest.txt`). No-op with OK status when
/// the oracle is not a PrunedLandmarkLabeling (nothing worth persisting) or
/// when the manifest already lists the entry.
Status AddIndexArtifact(const std::string& dir, SnapshotManifest& manifest,
                        bool transformed, int gamma_bp, OracleKind kind,
                        const DistanceOracle& oracle);

/// Loads the artifact for (transformed, gamma_bp, kind) against
/// `search_graph`. Returns a null pointer when the manifest has no matching
/// entry; fails InvalidArgument when the artifact exists but does not match
/// the graph or fails the v4 reader's checks (PLL Deserialize). Failures
/// carry the artifact path plus the expected (manifest) and actual (graph)
/// fingerprints, so a stale-snapshot report names the exact broken file.
Result<std::unique_ptr<DistanceOracle>> LoadIndexArtifact(
    const std::string& dir, const SnapshotManifest& manifest, bool transformed,
    int gamma_bp, OracleKind kind, const Graph& search_graph);

/// Commits a successor network into an existing snapshot: writes it under a
/// generation-versioned file name (network-g<generation+1>.net), updates
/// `manifest` (network_file, network_fingerprint, generation + 1), rewrites
/// the manifest atomically — the commit point — and then best-effort deletes
/// the previous network file. Index entries are not touched; callers persist
/// refreshed artifacts (AddIndexArtifact) before committing.
Status CommitSnapshotNetwork(const std::string& dir, SnapshotManifest& manifest,
                             const ExpertNetwork& net);

/// \brief Knobs of ApplySnapshotDelta.
struct SnapshotUpdateOptions {
  /// Index construction knobs for entries that must rebuild.
  PllBuildOptions pll;
};

/// \brief What an offline snapshot update did.
struct SnapshotUpdateReport {
  uint64_t generation = 0;   ///< manifest generation after the update
  size_t entries_kept = 0;   ///< artifacts whose search graph was unchanged
  size_t entries_rebuilt = 0;  ///< artifacts rebuilt over a changed graph
  uint32_t num_experts = 0;  ///< successor network size
  size_t num_edges = 0;
};

/// Applies `delta` to the snapshot in `dir` offline (the `teamdisc_cli
/// apply-update` path): loads the network, materializes the successor via
/// ApplyNetworkDelta, rebuilds exactly the index artifacts whose search
/// graph fingerprint changed (unchanged artifacts are kept as-is), and
/// commits the new network + bumped generation. A serving process opened on
/// the directory afterwards sees the post-delta world with zero builds.
Result<SnapshotUpdateReport> ApplySnapshotDelta(
    const std::string& dir, const ExpertNetworkDelta& delta,
    const SnapshotUpdateOptions& options = {});

}  // namespace teamdisc
