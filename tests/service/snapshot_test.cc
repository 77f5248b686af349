#include "service/snapshot.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "../core/test_networks.h"
#include "common/string_util.h"
#include "network/authority_transform.h"
#include "network/network_io.h"
#include "service/team_discovery_service.h"

namespace teamdisc {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

/// apply-update → serve round trip: opens the updated snapshot and answers
/// one TopK per artifact (CC for the base index, SA-CA-CC per transform
/// gamma). Every index must load from disk — nothing is left to build.
void ExpectServesWithoutBuilding(const std::string& dir) {
  ServiceOptions options;
  options.snapshot_dir = dir;
  options.persist_built_indexes = false;
  options.persist_updates = false;
  auto svc = TeamDiscoveryService::Open(options).ValueOrDie();
  const SnapshotManifest manifest = svc->manifest();
  for (const SnapshotIndexEntry& entry : manifest.entries) {
    TeamRequest request;
    request.skills = {"a", "d"};
    request.strategy =
        entry.transformed ? RankingStrategy::kSACACC : RankingStrategy::kCC;
    request.gamma = entry.gamma_bp / 10000.0;
    auto teams = svc->TopK(request);
    ASSERT_TRUE(teams.ok()) << entry.file << ": " << teams.status();
    EXPECT_FALSE(teams.ValueOrDie().empty()) << entry.file;
  }
  EXPECT_EQ(svc->cache_stats().builds, 0u);
  EXPECT_EQ(svc->cache_stats().loads, manifest.entries.size());
}

TEST(SnapshotManifestTest, SerializeParseRoundTrip) {
  SnapshotManifest manifest;
  manifest.network_file = "network.net";
  manifest.network_fingerprint = 0xdeadbeefcafef00dULL;
  manifest.entries.push_back(
      {false, 0, OracleKind::kPrunedLandmarkLabeling, "index-base-pll.pll"});
  manifest.entries.push_back(
      {true, 2500, OracleKind::kPrunedLandmarkLabeling, "index-g2500-pll.pll"});
  auto parsed =
      ParseSnapshotManifest(SerializeSnapshotManifest(manifest)).ValueOrDie();
  EXPECT_EQ(parsed.network_file, manifest.network_file);
  EXPECT_EQ(parsed.network_fingerprint, manifest.network_fingerprint);
  ASSERT_EQ(parsed.entries.size(), 2u);
  EXPECT_FALSE(parsed.entries[0].transformed);
  EXPECT_TRUE(parsed.entries[1].transformed);
  EXPECT_EQ(parsed.entries[1].gamma_bp, 2500);
  EXPECT_EQ(parsed.entries[1].file, "index-g2500-pll.pll");
}

TEST(SnapshotManifestTest, RejectsMalformedManifests) {
  EXPECT_TRUE(ParseSnapshotManifest("").status().IsInvalidArgument());
  EXPECT_TRUE(ParseSnapshotManifest("garbage v1\n").status().IsInvalidArgument());
  // Missing network line.
  EXPECT_TRUE(ParseSnapshotManifest("teamdisc-snapshot v2\n")
                  .status()
                  .IsInvalidArgument());
  // Index line before network line.
  EXPECT_TRUE(ParseSnapshotManifest("teamdisc-snapshot v2\n"
                                    "index base 0 pll x.pll 0abc\n")
                  .status()
                  .IsInvalidArgument());
  // Non-hex fingerprint.
  EXPECT_TRUE(ParseSnapshotManifest("teamdisc-snapshot v2\n"
                                    "network net.net nothex!\n")
                  .status()
                  .IsInvalidArgument());
  // Artifact path escaping the snapshot directory.
  EXPECT_TRUE(ParseSnapshotManifest("teamdisc-snapshot v2\n"
                                    "network net.net 0abc\n"
                                    "index base 0 pll ../evil.pll 0abc\n")
                  .status()
                  .IsInvalidArgument());
  // Network file escaping the snapshot directory (same trust boundary).
  EXPECT_TRUE(ParseSnapshotManifest("teamdisc-snapshot v2\n"
                                    "network ../outside.net 0abc\n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseSnapshotManifest("teamdisc-snapshot v2\n"
                                    "network /etc/passwd 0abc\n")
                  .status()
                  .IsInvalidArgument());
  // The v1 header is no longer read, even around a valid v2 body.
  EXPECT_TRUE(ParseSnapshotManifest("teamdisc-snapshot v1\n"
                                    "network net.net 0abc\n")
                  .status()
                  .IsInvalidArgument());
  // An index line without its artifact fingerprint (the old 5-field form).
  EXPECT_TRUE(ParseSnapshotManifest("teamdisc-snapshot v2\n"
                                    "network net.net 0abc\n"
                                    "index base 0 pll x.pll\n")
                  .status()
                  .IsInvalidArgument());
  // A generation line after the network line.
  EXPECT_TRUE(ParseSnapshotManifest("teamdisc-snapshot v2\n"
                                    "network net.net 0abc\n"
                                    "generation 3\n")
                  .status()
                  .IsInvalidArgument());
  // Base entry with a nonzero gamma.
  EXPECT_TRUE(ParseSnapshotManifest("teamdisc-snapshot v2\n"
                                    "network net.net 0abc\n"
                                    "index base 500 pll x.pll 0abc\n")
                  .status()
                  .IsInvalidArgument());
}

TEST(SnapshotTest, BuildSnapshotWritesLoadableArtifacts) {
  ExpertNetwork net = MediumNetwork();
  const std::string dir = FreshDir("snapshot_build");
  BuildSnapshotOptions options;
  options.gammas = {0.25, 0.75};
  auto manifest = BuildSnapshot(net, dir, options).ValueOrDie();
  ASSERT_EQ(manifest.entries.size(), 3u);  // base + two gammas
  EXPECT_EQ(manifest.network_fingerprint, WeightedEdgeFingerprint(net.graph()));

  // The manifest on disk parses back to the same contents.
  auto reread = ReadSnapshotManifest(dir).ValueOrDie();
  EXPECT_EQ(SerializeSnapshotManifest(reread),
            SerializeSnapshotManifest(manifest));

  // The persisted network round-trips.
  auto net2 = LoadNetwork(dir + "/" + manifest.network_file).ValueOrDie();
  EXPECT_EQ(WeightedEdgeFingerprint(net2.graph()),
            manifest.network_fingerprint);

  // Every artifact deserializes against the graph it claims to index.
  auto base = LoadIndexArtifact(dir, manifest, false, 0,
                                OracleKind::kPrunedLandmarkLabeling,
                                net.graph())
                  .ValueOrDie();
  ASSERT_NE(base, nullptr);
  auto transformed = BuildAuthorityTransform(net, 0.25).ValueOrDie();
  auto g25 = LoadIndexArtifact(dir, manifest, true, 2500,
                               OracleKind::kPrunedLandmarkLabeling,
                               transformed.graph)
                 .ValueOrDie();
  ASSERT_NE(g25, nullptr);
  EXPECT_EQ(g25->Distance(0, 9), PrunedLandmarkLabeling::Build(transformed.graph)
                                     .ValueOrDie()
                                     ->Distance(0, 9));
}

TEST(SnapshotTest, LoadRejectsCrossGammaArtifact) {
  // The regression at the heart of this PR: the gamma=0.25 artifact loaded
  // against the gamma=0.75 transform (same shape, different weights) must
  // fail, not silently serve wrong distances.
  ExpertNetwork net = MediumNetwork();
  const std::string dir = FreshDir("snapshot_cross_gamma");
  BuildSnapshotOptions options;
  options.gammas = {0.25};
  options.include_base = false;
  auto manifest = BuildSnapshot(net, dir, options).ValueOrDie();
  // Doctor the manifest so the 0.25 artifact claims to be the 0.75 index.
  ASSERT_EQ(manifest.entries.size(), 1u);
  manifest.entries[0].gamma_bp = 7500;
  auto wrong = BuildAuthorityTransform(net, 0.75).ValueOrDie();
  auto result = LoadIndexArtifact(dir, manifest, true, 7500,
                                  OracleKind::kPrunedLandmarkLabeling,
                                  wrong.graph);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status().ToString();
}

TEST(SnapshotTest, BuildSnapshotDedupesGammasAtBasisPointResolution) {
  // 0.5 twice plus a value that quantizes to the same basis points must
  // produce one transform artifact, not three identical builds / duplicate
  // manifest lines.
  ExpertNetwork net = MediumNetwork();
  const std::string dir = FreshDir("snapshot_dedupe");
  BuildSnapshotOptions options;
  options.gammas = {0.5, 0.5, 0.500001};
  options.include_base = false;
  auto manifest = BuildSnapshot(net, dir, options).ValueOrDie();
  ASSERT_EQ(manifest.entries.size(), 1u);
  EXPECT_EQ(manifest.entries[0].gamma_bp, 5000);
}

TEST(SnapshotTest, LoadReturnsNullForMissingEntry) {
  ExpertNetwork net = MediumNetwork();
  const std::string dir = FreshDir("snapshot_missing");
  BuildSnapshotOptions options;
  options.gammas = {};
  auto manifest = BuildSnapshot(net, dir, options).ValueOrDie();
  auto absent = LoadIndexArtifact(dir, manifest, true, 5000,
                                  OracleKind::kPrunedLandmarkLabeling,
                                  net.graph())
                    .ValueOrDie();
  EXPECT_EQ(absent, nullptr);
}

TEST(SnapshotTest, AddIndexArtifactAppendsAndPersists) {
  ExpertNetwork net = MediumNetwork();
  const std::string dir = FreshDir("snapshot_append");
  BuildSnapshotOptions options;
  options.gammas = {};
  auto manifest = BuildSnapshot(net, dir, options).ValueOrDie();
  ASSERT_EQ(manifest.entries.size(), 1u);

  auto transformed = BuildAuthorityTransform(net, 0.5).ValueOrDie();
  auto pll = PrunedLandmarkLabeling::Build(transformed.graph).ValueOrDie();
  TD_CHECK_OK(AddIndexArtifact(dir, manifest, true, 5000,
                               OracleKind::kPrunedLandmarkLabeling, *pll));
  EXPECT_EQ(manifest.entries.size(), 2u);
  // Idempotent: a second add of the same key is a no-op.
  TD_CHECK_OK(AddIndexArtifact(dir, manifest, true, 5000,
                               OracleKind::kPrunedLandmarkLabeling, *pll));
  EXPECT_EQ(manifest.entries.size(), 2u);
  // The rewritten on-disk manifest lists the new artifact, and it loads.
  auto reread = ReadSnapshotManifest(dir).ValueOrDie();
  ASSERT_EQ(reread.entries.size(), 2u);
  auto loaded = LoadIndexArtifact(dir, reread, true, 5000,
                                  OracleKind::kPrunedLandmarkLabeling,
                                  transformed.graph)
                    .ValueOrDie();
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->Distance(2, 6), pll->Distance(2, 6));
}

TEST(SnapshotTest, ReadMissingDirectoryFails) {
  EXPECT_TRUE(
      ReadSnapshotManifest("/no/such/snapshot").status().IsIOError());
}

TEST(SnapshotManifestTest, GenerationAndFingerprintsRoundTrip) {
  SnapshotManifest manifest;
  manifest.generation = 7;
  manifest.network_file = "network-g7.net";
  manifest.network_fingerprint = 0x1234;
  manifest.entries.push_back({false, 0, OracleKind::kPrunedLandmarkLabeling,
                              "index-base-pll.pll", 0xabcdef0011223344ULL});
  auto parsed =
      ParseSnapshotManifest(SerializeSnapshotManifest(manifest)).ValueOrDie();
  EXPECT_EQ(parsed.generation, 7u);
  ASSERT_EQ(parsed.entries.size(), 1u);
  EXPECT_EQ(parsed.entries[0].fingerprint, 0xabcdef0011223344ULL);
}

TEST(SnapshotTest, BuildSnapshotRecordsArtifactFingerprints) {
  ExpertNetwork net = MediumNetwork();
  const std::string dir = FreshDir("snapshot_fps");
  BuildSnapshotOptions options;
  options.gammas = {0.25};
  auto manifest = BuildSnapshot(net, dir, options).ValueOrDie();
  ASSERT_EQ(manifest.entries.size(), 2u);
  EXPECT_EQ(manifest.generation, 0u);
  EXPECT_EQ(manifest.entries[0].fingerprint,
            WeightedEdgeFingerprint(net.graph()));
  auto transformed = BuildAuthorityTransform(net, 0.25).ValueOrDie();
  EXPECT_EQ(manifest.entries[1].fingerprint,
            WeightedEdgeFingerprint(transformed.graph));
}

TEST(SnapshotTest, LoadFailureNamesArtifactAndFingerprints) {
  // The satellite fix: a failed artifact load must say WHICH file broke and
  // both fingerprints, not just that "the snapshot" is inconsistent.
  ExpertNetwork net = MediumNetwork();
  const std::string dir = FreshDir("snapshot_load_error");
  BuildSnapshotOptions options;
  options.gammas = {0.25};
  options.include_base = false;
  auto manifest = BuildSnapshot(net, dir, options).ValueOrDie();
  ASSERT_EQ(manifest.entries.size(), 1u);
  manifest.entries[0].gamma_bp = 7500;  // doctor: claim it is the 0.75 index
  auto wrong = BuildAuthorityTransform(net, 0.75).ValueOrDie();
  auto result = LoadIndexArtifact(dir, manifest, true, 7500,
                                  OracleKind::kPrunedLandmarkLabeling,
                                  wrong.graph);
  ASSERT_FALSE(result.ok());
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find("index-g2500-pll.pll"), std::string::npos) << message;
  const std::string expected_hex = StrFormat(
      "%016llx", static_cast<unsigned long long>(
                     manifest.entries[0].fingerprint));
  const std::string actual_hex = StrFormat(
      "%016llx",
      static_cast<unsigned long long>(WeightedEdgeFingerprint(wrong.graph)));
  EXPECT_NE(message.find(expected_hex), std::string::npos) << message;
  EXPECT_NE(message.find(actual_hex), std::string::npos) << message;
}

TEST(SnapshotTest, ApplySnapshotDeltaKeepsUnchangedArtifacts) {
  // A skill-only delta changes no search graph: every artifact is kept
  // byte-for-byte, only network + generation move.
  ExpertNetwork net = MediumNetwork();
  const std::string dir = FreshDir("snapshot_delta_keep");
  BuildSnapshotOptions options;
  options.gammas = {0.25, 0.75};
  TD_CHECK(BuildSnapshot(net, dir, options).ok());
  ExpertNetworkDelta delta;
  delta.AddSkill(3, "zzz");
  auto report = ApplySnapshotDelta(dir, delta).ValueOrDie();
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(report.entries_kept, 3u);
  EXPECT_EQ(report.entries_rebuilt, 0u);
  auto manifest = ReadSnapshotManifest(dir).ValueOrDie();
  EXPECT_EQ(manifest.generation, 1u);
  EXPECT_EQ(manifest.network_file, "network-g1.net");
  auto reloaded = LoadNetwork(dir + "/network-g1.net").ValueOrDie();
  EXPECT_NE(reloaded.skills().Find("zzz"), kInvalidSkill);
  // Kept artifacts still load against the (unchanged) search graphs.
  auto base = LoadIndexArtifact(dir, manifest, false, 0,
                                OracleKind::kPrunedLandmarkLabeling,
                                reloaded.graph())
                  .ValueOrDie();
  EXPECT_NE(base, nullptr);
  ExpectServesWithoutBuilding(dir);
}

TEST(SnapshotTest, ApplySnapshotDeltaRebuildsChangedArtifacts) {
  ExpertNetwork net = MediumNetwork();
  const std::string dir = FreshDir("snapshot_delta_rebuild");
  BuildSnapshotOptions options;
  options.gammas = {0.25};
  TD_CHECK(BuildSnapshot(net, dir, options).ok());
  ExpertNetworkDelta delta;
  delta.ReweightCollaboration(0, 3, 2.0);
  auto report = ApplySnapshotDelta(dir, delta).ValueOrDie();
  EXPECT_EQ(report.entries_kept, 0u);
  EXPECT_EQ(report.entries_rebuilt, 2u);  // base + transform both changed
  // The rebuilt artifacts answer exactly like a from-scratch build over the
  // post-delta network.
  ExpertNetwork next = ApplyNetworkDelta(net, delta).ValueOrDie();
  auto manifest = ReadSnapshotManifest(dir).ValueOrDie();
  auto base = LoadIndexArtifact(dir, manifest, false, 0,
                                OracleKind::kPrunedLandmarkLabeling,
                                next.graph())
                  .ValueOrDie();
  ASSERT_NE(base, nullptr);
  auto fresh = PrunedLandmarkLabeling::Build(next.graph()).ValueOrDie();
  EXPECT_EQ(base->Distance(0, 9), fresh->Distance(0, 9));
  EXPECT_EQ(base->Distance(0, 3), 2.0);
  // A second delta bumps the generation again and replaces network-g1.net.
  ExpertNetworkDelta delta2;
  delta2.AddSkill(0, "yyy");
  auto report2 = ApplySnapshotDelta(dir, delta2).ValueOrDie();
  EXPECT_EQ(report2.generation, 2u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/network-g2.net"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/network-g1.net"));
  ExpectServesWithoutBuilding(dir);
}

TEST(SnapshotTest, ApplySnapshotDeltaRejectsInvalidDelta) {
  ExpertNetwork net = MediumNetwork();
  const std::string dir = FreshDir("snapshot_delta_invalid");
  BuildSnapshotOptions options;
  options.gammas = {};
  TD_CHECK(BuildSnapshot(net, dir, options).ok());
  ExpertNetworkDelta delta;
  delta.RemoveExpert(42);
  auto result = ApplySnapshotDelta(dir, delta);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  // Nothing committed: still generation 0 on the original network file.
  auto manifest = ReadSnapshotManifest(dir).ValueOrDie();
  EXPECT_EQ(manifest.generation, 0u);
  EXPECT_EQ(manifest.network_file, "network.net");
}

}  // namespace
}  // namespace teamdisc
