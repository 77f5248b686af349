// Dynamic-update path of TeamDiscoveryService: epoch-swapped ApplyDelta,
// fingerprint-keyed index adoption, on-disk generation commits, and
// concurrency with serving through RequestPipeline. Carries the smoke label
// so the ASan/UBSan CI job runs the whole update path sanitized on every
// push.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "../core/test_networks.h"
#include "../serving/test_serving.h"
#include "service/team_discovery_service.h"

namespace teamdisc {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

std::string MakeSnapshot(const std::string& name, std::vector<double> gammas,
                         const ExpertNetwork& net) {
  const std::string dir = FreshDir(name);
  BuildSnapshotOptions options;
  options.gammas = std::move(gammas);
  TD_CHECK(BuildSnapshot(net, dir, options).ok());
  return dir;
}

TeamRequest Request(std::vector<std::string> skills, double gamma,
                    double lambda = 0.6, uint32_t top_k = 2) {
  TeamRequest request;
  request.skills = std::move(skills);
  request.gamma = gamma;
  request.lambda = lambda;
  request.top_k = top_k;
  return request;
}

/// Request mix over the post-delta world used by the bit-identity tests.
std::vector<TeamRequest> UpdateRequests() {
  std::vector<TeamRequest> requests;
  for (double gamma : {0.25, 0.6}) {
    for (double lambda : {0.3, 0.8}) {
      requests.push_back(Request({"a", "d"}, gamma, lambda));
      requests.push_back(Request({"b", "c", "d"}, gamma, lambda));
      requests.push_back(Request({"zzz"}, gamma, lambda));  // delta-added skill
    }
  }
  return requests;
}

/// A delta touching every mutation class: skills, an edge reweight, a
/// leaving expert, and a joining expert wired into the graph.
ExpertNetworkDelta RichDelta() {
  ExpertNetworkDelta delta;
  delta.AddSkill(0, "zzz");
  delta.ReweightCollaboration(3, 7, 0.9);
  delta.RemoveExpert(8);
  delta.AddExpert("joiner", {"a", "zzz"}, 5.0, 3);
  delta.AddCollaboration(10, 7, 0.4);  // delta-local id of the joiner
  return delta;
}

TEST(ServiceUpdateTest, ApplyDeltaMatchesColdRebuildAt1And4Workers) {
  // Acceptance criterion: serving after ApplyDelta is bit-identical to a
  // cold rebuild of the post-delta network, at 1 and at 4 workers.
  const ExpertNetwork base = MediumNetwork();
  const ExpertNetworkDelta delta = RichDelta();

  const std::string live_dir =
      MakeSnapshot("upd_live", {0.25, 0.6}, base);
  auto live = TeamDiscoveryService::Open({.snapshot_dir = live_dir}).ValueOrDie();
  // Warm the epoch, then update it live.
  live->FindTeam(Request({"a"}, 0.6)).ValueOrDie();
  auto report = live->ApplyDelta(delta).ValueOrDie();
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(report.num_experts, 10u);  // 10 - 1 removed + 1 joined

  // Cold world: materialize the post-delta network and snapshot it fresh.
  ExpertNetwork next = ApplyNetworkDelta(base, delta).ValueOrDie();
  const std::string cold_dir = MakeSnapshot("upd_cold", {0.25, 0.6}, next);
  auto cold = TeamDiscoveryService::Open({.snapshot_dir = cold_dir}).ValueOrDie();

  const std::vector<TeamRequest> requests = UpdateRequests();
  for (size_t workers : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    ExpectSameResults(ServeThroughPipeline(*live, requests, workers),
                      ServeThroughPipeline(*cold, requests, workers));
  }
}

TEST(ServiceUpdateTest, SkillOnlyDeltaAdoptsEveryIndexZeroRebuilds) {
  // Acceptance criterion: a delta that cannot affect any search graph
  // triggers 0 index rebuilds — every index is adopted by fingerprint.
  const std::string dir =
      MakeSnapshot("upd_skill_only", {0.25, 0.6}, MediumNetwork());
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
  // Make every snapshot index resident so adoption has real work to do:
  // both transform gammas plus the CC strategy's base-graph index.
  svc->FindTeam(Request({"a"}, 0.25)).ValueOrDie();
  svc->FindTeam(Request({"a"}, 0.6)).ValueOrDie();
  TeamRequest cc_request = Request({"a", "d"}, 0.6);
  cc_request.strategy = RankingStrategy::kCC;
  svc->FindTeam(cc_request).ValueOrDie();
  EXPECT_EQ(svc->cache_stats().builds, 0u);  // all three loaded from disk

  ExpertNetworkDelta delta;
  delta.AddSkill(3, "zzz");  // expert 3 had no skills at all
  ASSERT_TRUE(delta.SkillOnly());
  auto report = svc->ApplyDelta(delta).ValueOrDie();
  EXPECT_EQ(report.entries_rebuilt, 0u) << "skill-only delta rebuilt an index";
  EXPECT_GE(report.entries_adopted, 3u);  // base + both gammas, at least

  // The successor epoch's cache confirms via its own counters: adoptions,
  // no builds.
  const auto stats = svc->cache_stats();
  EXPECT_EQ(stats.builds, 0u);
  EXPECT_GE(stats.adoptions, 3u);

  // The new skill serves immediately — covered by the previously skill-less
  // expert 3 — over the adopted indexes.
  auto teams = svc->FindTeam(Request({"zzz"}, 0.6)).ValueOrDie();
  ASSERT_FALSE(teams.empty());
  EXPECT_EQ(svc->cache_stats().builds, 0u);
}

TEST(ServiceUpdateTest, EmptyDeltaIsANoOpWithZeroRebuilds) {
  const std::string dir = MakeSnapshot("upd_empty", {0.6}, MediumNetwork());
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
  auto pre = svc->FindTeam(Request({"a", "d"}, 0.6)).ValueOrDie();
  auto report = svc->ApplyDelta(ExpertNetworkDelta()).ValueOrDie();
  EXPECT_EQ(report.entries_rebuilt, 0u);
  EXPECT_GE(report.entries_adopted, 1u);
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(svc->generation(), 1u);
  auto post = svc->FindTeam(Request({"a", "d"}, 0.6)).ValueOrDie();
  ASSERT_EQ(post.size(), pre.size());
  EXPECT_EQ(post[0].team.nodes, pre[0].team.nodes);
  EXPECT_EQ(post[0].objective, pre[0].objective);
  EXPECT_EQ(svc->cache_stats().builds, 0u);
}

TEST(ServiceUpdateTest, InvalidDeltaRejectedAndOldEpochKeepsServing) {
  const std::string dir = MakeSnapshot("upd_invalid", {0.6}, MediumNetwork());
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
  ExpertNetworkDelta delta;
  delta.AddSkill(999, "x");  // unknown expert
  auto result = svc->ApplyDelta(delta);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status().ToString();
  EXPECT_EQ(svc->generation(), 0u) << "failed update must not swap epochs";
  auto teams = svc->FindTeam(Request({"a", "d"}, 0.6)).ValueOrDie();
  EXPECT_FALSE(teams.empty());
}

TEST(ServiceUpdateTest, UpdatePersistsAcrossRestart) {
  // build-index -> (live) apply-update -> restart -> serve: the reopened
  // process sees the post-delta world at the bumped generation with zero
  // builds.
  const std::string dir = MakeSnapshot("upd_restart", {0.6}, MediumNetwork());
  const ExpertNetworkDelta delta = RichDelta();
  {
    auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
    // A swap refreshes only resident indexes: serve one first.
    svc->FindTeam(Request({"a"}, 0.6)).ValueOrDie();
    auto report = svc->ApplyDelta(delta).ValueOrDie();
    EXPECT_EQ(report.generation, 1u);
    EXPECT_GT(report.entries_rebuilt, 0u);  // the reweight invalidated them
  }
  {
    auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
    EXPECT_EQ(svc->generation(), 1u);
    EXPECT_EQ(svc->network()->num_experts(), 10u);
    auto teams = svc->FindTeam(Request({"zzz"}, 0.6)).ValueOrDie();
    ASSERT_FALSE(teams.empty());
    const auto stats = svc->cache_stats();
    EXPECT_EQ(stats.builds, 0u) << "rebuilt artifacts must load from disk";
    EXPECT_GE(stats.loads, 1u);
    // The versioned network file replaced the original.
    EXPECT_TRUE(fs::exists(fs::path(dir) / "network-g1.net"));
    EXPECT_FALSE(fs::exists(fs::path(dir) / "network.net"));
  }
}

TEST(ServiceUpdateTest, SwapRebuildsOnlyResidentIndexes) {
  // The snapshot lists the base and the gamma 0.6 index; only gamma 0.6 is
  // being served. A reweight rebuilds that one, and the base index, which
  // no request has read, keeps its old manifest fingerprint and builds on
  // first use after a restart.
  const std::string dir = MakeSnapshot("upd_resident", {0.6}, MediumNetwork());
  ASSERT_EQ(ReadSnapshotManifest(dir).ValueOrDie().entries.size(), 2u);
  ExpertNetworkDelta reweight;
  reweight.ReweightCollaboration(3, 7, 0.9);
  TeamRequest cc_request = Request({"a", "d"}, 0.6);
  cc_request.strategy = RankingStrategy::kCC;
  {
    auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
    svc->FindTeam(Request({"a", "d"}, 0.6)).ValueOrDie();
    auto report = svc->ApplyDelta(reweight).ValueOrDie();
    EXPECT_EQ(report.entries_rebuilt, 1u);
    EXPECT_EQ(report.generation, 1u);
  }
  {
    auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
    svc->FindTeam(Request({"a", "d"}, 0.6)).ValueOrDie();
    EXPECT_EQ(svc->cache_stats().builds, 0u) << "the swap persisted gamma 0.6";
    EXPECT_EQ(svc->cache_stats().loads, 1u);
    svc->FindTeam(cc_request).ValueOrDie();
    EXPECT_EQ(svc->cache_stats().builds, 1u) << "the stale base index builds";
  }
  {
    auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
    svc->FindTeam(cc_request).ValueOrDie();
    EXPECT_EQ(svc->cache_stats().builds, 0u) << "the first use persisted it";
    EXPECT_EQ(svc->cache_stats().loads, 1u);
  }
}

TEST(ServiceUpdateTest, EpochOnlyUpdateLeavesDiskUntouched) {
  const std::string dir = MakeSnapshot("upd_mem_only", {0.6}, MediumNetwork());
  ServiceOptions options;
  options.snapshot_dir = dir;
  options.persist_updates = false;
  options.persist_built_indexes = false;
  auto svc = TeamDiscoveryService::Open(options).ValueOrDie();
  ExpertNetworkDelta delta;
  delta.AddSkill(0, "zzz");
  svc->ApplyDelta(delta).ValueOrDie();
  EXPECT_EQ(svc->generation(), 1u);
  ASSERT_FALSE(svc->FindTeam(Request({"zzz"}, 0.6)).ValueOrDie().empty());
  // A fresh process still sees generation 0 and no "zzz" skill.
  auto fresh = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
  EXPECT_EQ(fresh->generation(), 0u);
  EXPECT_EQ(fresh->network()->skills().Find("zzz"), kInvalidSkill);
}

TEST(ServiceUpdateTest, SequentialDeltaMixConverges) {
  // MakeDeltaMix generates deltas valid in sequence; applying all of them
  // must land on exactly the network produced by folding the deltas over
  // the base — and keep serving at every step.
  const ExpertNetwork base = MediumNetwork();
  const std::string dir = MakeSnapshot("upd_mix", {0.6}, base);
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
  std::vector<ExpertNetworkDelta> deltas = MakeDeltaMix(base, 6);
  ExpertNetwork folded = base;
  for (const ExpertNetworkDelta& delta : deltas) {
    svc->ApplyDelta(delta).ValueOrDie();
    folded = ApplyNetworkDelta(folded, delta).ValueOrDie();
    EXPECT_FALSE(svc->FindTeam(Request({"a", "d"}, 0.6)).ValueOrDie().empty());
  }
  EXPECT_EQ(svc->generation(), deltas.size());
  EXPECT_EQ(WeightedEdgeFingerprint(svc->network()->graph()),
            WeightedEdgeFingerprint(folded.graph()));
}

TEST(ServiceUpdateTest, ApplyDeltaConcurrentWithServingIsRaceFree) {
  // TSan-style stress: one thread keeps serving request rounds through a
  // 2-worker RequestPipeline while another applies a churn of epoch swaps.
  // Every request must solve (each pins one epoch), and the final state
  // must serve exactly like a cold rebuild of the folded network. Run
  // under ASan/UBSan in CI.
  const ExpertNetwork base = MediumNetwork();
  const std::string dir = MakeSnapshot("upd_stress", {0.25, 0.6}, base);
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();

  std::vector<TeamRequest> requests;
  for (double gamma : {0.25, 0.6}) {
    requests.push_back(Request({"a", "d"}, gamma));
    requests.push_back(Request({"b", "c"}, gamma));
    requests.push_back(Request({"a", "b", "c", "d"}, gamma));
  }

  std::vector<ExpertNetworkDelta> deltas = MakeDeltaMix(base, 8);

  std::atomic<bool> updates_done{false};
  std::thread server([&] {
    // Keep serving until every update has been applied, then once more so
    // the last epoch is exercised too. ServeThroughPipeline fails the test
    // on any request that does not solve.
    do {
      ServeThroughPipeline(*svc, requests, 2);
    } while (!updates_done.load());
    ServeThroughPipeline(*svc, requests, 2);
  });
  ExpertNetwork folded = base;
  for (const ExpertNetworkDelta& delta : deltas) {
    TD_CHECK(svc->ApplyDelta(delta).ok());
    folded = ApplyNetworkDelta(folded, delta).ValueOrDie();
  }
  updates_done.store(true);
  server.join();
  EXPECT_EQ(svc->generation(), deltas.size());

  // Final state == cold rebuild of the folded network, bit for bit.
  const std::string cold_dir =
      MakeSnapshot("upd_stress_cold", {0.25, 0.6}, folded);
  auto cold = TeamDiscoveryService::Open({.snapshot_dir = cold_dir}).ValueOrDie();
  ExpectSameResults(ServeThroughPipeline(*svc, requests, 4),
                    ServeThroughPipeline(*cold, requests, 4));
}

}  // namespace
}  // namespace teamdisc
