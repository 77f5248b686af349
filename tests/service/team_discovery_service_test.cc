#include "service/team_discovery_service.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "../core/test_networks.h"
#include "../serving/test_serving.h"
#include "common/string_util.h"

namespace teamdisc {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

/// Builds a snapshot of MediumNetwork with the given gammas pre-indexed.
std::string MakeSnapshot(const std::string& name, std::vector<double> gammas,
                         bool include_base = true) {
  const std::string dir = FreshDir(name);
  BuildSnapshotOptions options;
  options.gammas = std::move(gammas);
  options.include_base = include_base;
  ExpertNetwork net = MediumNetwork();
  TD_CHECK(BuildSnapshot(net, dir, options).ok());
  return dir;
}

TeamRequest Request(std::vector<std::string> skills, double gamma,
                    double lambda = 0.6, uint32_t top_k = 1) {
  TeamRequest request;
  request.skills = std::move(skills);
  request.gamma = gamma;
  request.lambda = lambda;
  request.top_k = top_k;
  return request;
}

TEST(TeamDiscoveryServiceTest, ServesFromSnapshotWithoutBuilding) {
  const std::string dir = MakeSnapshot("svc_no_build", {0.25, 0.6});
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
  auto teams = svc->FindTeam(Request({"a", "d"}, 0.6)).ValueOrDie();
  ASSERT_FALSE(teams.empty());
  auto stats = svc->cache_stats();
  EXPECT_EQ(stats.builds, 0u) << "index came from the snapshot, not a build";
  EXPECT_EQ(stats.loads, 1u);
  // A second request with the other pre-built gamma also avoids building.
  svc->FindTeam(Request({"b", "c"}, 0.25)).ValueOrDie();
  stats = svc->cache_stats();
  EXPECT_EQ(stats.builds, 0u);
  EXPECT_EQ(stats.loads, 2u);
}

TEST(TeamDiscoveryServiceTest, ResultsMatchDirectFinder) {
  const std::string dir = MakeSnapshot("svc_vs_direct", {0.6});
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
  auto served = svc->TopK(Request({"a", "d"}, 0.6, 0.6, 3)).ValueOrDie();

  // Same query answered by a self-built finder over the same network.
  FinderOptions options;
  options.strategy = RankingStrategy::kSACACC;
  options.params.gamma = 0.6;
  options.params.lambda = 0.6;
  options.top_k = 3;
  auto direct_net = MediumNetwork();
  auto finder = GreedyTeamFinder::Make(direct_net, options).ValueOrDie();
  auto project = MakeProject(direct_net, {"a", "d"}).ValueOrDie();
  auto direct = finder->FindTeams(project).ValueOrDie();

  ASSERT_EQ(served.size(), direct.size());
  for (size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].team.nodes, direct[i].team.nodes);
    EXPECT_EQ(served[i].proxy_cost, direct[i].proxy_cost);
    EXPECT_EQ(served[i].objective, direct[i].objective);
  }
}

TEST(TeamDiscoveryServiceTest, BuildsAndPersistsMissingIndexOnMiss) {
  const std::string dir = MakeSnapshot("svc_miss", {0.25});
  {
    auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
    // gamma 0.8 is not in the snapshot: the request succeeds via a fresh
    // build, which is persisted back.
    svc->FindTeam(Request({"a", "b"}, 0.8)).ValueOrDie();
    auto stats = svc->cache_stats();
    EXPECT_EQ(stats.builds, 1u);
    EXPECT_EQ(svc->manifest().entries.size(), 3u);  // base + 0.25 + 0.8
  }
  {
    // A fresh process now serves gamma 0.8 from the snapshot: 0 builds.
    auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
    svc->FindTeam(Request({"a", "b"}, 0.8)).ValueOrDie();
    auto stats = svc->cache_stats();
    EXPECT_EQ(stats.builds, 0u);
    EXPECT_EQ(stats.loads, 1u);
  }
}

TEST(TeamDiscoveryServiceTest, WarmAndColdIndexesAnswerIdentically) {
  // Acceptance criterion: results are identical with warm (persisted)
  // vs cold (freshly built) indexes.
  const TeamRequest request = Request({"a", "c", "d"}, 0.7, 0.4, 2);
  const std::string warm_dir = MakeSnapshot("svc_warm", {0.7});
  const std::string cold_dir = MakeSnapshot("svc_cold", {});  // no transform
  auto warm = TeamDiscoveryService::Open({.snapshot_dir = warm_dir}).ValueOrDie();
  auto cold = TeamDiscoveryService::Open({.snapshot_dir = cold_dir}).ValueOrDie();
  auto warm_teams = warm->TopK(request).ValueOrDie();
  auto cold_teams = cold->TopK(request).ValueOrDie();
  EXPECT_GE(warm->cache_stats().loads, 1u);
  EXPECT_GE(cold->cache_stats().builds, 1u);
  ASSERT_EQ(warm_teams.size(), cold_teams.size());
  for (size_t i = 0; i < warm_teams.size(); ++i) {
    EXPECT_EQ(warm_teams[i].team.nodes, cold_teams[i].team.nodes);
    EXPECT_EQ(warm_teams[i].proxy_cost, cold_teams[i].proxy_cost);
    EXPECT_EQ(warm_teams[i].objective, cold_teams[i].objective);
  }
}

TEST(TeamDiscoveryServiceTest, PipelineBitIdenticalAcrossWorkerCounts) {
  // Determinism contract on the serving path: the same requests through
  // RequestPipeline at 1 and at 4 dispatch workers answer bit-identically.
  const std::string dir = MakeSnapshot("svc_workers", {0.2, 0.6, 0.9});
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
  std::vector<TeamRequest> requests;
  const std::vector<std::vector<std::string>> skill_sets = {
      {"a"}, {"a", "b"}, {"c", "d"}, {"a", "b", "c", "d"}, {"b", "d"}};
  for (double gamma : {0.2, 0.6, 0.9}) {
    for (double lambda : {0.3, 0.8}) {
      for (const auto& skills : skill_sets) {
        requests.push_back(Request(skills, gamma, lambda, 2));
      }
    }
  }
  ASSERT_EQ(requests.size(), 30u);
  const auto at1 = ServeThroughPipeline(*svc, requests, 1);
  const auto at4 = ServeThroughPipeline(*svc, requests, 4);
  ExpectSameResults(at1, at4);
  for (size_t i = 0; i < at1.size(); ++i) {
    EXPECT_FALSE(at1[i].empty()) << "request " << i << " found no team";
  }
  // All three gammas were pre-built: nothing ran a build.
  EXPECT_EQ(svc->cache_stats().builds, 0u);
}

TEST(TeamDiscoveryServiceTest, ParetoServesFront) {
  const std::string dir = MakeSnapshot("svc_pareto", {});
  ParetoRequest request;
  request.skills = {"a", "d"};
  request.options.grid_points = 3;
  request.options.random_teams = 50;
  {
    auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
    auto front = svc->Pareto(request).ValueOrDie();
    ASSERT_FALSE(front.empty());
    // Front members are mutually non-dominated.
    for (size_t i = 0; i < front.size(); ++i) {
      for (size_t j = 0; j < front.size(); ++j) {
        if (i != j) {
          EXPECT_FALSE(Dominates(front[i], front[j]));
        }
      }
    }
    // Pareto draws its per-cell finders from the cache: the 3-point grid
    // needs only the 3 distinct gammas (plus the pre-built base index),
    // not one fresh index per cell — and misses were persisted back.
    EXPECT_LE(svc->cache_stats().builds, 3u);
  }
  {
    // A fresh process now answers the same Pareto query entirely off the
    // snapshot: every index (base + grid gammas) loads, none build.
    auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
    auto front = svc->Pareto(request).ValueOrDie();
    ASSERT_FALSE(front.empty());
    EXPECT_EQ(svc->cache_stats().builds, 0u);
    EXPECT_GE(svc->cache_stats().loads, 3u);
  }
}

TEST(TeamDiscoveryServiceTest, CorruptArtifactIsRebuiltAndRepairedOnDisk) {
  // Truncate a persisted index: the service must fall back to building (one
  // warning, request still answered) AND rewrite the artifact, so the next
  // process loads instead of rebuilding again.
  const std::string dir = MakeSnapshot("svc_repair", {0.6});
  const std::string artifact = dir + "/index-g6000-pll.pll";
  {
    std::ofstream out(artifact, std::ios::trunc);
    out << "pll v3 garbage\n";
  }
  {
    auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
    auto teams = svc->FindTeam(Request({"a", "d"}, 0.6)).ValueOrDie();
    ASSERT_FALSE(teams.empty());
    EXPECT_EQ(svc->cache_stats().builds, 1u);  // corrupt file forced a build
  }
  {
    auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
    svc->FindTeam(Request({"a", "d"}, 0.6)).ValueOrDie();
    auto stats = svc->cache_stats();
    EXPECT_EQ(stats.builds, 0u) << "repaired artifact must load";
    EXPECT_EQ(stats.loads, 1u);
  }
}

TEST(TeamDiscoveryServiceTest, V3TextArtifactHealsToV4OnFirstUse) {
  // A snapshot written before the binary format: its base index is a valid
  // v3 text artifact for the path 0 -1.5- 1 -2.5- 2. It no longer loads,
  // so the first CC request builds, and the saver rewrites it as v4.
  ExpertNetworkBuilder b;
  b.AddExpert("x", {"a"}, 1.0, 1);
  b.AddExpert("y", {"b"}, 1.0, 1);
  b.AddExpert("z", {"c"}, 1.0, 1);
  TD_CHECK_OK(b.AddEdge(0, 1, 1.5));
  TD_CHECK_OK(b.AddEdge(1, 2, 2.5));
  const ExpertNetwork net = b.Finish().ValueOrDie();
  const std::string dir = FreshDir("svc_v3_heal");
  BuildSnapshotOptions options;
  options.gammas = {};
  TD_CHECK(BuildSnapshot(net, dir, options).ok());
  const std::string artifact = dir + "/index-base-pll.pll";
  {
    std::ofstream out(artifact, std::ios::trunc);
    out << StrFormat("pll v3 3 2 5 %016llx\n",
                     static_cast<unsigned long long>(
                         WeightedEdgeFingerprint(net.graph())))
        << "order 1 0 2\n"
           "sizes 2 1 2\n"
           "ranks 0 1 0 0 2\n"
           "dists 1.5 0 0 2.5 0\n"
           "parents 1 -1 -1 1 -1\n";
  }
  TeamRequest request = Request({"a", "c"}, 0.6);
  request.strategy = RankingStrategy::kCC;
  {
    auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
    ASSERT_FALSE(svc->TopK(request).ValueOrDie().empty());
    EXPECT_EQ(svc->cache_stats().builds, 1u);
  }
  std::ifstream in(artifact, std::ios::binary);
  std::string head(8, '\0');
  in.read(head.data(), 8);
  EXPECT_EQ(head, "TDPLLIDX") << "the build was persisted as v4";
  {
    auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
    ASSERT_FALSE(svc->TopK(request).ValueOrDie().empty());
    EXPECT_EQ(svc->cache_stats().builds, 0u);
    EXPECT_EQ(svc->cache_stats().loads, 1u);
  }
}

TEST(TeamDiscoveryServiceTest, OpenRejectsTamperedNetwork) {
  const std::string dir = MakeSnapshot("svc_tampered", {});
  // Corrupt one edge weight in the stored network; the manifest fingerprint
  // no longer matches, so Open must refuse to serve stale indexes over it.
  const std::string net_path = dir + "/network.net";
  std::ifstream in(net_path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  size_t pos = content.rfind("0.4");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 3, "9.9");
  std::ofstream out(net_path, std::ios::trunc);
  out << content;
  out.close();
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir});
  ASSERT_FALSE(svc.ok());
  EXPECT_TRUE(svc.status().IsInvalidArgument()) << svc.status().ToString();
}

TEST(TeamDiscoveryServiceTest, OpenRequiresSnapshotDir) {
  EXPECT_TRUE(TeamDiscoveryService::Open({}).status().IsInvalidArgument());
  EXPECT_TRUE(TeamDiscoveryService::Open({.snapshot_dir = "/no/such/dir"})
                  .status()
                  .IsIOError());
}

TEST(TeamDiscoveryServiceTest, BudgetedCacheServesWithEvictions) {
  // A 1-byte budget forces every new index to evict the previous one; the
  // pinned-view contract keeps in-flight queries safe and results unchanged.
  const std::string dir = MakeSnapshot("svc_budget", {0.2, 0.6, 0.9});
  ServiceOptions tight;
  tight.snapshot_dir = dir;
  tight.cache_budget_bytes = 1;
  auto svc = TeamDiscoveryService::Open(tight).ValueOrDie();
  ServiceOptions roomy;
  roomy.snapshot_dir = dir;
  auto reference = TeamDiscoveryService::Open(roomy).ValueOrDie();
  for (double gamma : {0.2, 0.6, 0.9, 0.2, 0.9}) {  // revisits evicted gammas
    auto a = svc->FindTeam(Request({"a", "d"}, gamma)).ValueOrDie();
    auto b = reference->FindTeam(Request({"a", "d"}, gamma)).ValueOrDie();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a[0].team.nodes, b[0].team.nodes);
    EXPECT_EQ(a[0].objective, b[0].objective);
  }
  EXPECT_GT(svc->cache_stats().evictions, 0u);
  EXPECT_EQ(reference->cache_stats().evictions, 0u);
  // Every (re)load came off the snapshot, never a rebuild.
  EXPECT_EQ(svc->cache_stats().builds, 0u);
}

}  // namespace
}  // namespace teamdisc
