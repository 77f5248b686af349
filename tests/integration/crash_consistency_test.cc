// Crash-consistency torture harness: fork a child, arm an `abort` fault at
// one snapshot fault point, and let the child crash mid-update at exactly
// that point. The parent then proves the recovery contract on the surviving
// directory: the snapshot opens at the prior generation, every answer
// matches the pre-crash world bit for bit (zero wrong answers), and
// re-applying the update succeeds (self-heal) — for every fault point in
// the commit protocol, including the one where rebuilt artifacts already
// overwrote their files but the manifest rename never happened.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>

#include "../core/test_networks.h"
#include "../serving/test_serving.h"
#include "common/fault_injection.h"
#include "service/team_discovery_service.h"

namespace teamdisc {
namespace {

namespace fs = std::filesystem;

// Child exit codes for runs that did NOT crash where they should have.
constexpr int kChildUpdateReturned = 61;  // ApplySnapshotDelta came back
constexpr int kChildArmFailed = 62;

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

TeamRequest Request(std::vector<std::string> skills, double gamma) {
  TeamRequest request;
  request.skills = std::move(skills);
  request.gamma = gamma;
  request.lambda = 0.6;
  request.top_k = 2;
  return request;
}

std::vector<TeamRequest> ProbeRequests() {
  std::vector<TeamRequest> requests;
  for (double gamma : {0.25, 0.6}) {
    requests.push_back(Request({"a", "d"}, gamma));
    requests.push_back(Request({"b", "c"}, gamma));
    requests.push_back(Request({"a", "b", "c", "d"}, gamma));
  }
  return requests;
}

/// The update every torture run crashes in: an edge reweight, which
/// invalidates the base index and both transforms — so the crash window
/// spans artifact rebuilds, the network save, and the manifest commit.
ExpertNetworkDelta TortureDelta() {
  ExpertNetworkDelta delta;
  delta.ReweightCollaboration(3, 7, 0.9);
  return delta;
}

Result<std::vector<std::vector<ScoredTeam>>> Serve(
    const std::string& dir, const std::vector<TeamRequest>& requests) {
  ServiceOptions options;
  options.snapshot_dir = dir;
  // The verification passes must be read-only: a persist from the probe
  // itself would repair (or disturb) exactly the state under test.
  options.persist_built_indexes = false;
  options.persist_updates = false;
  TD_ASSIGN_OR_RETURN(auto svc, TeamDiscoveryService::Open(options));
  std::vector<std::vector<ScoredTeam>> results;
  for (const TeamRequest& request : requests) {
    auto teams = svc->TopK(request);
    if (!teams.ok()) {
      return Status::Internal("probe requests must all solve: " +
                              teams.status().ToString());
    }
    results.push_back(std::move(teams).ValueOrDie());
  }
  return results;
}

size_t CountTmpFiles(const std::string& dir) {
  size_t count = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") ++count;
  }
  return count;
}

/// Forks a child that arms `abort` at `point` and runs ApplySnapshotDelta;
/// asserts the child died of SIGABRT (i.e. the fault point was actually on
/// the update's path).
void CrashUpdateAt(const std::string& dir, const char* point) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: crash at the fault point. _exit on every non-crash path so the
    // parent's gtest state is never torn down twice.
    FaultSpec spec;
    spec.action = FaultAction::kAbort;
    FaultInjection::Arm(point, spec);
    SnapshotUpdateOptions options;
    options.pll.num_threads = 1;
    (void)ApplySnapshotDelta(dir, TortureDelta(), options);
    _exit(kChildUpdateReturned);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << point << ": child exited " << WEXITSTATUS(status)
      << " instead of crashing — the fault point is not on the update path";
  EXPECT_EQ(WTERMSIG(status), SIGABRT) << point;
}

class CrashConsistencyTest : public testing::Test {
 protected:
  void SetUp() override { FaultInjection::Reset(); }
  void TearDown() override { FaultInjection::Reset(); }
};

TEST_F(CrashConsistencyTest, UpdateCrashAtEveryFaultPointRecovers) {
  // Every named point in the snapshot commit protocol, in execution order.
  const char* kPoints[] = {
      "snapshot.artifact.write",   // mid artifact rebuild, temp file leaked
      "snapshot.artifact.rename",  // artifact staged but never promoted
      "snapshot.network.save",     // artifacts overwritten, network missing
      "snapshot.manifest.write",   // network-g1 on disk, manifest untouched
      "snapshot.manifest.rename",  // manifest staged but never committed
  };
  const ExpertNetwork base = MediumNetwork();
  const std::vector<TeamRequest> requests = ProbeRequests();

  for (const char* point : kPoints) {
    SCOPED_TRACE(point);
    const std::string dir =
        FreshDir(std::string("crash_") + point);
    BuildSnapshotOptions build;
    build.gammas = {0.25, 0.6};
    build.pll.num_threads = 1;
    ASSERT_TRUE(BuildSnapshot(base, dir, build).ok());
    const auto reference = Serve(dir, requests).ValueOrDie();

    CrashUpdateAt(dir, point);

    // Recovery contract 1: the surviving generation opens and answers
    // exactly what the pre-crash world answered — no wrong answers, no
    // half-applied update visible.
    const SnapshotManifest survived = ReadSnapshotManifest(dir).ValueOrDie();
    EXPECT_EQ(survived.generation, 0u);
    const auto recovered = Serve(dir, requests).ValueOrDie();
    ExpectSameResults(reference, recovered);

    // Recovery contract 2 (self-heal): the same update applies cleanly on
    // the survivor, and the updated snapshot serves. The sweep at update
    // entry also reclaims any temp file the crash leaked.
    SnapshotUpdateOptions update;
    update.pll.num_threads = 1;
    auto report = ApplySnapshotDelta(dir, TortureDelta(), update);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.ValueOrDie().generation, 1u);
    EXPECT_EQ(CountTmpFiles(dir), 0u) << "crash-leaked temp file survived";

    const ExpertNetwork next =
        ApplyNetworkDelta(base, TortureDelta()).ValueOrDie();
    const std::string cold_dir =
        FreshDir(std::string("crash_cold_") + point);
    ASSERT_TRUE(BuildSnapshot(next, cold_dir, build).ok());
    ExpectSameResults(Serve(cold_dir, requests).ValueOrDie(),
                      Serve(dir, requests).ValueOrDie());
  }
}

TEST_F(CrashConsistencyTest, BuildCrashLeavesNoManifestAndRebuildHeals) {
  // A crash during the initial BuildSnapshot (before the manifest exists)
  // must be detectable — Open fails cleanly, no torn snapshot is served —
  // and a rebuild into the same directory heals it.
  const std::string dir = FreshDir("crash_build");
  const ExpertNetwork base = MediumNetwork();

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    FaultSpec spec;
    spec.action = FaultAction::kAbort;
    FaultInjection::Arm("snapshot.manifest.rename", spec);
    BuildSnapshotOptions build;
    build.gammas = {0.6};
    build.pll.num_threads = 1;
    (void)BuildSnapshot(base, dir, build);
    _exit(kChildUpdateReturned);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  // Network and artifacts exist, but the commit point (the manifest) was
  // never reached: the directory must refuse to open, not serve torn state.
  EXPECT_FALSE(TeamDiscoveryService::Open({.snapshot_dir = dir}).ok());

  BuildSnapshotOptions build;
  build.gammas = {0.6};
  build.pll.num_threads = 1;
  ASSERT_TRUE(BuildSnapshot(base, dir, build).ok());
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
  EXPECT_FALSE(svc->FindTeam(Request({"a", "d"}, 0.6)).ValueOrDie().empty());
  EXPECT_EQ(svc->cache_stats().builds, 0u) << "healed snapshot must load";
}

}  // namespace
}  // namespace teamdisc
