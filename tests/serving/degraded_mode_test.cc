// Degraded-mode serving through the async pipeline: in-flight requests
// complete on their pinned epoch while ApplyDelta fails mid-rebuild, an
// injected dispatch fault lands in serve.failed, and the MetricsJson dump
// exposes the health / retry / fault gauges an operator scrapes.
#include "serving/request_pipeline.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include "../core/test_networks.h"
#include "common/fault_injection.h"
#include "common/retry.h"

namespace teamdisc {
namespace {

namespace fs = std::filesystem;

std::string MakeSnapshot(const std::string& name, std::vector<double> gammas) {
  fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  BuildSnapshotOptions options;
  options.gammas = std::move(gammas);
  ExpertNetwork net = MediumNetwork();
  TD_CHECK(BuildSnapshot(net, dir.string(), options).ok());
  return dir.string();
}

TeamRequest Request(std::vector<std::string> skills, double gamma = 0.6,
                    uint32_t top_k = 1) {
  TeamRequest request;
  request.skills = std::move(skills);
  request.gamma = gamma;
  request.top_k = top_k;
  return request;
}

class DegradedModeTest : public testing::Test {
 protected:
  void SetUp() override {
    FaultInjection::Reset();
    ResetRetryStatsForTest();
  }
  void TearDown() override { FaultInjection::Reset(); }
};

TEST_F(DegradedModeTest, InFlightRequestsCompleteWhileApplyDeltaFails) {
  // A request parked mid-dispatch (epoch pinned, solve not yet run) must
  // complete correctly even though an ApplyDelta fails mid-rebuild while it
  // is in flight — the abort never disturbs the pinned epoch.
  const std::string dir = MakeSnapshot("deg_inflight", {0.6});
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();

  std::mutex mu;
  std::condition_variable cv;
  size_t parked = 0;
  bool released = false;
  PipelineOptions options;
  options.workers = 2;
  options.queue_capacity = 16;
  options.pre_dispatch_hook = [&](const TeamRequest&) {
    std::unique_lock<std::mutex> lock(mu);
    ++parked;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  };
  auto pipeline = RequestPipeline::Start(*svc, options).ValueOrDie();

  auto expected = svc->TopK(Request({"a", "d"})).ValueOrDie();
  auto handle = pipeline->Submit(Request({"a", "d"})).ValueOrDie();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked >= 1; });
  }

  // With the request held in flight, fail an update mid-rebuild.
  ASSERT_TRUE(
      FaultInjection::Arm("service.applydelta.rebuild", "fail_once").ok());
  ExpertNetworkDelta delta;
  delta.ReweightCollaboration(3, 7, 0.9);
  ASSERT_FALSE(svc->ApplyDelta(delta).ok());
  EXPECT_EQ(svc->health().state, HealthState::kDegraded);

  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
  const auto& served = handle.Wait();
  ASSERT_TRUE(served.ok()) << served.status();
  ASSERT_EQ(served.ValueOrDie().size(), expected.size());
  EXPECT_EQ(served.ValueOrDie()[0].team.nodes, expected[0].team.nodes);
  EXPECT_EQ(served.ValueOrDie()[0].objective, expected[0].objective);

  // And the service keeps answering new pipeline requests while DEGRADED.
  auto during = pipeline->Submit(Request({"b", "c"})).ValueOrDie();
  EXPECT_TRUE(during.Wait().ok());
  EXPECT_EQ(pipeline->metrics().counter("serve.failed").value(), 0u);
}

TEST_F(DegradedModeTest, InjectedDispatchFaultCountsAsFailed) {
  const std::string dir = MakeSnapshot("deg_dispatch", {0.6});
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
  PipelineOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  auto pipeline = RequestPipeline::Start(*svc, options).ValueOrDie();

  ASSERT_TRUE(FaultInjection::Arm("pipeline.dispatch", "fail_once").ok());
  auto faulted = pipeline->Submit(Request({"a", "d"})).ValueOrDie();
  const auto& result = faulted.Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
  EXPECT_NE(result.status().message().find("pipeline.dispatch"),
            std::string::npos);

  // The fault was one-shot: the next request solves.
  auto healthy = pipeline->Submit(Request({"a", "d"})).ValueOrDie();
  EXPECT_TRUE(healthy.Wait().ok());
  EXPECT_EQ(pipeline->metrics().counter("serve.failed").value(), 1u);
  EXPECT_EQ(pipeline->metrics().counter("serve.solved").value(), 1u);
}

TEST_F(DegradedModeTest, MetricsJsonExposesHealthRetryAndFaultGauges) {
  const std::string dir = MakeSnapshot("deg_metrics", {0.6});
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
  // A swap refreshes only resident indexes: serve one so the failed update
  // below reaches its rebuild fault point.
  ASSERT_TRUE(svc->TopK(Request({"a", "d"})).ok());
  PipelineOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  auto pipeline = RequestPipeline::Start(*svc, options).ValueOrDie();

  // Healthy baseline: gauges exist and read 0.
  std::string json = pipeline->MetricsJson();
  EXPECT_NE(json.find("\"health.degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"health.update_failures\""), std::string::npos);
  EXPECT_NE(json.find("\"retry.attempts\""), std::string::npos);
  EXPECT_NE(json.find("\"faults.total\""), std::string::npos);
  EXPECT_EQ(pipeline->metrics().gauge("health.degraded").value(), 0.0);

  // Degrade via a failed update; the dump must show it, with the fault's
  // per-point trip count named.
  ASSERT_TRUE(
      FaultInjection::Arm("service.applydelta.rebuild", "fail_once").ok());
  ExpertNetworkDelta delta;
  delta.ReweightCollaboration(3, 7, 0.9);
  ASSERT_FALSE(svc->ApplyDelta(delta).ok());
  json = pipeline->MetricsJson();
  EXPECT_EQ(pipeline->metrics().gauge("health.degraded").value(), 1.0);
  EXPECT_EQ(pipeline->metrics().gauge("health.update_failures").value(), 1.0);
  EXPECT_EQ(pipeline->metrics().gauge("health.degraded_transitions").value(),
            1.0);
  EXPECT_NE(json.find("\"faults.service.applydelta.rebuild\""),
            std::string::npos);
  EXPECT_GE(pipeline->metrics().gauge("faults.total").value(), 1.0);

  // Recover; the dump flips back and records the recovery edge.
  ASSERT_TRUE(svc->ApplyDelta(delta).ok());
  pipeline->MetricsJson();
  EXPECT_EQ(pipeline->metrics().gauge("health.degraded").value(), 0.0);
  EXPECT_EQ(pipeline->metrics().gauge("health.recoveries").value(), 1.0);
}

}  // namespace
}  // namespace teamdisc
