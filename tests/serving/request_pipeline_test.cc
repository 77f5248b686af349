#include "serving/request_pipeline.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <thread>

#include "../core/test_networks.h"

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

/// One worker behind a 4-deep queue.
PipelineOptions SmallPipeline() {
  PipelineOptions options;
  options.queue_capacity = 4;
  options.workers = 1;
  return options;
}

TeamRequest Request(std::vector<std::string> skills, double gamma = 0.6,
                    uint32_t top_k = 1) {
  TeamRequest request;
  request.skills = std::move(skills);
  request.gamma = gamma;
  request.top_k = top_k;
  return request;
}

/// A latch the pre-dispatch hook parks on: lets a test hold one request in
/// flight (worker inside the hook) while it manipulates the pipeline or the
/// service, then release it.
class DispatchGate {
 public:
  /// Hook for PipelineOptions: every dispatched request whose first skill is
  /// `marker` parks until Release().
  std::function<void(const TeamRequest&)> HookFor(std::string marker) {
    return [this, marker = std::move(marker)](const TeamRequest& request) {
      if (request.skills.empty() || request.skills[0] != marker) return;
      std::unique_lock<std::mutex> lock(mu_);
      ++parked_;
      parked_cv_.notify_all();
      release_cv_.wait(lock, [&] { return released_; });
    };
  }
  /// Blocks until `n` requests are parked inside the hook.
  void AwaitParked(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    parked_cv_.wait(lock, [&] { return parked_ >= n; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable parked_cv_, release_cv_;
  size_t parked_ = 0;
  bool released_ = false;
};

TEST(RequestPipelineTest, SolvesMatchDirectServiceCalls) {
  const std::string dir = MakeSnapshot("pipe_direct", {0.6});
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
  PipelineOptions options;
  options.workers = 2;
  options.queue_capacity = 16;
  auto pipeline = RequestPipeline::Start(*svc, options).ValueOrDie();

  auto handle = pipeline->Submit(Request({"a", "d"}, 0.6, 3)).ValueOrDie();
  const auto& served = handle.Wait();
  ASSERT_TRUE(served.ok()) << served.status();

  auto direct = svc->TopK(Request({"a", "d"}, 0.6, 3)).ValueOrDie();
  ASSERT_EQ(served.ValueOrDie().size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(served.ValueOrDie()[i].team.nodes, direct[i].team.nodes);
    EXPECT_EQ(served.ValueOrDie()[i].objective, direct[i].objective);
  }
  EXPECT_GE(handle.e2e_ms(), handle.solve_ms());
  EXPECT_EQ(pipeline->metrics().counter("serve.solved").value(), 1u);
}

TEST(RequestPipelineTest, ExpiredRequestIsDroppedWithoutInvokingAFinder) {
  // Both gammas are pre-built, so any solve would show up as a cache miss +
  // artifact load. The victim expires in the queue; if it never solves, the
  // cache must end the test having seen exactly one request (the plug).
  const std::string dir = MakeSnapshot("pipe_expired", {0.25, 0.6});
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
  DispatchGate gate;
  PipelineOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  options.pre_dispatch_hook = gate.HookFor("a");
  auto pipeline = RequestPipeline::Start(*svc, options).ValueOrDie();

  // Plug: occupies the only worker inside the hook (after its own deadline
  // checks, before its solve).
  auto plug = pipeline->Submit(Request({"a", "d"}, 0.6)).ValueOrDie();
  gate.AwaitParked(1);

  // Victim: queued behind the plug with a 5 ms deadline, against the other
  // pre-built gamma so a (wrongly) executed solve would load a second index.
  SubmitOptions submit;
  submit.deadline_ms = 5.0;
  auto victim = pipeline->Submit(Request({"b", "c"}, 0.25), submit).ValueOrDie();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.Release();

  EXPECT_TRUE(victim.Wait().status().IsDeadlineExceeded())
      << victim.Wait().status();
  ASSERT_TRUE(plug.Wait().ok());
  pipeline->Shutdown();

  EXPECT_EQ(pipeline->metrics().counter("serve.expired").value(), 1u);
  EXPECT_EQ(pipeline->metrics().counter("serve.solved").value(), 1u);
  // The finder/index machinery saw only the plug: one miss, one load.
  const OracleCache::Stats cache = svc->cache_stats();
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.loads, 1u);
  EXPECT_EQ(victim.solve_ms(), 0.0);
}

TEST(RequestPipelineTest, FullQueueShedsWithResourceExhausted) {
  const std::string dir = MakeSnapshot("pipe_shed", {0.6});
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
  DispatchGate gate;
  PipelineOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.pre_dispatch_hook = gate.HookFor("a");
  auto pipeline = RequestPipeline::Start(*svc, options).ValueOrDie();

  // Plug drains into the worker, leaving the 1-slot queue empty...
  auto plug = pipeline->Submit(Request({"a", "d"})).ValueOrDie();
  gate.AwaitParked(1);
  // ...the next request fills the queue...
  auto queued = pipeline->Submit(Request({"b", "d"})).ValueOrDie();
  // ...and the one after that is shed: explicit ResourceExhausted, nothing
  // queued, nothing solved on its behalf.
  auto overflow = pipeline->Submit(Request({"c", "d"}));
  ASSERT_FALSE(overflow.ok());
  EXPECT_TRUE(overflow.status().IsResourceExhausted()) << overflow.status();

  gate.Release();
  EXPECT_TRUE(plug.Wait().ok());
  EXPECT_TRUE(queued.Wait().ok());
  pipeline->Shutdown();

  EXPECT_EQ(pipeline->metrics().counter("serve.submitted").value(), 3u);
  EXPECT_EQ(pipeline->metrics().counter("serve.admitted").value(), 2u);
  EXPECT_EQ(pipeline->metrics().counter("serve.shed").value(), 1u);
}

TEST(RequestPipelineTest, CancelledRequestIsDroppedAtDequeue) {
  const std::string dir = MakeSnapshot("pipe_cancel", {0.6});
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
  DispatchGate gate;
  PipelineOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  options.pre_dispatch_hook = gate.HookFor("a");
  auto pipeline = RequestPipeline::Start(*svc, options).ValueOrDie();

  auto plug = pipeline->Submit(Request({"a", "d"})).ValueOrDie();
  gate.AwaitParked(1);
  SubmitOptions submit;
  auto victim = pipeline->Submit(Request({"b", "d"}), submit).ValueOrDie();
  submit.token.Cancel();
  gate.Release();

  EXPECT_TRUE(victim.Wait().status().IsCancelled()) << victim.Wait().status();
  EXPECT_TRUE(plug.Wait().ok());
  pipeline->Shutdown();
  EXPECT_EQ(pipeline->metrics().counter("serve.cancelled").value(), 1u);
}

TEST(RequestPipelineTest, InFlightRequestCompletesAcrossEpochSwap) {
  const std::string dir = MakeSnapshot("pipe_swap", {0.6});
  ServiceOptions svc_options;
  svc_options.snapshot_dir = dir;
  svc_options.persist_updates = false;
  svc_options.persist_built_indexes = false;
  auto svc = TeamDiscoveryService::Open(svc_options).ValueOrDie();
  const uint64_t generation_before = svc->generation();

  DispatchGate gate;
  PipelineOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  options.pre_dispatch_hook = gate.HookFor("a");
  auto pipeline = RequestPipeline::Start(*svc, options).ValueOrDie();

  // Hold the request in flight (dispatched, not yet solved), swap the epoch
  // under it, then let it finish: it must complete successfully.
  auto inflight = pipeline->Submit(Request({"a", "d"})).ValueOrDie();
  gate.AwaitParked(1);
  ExpertNetworkDelta delta;
  delta.AddSkill(0, "churn");
  ASSERT_TRUE(svc->ApplyDelta(delta).ok());
  EXPECT_EQ(svc->generation(), generation_before + 1);
  gate.Release();

  const auto& result = inflight.Wait();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result.ValueOrDie().empty());
  pipeline->Shutdown();

  // And a post-swap request serves off the new epoch, same pipeline.
  auto after = RequestPipeline::Start(*svc, SmallPipeline())
                   .ValueOrDie()
                   ->Submit(Request({"a", "d"}))
                   .ValueOrDie();
  EXPECT_TRUE(after.Wait().ok());
}

TEST(RequestPipelineTest, HandleReportsTheEpochThatSolvedIt) {
  // A remove-expert delta compacts expert ids, so an answer rendered against
  // the *current* network after a swap would name the wrong experts. The
  // handle must keep reporting the generation and network that solved it,
  // even when the swap lands between the solve and the read.
  const std::string dir = MakeSnapshot("pipe_epoch", {0.6});
  ServiceOptions svc_options;
  svc_options.snapshot_dir = dir;
  svc_options.persist_updates = false;
  svc_options.persist_built_indexes = false;
  auto svc = TeamDiscoveryService::Open(svc_options).ValueOrDie();
  const std::shared_ptr<const ExpertNetwork> solved_net = svc->network();
  const uint64_t solved_generation = svc->generation();

  PipelineOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  auto pipeline = RequestPipeline::Start(*svc, options).ValueOrDie();
  // Written on the dispatch worker, read after Shutdown() joined it.
  std::vector<std::string> seen_names;
  EpochRef seen;
  SubmitOptions submit;
  submit.on_complete = [&](const ResponseHandle& handle) {
    ExpertNetworkDelta delta;
    delta.RemoveExpert(0);  // every later expert id shifts down by one
    TD_CHECK_OK(svc->ApplyDelta(delta).status());
    seen = handle.epoch();
    if (!handle.Wait().ok()) return;  // the ASSERT below reports it
    for (NodeId v : handle.Wait().ValueOrDie()[0].team.nodes) {
      seen_names.push_back(seen.network->expert(v).name);
    }
  };
  auto handle = pipeline->Submit(Request({"b", "d"}), submit).ValueOrDie();
  const auto& result = handle.Wait();
  ASSERT_TRUE(result.ok()) << result.status();
  pipeline->Shutdown();  // joins the worker: on_complete has run

  EXPECT_EQ(svc->generation(), solved_generation + 1);
  EXPECT_EQ(seen.generation, solved_generation);
  EXPECT_EQ(seen.network, solved_net);
  const std::vector<NodeId>& members = result.ValueOrDie()[0].team.nodes;
  ASSERT_EQ(seen_names.size(), members.size());
  bool renamed = false;
  for (size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(seen_names[i], solved_net->expert(members[i]).name);
    const ExpertNetwork& current = *svc->network();
    renamed |= members[i] >= current.num_experts() ||
               current.expert(members[i]).name != seen_names[i];
  }
  EXPECT_TRUE(renamed) << "the current network must name the ids differently, "
                          "or this test checks nothing";
}

TEST(RequestPipelineTest, MetricsCountersMatchOutcomesExactly) {
  const std::string dir = MakeSnapshot("pipe_counters", {0.6});
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
  DispatchGate gate;
  PipelineOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  options.pre_dispatch_hook = gate.HookFor("a");
  auto pipeline = RequestPipeline::Start(*svc, options).ValueOrDie();

  auto plug = pipeline->Submit(Request({"a", "d"})).ValueOrDie();  // solves
  gate.AwaitParked(1);

  std::vector<ResponseHandle> handles;
  handles.push_back(pipeline->Submit(Request({"b", "d"})).ValueOrDie());  // solves
  handles.push_back(pipeline->Submit(Request({"nope"})).ValueOrDie());   // fails
  handles.push_back(pipeline->Submit(Request({"b"}, 2.5)).ValueOrDie());  // bad gamma
  SubmitOptions expiring;
  expiring.deadline_ms = 5.0;
  handles.push_back(pipeline->Submit(Request({"c"}), expiring).ValueOrDie());
  SubmitOptions cancelling;
  handles.push_back(pipeline->Submit(Request({"d"}), cancelling).ValueOrDie());
  cancelling.token.Cancel();

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.Release();
  for (const ResponseHandle& handle : handles) handle.Wait();
  plug.Wait();
  pipeline->Shutdown();

  // The out-of-range gamma is a hard failure, not an infeasible answer.
  EXPECT_TRUE(handles[2].Wait().status().IsInvalidArgument())
      << handles[2].Wait().status();

  MetricsRegistry& m = pipeline->metrics();
  EXPECT_EQ(m.counter("serve.submitted").value(), 6u);
  EXPECT_EQ(m.counter("serve.admitted").value(), 6u);
  EXPECT_EQ(m.counter("serve.shed").value(), 0u);
  EXPECT_EQ(m.counter("serve.solved").value(), 2u);
  EXPECT_EQ(m.counter("serve.failed").value(), 2u);
  EXPECT_EQ(m.counter("serve.expired").value(), 1u);
  EXPECT_EQ(m.counter("serve.cancelled").value(), 1u);
  EXPECT_EQ(m.counter("serve.infeasible").value(), 0u);
  EXPECT_DOUBLE_EQ(m.gauge("serve.queue_depth").value(), 0.0);
  // Every admitted request passed through exactly one e2e observation.
  EXPECT_EQ(m.histogram("serve.e2e_us").snapshot().count, 6u);
  // Only the two solves and the two hard failures ran a solve.
  EXPECT_EQ(m.histogram("serve.solve_us").snapshot().count, 4u);

  // The admin dump reflects the same counters and folds in cache stats.
  const std::string json = pipeline->MetricsJson();
  EXPECT_NE(json.find("\"serve.solved\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache.builds\""), std::string::npos) << json;
}

TEST(RequestPipelineTest, SubmitAfterShutdownFailsPrecondition) {
  const std::string dir = MakeSnapshot("pipe_shutdown", {0.6});
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
  auto pipeline = RequestPipeline::Start(*svc, SmallPipeline()).ValueOrDie();
  pipeline->Shutdown();
  auto rejected = pipeline->Submit(Request({"a"}));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RequestPipelineTest, ZeroQueueCapacityEnvIsRejected) {
  const std::string dir = MakeSnapshot("pipe_cap0", {0.6});
  auto svc = TeamDiscoveryService::Open({.snapshot_dir = dir}).ValueOrDie();
  ::setenv("TEAMDISC_SERVE_QUEUE_CAP", "0", 1);
  auto pipeline = RequestPipeline::Start(*svc, PipelineOptions{});
  ::unsetenv("TEAMDISC_SERVE_QUEUE_CAP");
  ASSERT_FALSE(pipeline.ok());
  EXPECT_TRUE(pipeline.status().IsInvalidArgument());
}

}  // namespace
}  // namespace teamdisc
