// Concurrency stress for the serving pipeline: multiple open-loop
// submitters (some with tight deadlines, some cancelling) race the dispatch
// workers, load shedding, and live ApplyDelta epoch swaps. The assertions
// are the counter conservation laws; the real target is TSan — the
// queue/dispatch/swap interleavings exercised here are exactly where data
// races would hide (this test runs under the `tsan` preset in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "../core/test_networks.h"
#include "../serving/test_serving.h"

namespace teamdisc {
namespace {

namespace fs = std::filesystem;

TEST(PipelineStressTest, SubmittersCancellersAndEpochSwapsRaceCleanly) {
  fs::path dir = fs::path(testing::TempDir()) / "pipe_stress";
  fs::remove_all(dir);
  BuildSnapshotOptions snapshot_options;
  snapshot_options.gammas = {0.25, 0.6};
  ExpertNetwork net = MediumNetwork();
  TD_CHECK(BuildSnapshot(net, dir.string(), snapshot_options).ok());

  ServiceOptions svc_options;
  svc_options.snapshot_dir = dir.string();
  svc_options.persist_updates = false;
  svc_options.persist_built_indexes = false;
  auto svc = TeamDiscoveryService::Open(svc_options).ValueOrDie();

  PipelineOptions options;
  options.workers = 2;
  options.queue_capacity = 8;  // small enough that bursts shed
  auto pipeline = RequestPipeline::Start(*svc, options).ValueOrDie();

  constexpr size_t kSubmitters = 3;
  constexpr size_t kPerSubmitter = 60;
  const std::vector<std::vector<std::string>> kSkillSets = {
      {"a", "d"}, {"b", "c"}, {"a", "b", "c", "d"}};
  std::atomic<uint64_t> waited_ok{0}, waited_error{0}, shed_submits{0};

  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<ResponseHandle> handles;
      std::vector<CancellationToken> tokens;
      for (size_t i = 0; i < kPerSubmitter; ++i) {
        TeamRequest request;
        request.skills = kSkillSets[(t + i) % kSkillSets.size()];
        request.gamma = i % 2 == 0 ? 0.6 : 0.25;
        SubmitOptions submit;
        // A third of this thread's requests carry a deadline so tight that
        // under queueing some expire; another third get cancelled below.
        if (i % 3 == 0) submit.deadline_ms = 0.5;
        auto handle = pipeline->Submit(request, submit);
        if (!handle.ok()) {
          TD_CHECK(handle.status().IsResourceExhausted())
              << handle.status().ToString();
          shed_submits.fetch_add(1);
          continue;
        }
        handles.push_back(std::move(handle).ValueOrDie());
        tokens.push_back(submit.token);
        if (i % 3 == 1) tokens.back().Cancel();
      }
      for (ResponseHandle& handle : handles) {
        if (handle.Wait().ok()) {
          waited_ok.fetch_add(1);
        } else {
          waited_error.fetch_add(1);
        }
      }
    });
  }

  // Live churn: alternating skill-only and reweight deltas swap the epoch
  // under the in-flight requests.
  std::thread updater([&] {
    std::vector<ExpertNetworkDelta> deltas = MakeDeltaMix(net, 6);
    for (const ExpertNetworkDelta& delta : deltas) {
      TD_CHECK_OK(svc->ApplyDelta(delta).status());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (std::thread& t : submitters) t.join();
  updater.join();
  pipeline->Shutdown();

  MetricsRegistry& m = pipeline->metrics();
  const uint64_t submitted = m.counter("serve.submitted").value();
  const uint64_t admitted = m.counter("serve.admitted").value();
  const uint64_t shed = m.counter("serve.shed").value();
  const uint64_t solved = m.counter("serve.solved").value();
  const uint64_t infeasible = m.counter("serve.infeasible").value();
  const uint64_t failed = m.counter("serve.failed").value();
  const uint64_t expired = m.counter("serve.expired").value();
  const uint64_t cancelled = m.counter("serve.cancelled").value();

  // Conservation: every submission was admitted or shed, and every admitted
  // request reached exactly one disposition.
  EXPECT_EQ(submitted, kSubmitters * kPerSubmitter);
  EXPECT_EQ(submitted, admitted + shed);
  EXPECT_EQ(shed, shed_submits.load());
  EXPECT_EQ(admitted, solved + infeasible + failed + expired + cancelled);
  EXPECT_EQ(admitted, waited_ok.load() + waited_error.load());
  EXPECT_EQ(solved, waited_ok.load());
  // Valid skills against valid epochs: nothing may hard-fail.
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(m.histogram("serve.e2e_us").snapshot().count, admitted);
  EXPECT_DOUBLE_EQ(m.gauge("serve.queue_depth").value(), 0.0);
  EXPECT_EQ(svc->generation(), 6u);  // 0 at Open, +1 per swap
}

}  // namespace
}  // namespace teamdisc
