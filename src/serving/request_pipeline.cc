#include "serving/request_pipeline.h"

#include <condition_variable>
#include <mutex>

#include "common/env.h"
#include "common/fault_injection.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace teamdisc {

namespace {

constexpr size_t kDefaultQueueCapacity = 256;

uint64_t ToMicros(std::chrono::steady_clock::duration d) {
  auto us = std::chrono::duration_cast<std::chrono::microseconds>(d).count();
  return us < 0 ? 0 : static_cast<uint64_t>(us);
}

double ToMillis(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

/// Completion state shared between the caller's handle and the worker.
struct ResponseHandle::State {
  mutable std::mutex mu;
  mutable std::condition_variable cv;
  bool done = false;
  Result<std::vector<ScoredTeam>> result = Status::Unknown("pending");
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  double e2e_ms = 0.0;
  EpochRef epoch;
  /// Taken (moved out) by Complete before invocation, so it runs once even
  /// if a future code path completed twice.
  std::function<void(const ResponseHandle&)> on_complete;
};

const Result<std::vector<ScoredTeam>>& ResponseHandle::Wait() const {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->result;
}

bool ResponseHandle::done() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

double ResponseHandle::queue_ms() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->queue_ms;
}

double ResponseHandle::solve_ms() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->solve_ms;
}

double ResponseHandle::e2e_ms() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->e2e_ms;
}

EpochRef ResponseHandle::epoch() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->epoch;
}

RequestPipeline::RequestPipeline(const TeamDiscoveryService& service,
                                 MetricsRegistry* metrics)
    : service_(service) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  submitted_ = &metrics_->counter("serve.submitted");
  admitted_ = &metrics_->counter("serve.admitted");
  shed_ = &metrics_->counter("serve.shed");
  expired_ = &metrics_->counter("serve.expired");
  cancelled_ = &metrics_->counter("serve.cancelled");
  solved_ = &metrics_->counter("serve.solved");
  infeasible_ = &metrics_->counter("serve.infeasible");
  failed_ = &metrics_->counter("serve.failed");
  queue_depth_ = &metrics_->gauge("serve.queue_depth");
  queue_depth_peak_ = &metrics_->gauge("serve.queue_depth_peak");
  queue_wait_us_ = &metrics_->histogram("serve.queue_wait_us");
  solve_us_ = &metrics_->histogram("serve.solve_us");
  e2e_us_ = &metrics_->histogram("serve.e2e_us");
}

Result<std::unique_ptr<RequestPipeline>> RequestPipeline::Start(
    const TeamDiscoveryService& service, PipelineOptions options,
    MetricsRegistry* metrics) {
  if (options.queue_capacity == 0) {
    options.queue_capacity = static_cast<size_t>(GetEnvOr(
        "TEAMDISC_SERVE_QUEUE_CAP", uint64_t{kDefaultQueueCapacity}));
    if (options.queue_capacity == 0) {
      return Status::InvalidArgument(
          "TEAMDISC_SERVE_QUEUE_CAP=0 would shed every request; set a "
          "positive admission-queue bound");
    }
  }
  if (options.default_deadline_ms == 0.0) {
    options.default_deadline_ms = static_cast<double>(
        GetEnvOr("TEAMDISC_SERVE_DEADLINE_MS", uint64_t{0}));
  }
  // The same guard the other thread subsystems use: env fallback, malformed
  // values warn, absurd counts clamp.
  options.workers =
      ThreadPool::ResolveThreadCount(options.workers, "TEAMDISC_SERVE_WORKERS");

  auto pipeline = std::unique_ptr<RequestPipeline>(
      new RequestPipeline(service, metrics));
  pipeline->options_ = std::move(options);
  pipeline->queue_ =
      std::make_unique<BoundedQueue<Item>>(pipeline->options_.queue_capacity);
  pipeline->workers_.reserve(pipeline->options_.workers);
  for (size_t i = 0; i < pipeline->options_.workers; ++i) {
    pipeline->workers_.emplace_back([p = pipeline.get()] { p->WorkerLoop(); });
  }
  return pipeline;
}

RequestPipeline::~RequestPipeline() { Shutdown(); }

void RequestPipeline::Shutdown() {
  shutdown_.store(true, std::memory_order_release);
  queue_->Close();
  // Serialize the joins so concurrent Shutdown callers (e.g. an explicit
  // Shutdown racing the destructor) don't both join the same thread.
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

Result<ResponseHandle> RequestPipeline::Submit(TeamRequest request,
                                               const SubmitOptions& submit) {
  if (shutdown_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("pipeline is shut down");
  }
  submitted_->Increment();

  Item item;
  item.request = std::move(request);
  item.state = std::make_shared<ResponseHandle::State>();
  item.state->on_complete = submit.on_complete;
  item.token = submit.token;
  item.submitted_at = Clock::now();
  // 0 = pipeline default, negative = explicitly none.
  const double deadline_ms =
      submit.deadline_ms == 0.0 ? options_.default_deadline_ms : submit.deadline_ms;
  item.deadline =
      deadline_ms > 0.0
          ? item.submitted_at + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double, std::milli>(
                                        deadline_ms))
          : Clock::time_point::max();

  ResponseHandle handle;
  handle.state_ = item.state;
  if (!queue_->TryPush(std::move(item))) {
    shed_->Increment();
    return Status::ResourceExhausted(StrFormat(
        "admission queue at capacity (%zu); request shed",
        queue_->capacity()));
  }
  admitted_->Increment();
  queue_depth_->Add(1.0);
  // High-watermark, not exact under races — good enough to show the depth
  // stayed bounded by the capacity in a bench report.
  queue_depth_peak_->SetMax(queue_depth_->value());
  return handle;
}

void RequestPipeline::Complete(Item& item,
                               Result<std::vector<ScoredTeam>> result,
                               double queue_ms, double solve_ms,
                               EpochRef epoch) {
  const double e2e_ms = ToMillis(Clock::now() - item.submitted_at);
  e2e_us_->Record(static_cast<uint64_t>(e2e_ms * 1e3));
  std::function<void(const ResponseHandle&)> on_complete;
  {
    std::lock_guard<std::mutex> lock(item.state->mu);
    item.state->result = std::move(result);
    item.state->queue_ms = queue_ms;
    item.state->solve_ms = solve_ms;
    item.state->e2e_ms = e2e_ms;
    item.state->epoch = std::move(epoch);
    item.state->done = true;
    on_complete = std::move(item.state->on_complete);
    item.state->on_complete = nullptr;
  }
  item.state->cv.notify_all();
  if (on_complete) {
    ResponseHandle handle;
    handle.state_ = item.state;
    on_complete(handle);
  }
}

void RequestPipeline::WorkerLoop() {
  while (std::optional<Item> popped = queue_->Pop()) {
    Item& item = *popped;
    queue_depth_->Add(-1.0);
    const Clock::time_point dequeued_at = Clock::now();
    const double queue_ms = ToMillis(dequeued_at - item.submitted_at);
    queue_wait_us_->Record(ToMicros(dequeued_at - item.submitted_at));

    // Dead-on-arrival requests are dropped here, before any solve work:
    // under overload the queue wait alone can exceed the deadline, and
    // burning a solve on an answer nobody is waiting for only pushes every
    // later request further past its own deadline.
    if (item.token.cancelled()) {
      cancelled_->Increment();
      Complete(item, Status::Cancelled("request cancelled before dispatch"),
               queue_ms, 0.0);
      continue;
    }
    if (dequeued_at >= item.deadline) {
      expired_->Increment();
      Complete(item,
               Status::DeadlineExceeded(StrFormat(
                   "deadline passed after %.1f ms in queue", queue_ms)),
               queue_ms, 0.0);
      continue;
    }
    if (options_.pre_dispatch_hook) options_.pre_dispatch_hook(item.request);

    // TopK pins the service's current epoch for the whole solve: a
    // concurrent ApplyDelta swap never tears this request, and the handle
    // keeps the network it ran on alive until the answer has been rendered.
    Timer solve;
    EpochRef epoch;
    Result<std::vector<ScoredTeam>> teams =
        FaultInjection::MaybeFail("pipeline.dispatch").ok()
            ? service_.TopK(item.request, &epoch)
            : Result<std::vector<ScoredTeam>>(
                  Status::IOError("injected fault at pipeline.dispatch"));
    const double solve_ms = solve.ElapsedMillis();
    solve_us_->Record(static_cast<uint64_t>(solve_ms * 1e3));
    if (teams.ok()) {
      solved_->Increment();
    } else if (teams.status().IsInfeasible()) {
      infeasible_->Increment();
    } else {
      failed_->Increment();
    }
    Complete(item, std::move(teams), queue_ms, solve_ms, std::move(epoch));
  }
}

std::string RequestPipeline::MetricsJson() const {
  // Derived gauges are refreshed at snapshot time; the hot path never
  // touches them.
  const double elapsed = lifetime_.ElapsedSeconds();
  const uint64_t completed = solved_->value() + infeasible_->value() +
                             failed_->value() + expired_->value() +
                             cancelled_->value();
  metrics_->gauge("serve.qps")
      .Set(elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0);
  const OracleCache::Stats cache = service_.cache_stats();
  metrics_->gauge("cache.hits").Set(static_cast<double>(cache.hits));
  metrics_->gauge("cache.misses").Set(static_cast<double>(cache.misses));
  metrics_->gauge("cache.loads").Set(static_cast<double>(cache.loads));
  metrics_->gauge("cache.builds").Set(static_cast<double>(cache.builds));
  metrics_->gauge("cache.adoptions").Set(static_cast<double>(cache.adoptions));
  metrics_->gauge("cache.evictions").Set(static_cast<double>(cache.evictions));
  metrics_->gauge("cache.resident_bytes")
      .Set(static_cast<double>(cache.resident_bytes));
  // Health, retry, and fault-trip state ride along in the same dump: the
  // admin surface an operator scrapes must show DEGRADED and why without a
  // second endpoint.
  const HealthStats health = service_.health();
  metrics_->gauge("health.degraded")
      .Set(health.state == HealthState::kDegraded ? 1.0 : 0.0);
  metrics_->gauge("health.update_failures")
      .Set(static_cast<double>(health.update_failures));
  metrics_->gauge("health.persist_failures")
      .Set(static_cast<double>(health.persist_failures));
  metrics_->gauge("health.consecutive_failures")
      .Set(static_cast<double>(health.consecutive_failures));
  metrics_->gauge("health.degraded_transitions")
      .Set(static_cast<double>(health.degraded_transitions));
  metrics_->gauge("health.recoveries")
      .Set(static_cast<double>(health.recoveries));
  const RetryStats retry = GetRetryStats();
  metrics_->gauge("retry.attempts").Set(static_cast<double>(retry.attempts));
  metrics_->gauge("retry.retries").Set(static_cast<double>(retry.retries));
  metrics_->gauge("retry.exhausted").Set(static_cast<double>(retry.exhausted));
  metrics_->gauge("faults.total").Set(
      static_cast<double>(FaultInjection::total_trips()));
  for (const auto& [point, trips] : FaultInjection::TripCounts()) {
    metrics_->gauge("faults." + point).Set(static_cast<double>(trips));
  }
  return metrics_->ToJson();
}

}  // namespace teamdisc
