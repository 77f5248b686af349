// Async serving front-end over TeamDiscoveryService: submit → bounded
// admission queue → dispatch onto epoch-pinned workers → complete. This is
// the one path every /find request takes (HttpServer submits here), so it
// is also where the determinism contract is tested: answers are
// bit-identical at any worker count.
//
//    Submit(request) ──▶ admission queue (bounded) ──▶ dispatch workers ──▶
//      │ full? shed with ResourceExhausted             │ svc.TopK (pins the
//      ▼                                               │  serving epoch)
//    ResponseHandle ◀───────── complete ◀──────────────┘
//
// - Every request carries a deadline and a cancellation token. Expired or
//   cancelled requests are dropped at dequeue time — they never burn a
//   solve — and complete with DeadlineExceeded / Cancelled.
// - The queue is the backpressure point: once its depth reaches the
//   configured bound, Submit sheds the arrival with an explicit
//   ResourceExhausted instead of letting the backlog grow without bound and
//   collapse latency for every admitted request.
// - Workers solve through TeamDiscoveryService::TopK, which pins the
//   current epoch per request — an ApplyDelta swap mid-flight never tears a
//   request, and in-flight requests complete on the epoch they started on.
//   The handle carries that epoch, so the answer is rendered against the
//   network that produced it even if a swap lands before it is read.
// - Every stage feeds a MetricsRegistry (submitted/admitted/shed/expired/
//   cancelled/solved counters, live queue depth, queue-wait / solve / e2e
//   histograms), snapshotable as JSON (MetricsJson also folds in the
//   service's OracleCache counters) for admin dumps and bench reports.
//
// Counter invariants, once every admitted request has completed:
//   serve.submitted == serve.admitted + serve.shed
//   serve.admitted  == serve.solved + serve.infeasible + serve.failed
//                      + serve.expired + serve.cancelled
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "service/team_discovery_service.h"
#include "serving/async_queue.h"
#include "serving/metrics.h"

namespace teamdisc {

/// \brief Shared cancel flag; copies observe the same cancellation.
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}
  void Cancel() { flag_->store(true, std::memory_order_release); }
  bool cancelled() const { return flag_->load(std::memory_order_acquire); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// \brief Pipeline sizing and deadline knobs.
struct PipelineOptions {
  /// Admission-queue bound; arrivals beyond it are shed. 0 resolves
  /// TEAMDISC_SERVE_QUEUE_CAP from the environment, default 256.
  size_t queue_capacity = 0;
  /// Dispatch workers. 0 resolves TEAMDISC_SERVE_WORKERS (clamped through
  /// ThreadPool::ResolveThreadCount), default hardware concurrency.
  size_t workers = 0;
  /// Deadline applied to requests submitted without one, in milliseconds
  /// from submission. 0 resolves TEAMDISC_SERVE_DEADLINE_MS; <= 0 after
  /// resolution means "no deadline".
  double default_deadline_ms = 0.0;
  /// Test hook: runs on the dispatch worker after the deadline/cancel checks
  /// pass, immediately before the solve. Lets tests hold a request in
  /// flight (e.g. across an ApplyDelta epoch swap) or inject faults.
  std::function<void(const TeamRequest&)> pre_dispatch_hook;
};

class ResponseHandle;

/// \brief Per-request deadline/cancellation overrides.
struct SubmitOptions {
  /// Milliseconds from submission until the request expires. 0 = use the
  /// pipeline default; negative = explicitly no deadline.
  double deadline_ms = 0.0;
  CancellationToken token;
  /// Runs exactly once when the request completes (solved, infeasible,
  /// expired, cancelled, or failed), on the dispatch worker that completed
  /// it, after the handle's result is readable. This is how an event-loop
  /// front-end gets its response without parking a thread in Wait(): the
  /// callback must be cheap and non-blocking (hand off and return) — it
  /// runs on the serving hot path. Never invoked for shed requests (Submit
  /// already failed; no handle exists).
  std::function<void(const ResponseHandle&)> on_complete;
};

/// \brief Caller's handle on an admitted request.
///
/// Cheap to copy (shared state). Wait() blocks until the request completes:
/// solved teams, Infeasible, DeadlineExceeded, Cancelled, or a hard error.
class ResponseHandle {
 public:
  /// Blocks until completion; the result stays readable afterwards.
  const Result<std::vector<ScoredTeam>>& Wait() const;
  bool done() const;

  /// Timings, meaningful after Wait(): time spent queued, solving, and
  /// submit-to-completion (queue wait included).
  double queue_ms() const;
  double solve_ms() const;
  double e2e_ms() const;

  /// The epoch TopK pinned for the solve, meaningful after Wait(): render
  /// the answer's expert and skill ids against its network. Empty (null
  /// network) when the request never reached a solve — expired, cancelled.
  EpochRef epoch() const;

 private:
  friend class RequestPipeline;
  struct State;
  std::shared_ptr<State> state_;
};

/// \brief The async front-end. The service must outlive the pipeline.
class RequestPipeline {
 public:
  /// Resolves options (env fallbacks), starts the dispatch workers.
  /// `metrics` may be null, in which case the pipeline owns a registry.
  static Result<std::unique_ptr<RequestPipeline>> Start(
      const TeamDiscoveryService& service, PipelineOptions options,
      MetricsRegistry* metrics = nullptr);

  /// Shutdown(): stops admission, drains the queue, joins the workers.
  ~RequestPipeline();

  RequestPipeline(const RequestPipeline&) = delete;
  RequestPipeline& operator=(const RequestPipeline&) = delete;

  /// Admits the request or fails fast: ResourceExhausted when the queue is
  /// at capacity (the request is shed — it was never queued),
  /// FailedPrecondition after Shutdown. Never blocks.
  Result<ResponseHandle> Submit(TeamRequest request,
                                const SubmitOptions& submit = {});

  /// Stops admission, lets the workers drain every queued request (expired
  /// ones are still dropped unsolved), and joins them. Idempotent.
  void Shutdown();

  MetricsRegistry& metrics() { return *metrics_; }

  /// JSON snapshot of the registry, with derived serving gauges refreshed
  /// first: serve.qps (completions / lifetime), serve.queue_depth, and the
  /// service's OracleCache counters (cache.hits/misses/loads/builds/
  /// adoptions/evictions, cache.resident_bytes).
  std::string MetricsJson() const;

  size_t queue_capacity() const { return queue_->capacity(); }
  size_t workers() const { return workers_.size(); }

 private:
  using Clock = std::chrono::steady_clock;

  struct Item {
    TeamRequest request;
    std::shared_ptr<ResponseHandle::State> state;
    CancellationToken token;
    Clock::time_point submitted_at;
    Clock::time_point deadline;  ///< Clock::time_point::max() = none
  };

  RequestPipeline(const TeamDiscoveryService& service, MetricsRegistry* metrics);

  void WorkerLoop();
  void Complete(Item& item, Result<std::vector<ScoredTeam>> result,
                double queue_ms, double solve_ms, EpochRef epoch = {});

  const TeamDiscoveryService& service_;
  PipelineOptions options_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<BoundedQueue<Item>> queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> shutdown_{false};
  std::mutex shutdown_mu_;  ///< serializes worker joins
  Timer lifetime_;

  // Hot-path instruments, resolved once at Start so Submit/workers never
  // take the registry lock.
  Counter* submitted_ = nullptr;
  Counter* admitted_ = nullptr;
  Counter* shed_ = nullptr;
  Counter* expired_ = nullptr;
  Counter* cancelled_ = nullptr;
  Counter* solved_ = nullptr;
  Counter* infeasible_ = nullptr;
  Counter* failed_ = nullptr;
  Gauge* queue_depth_ = nullptr;
  Gauge* queue_depth_peak_ = nullptr;  ///< high-watermark of queue_depth_
  Histogram* queue_wait_us_ = nullptr;
  Histogram* solve_us_ = nullptr;
  Histogram* e2e_us_ = nullptr;
};

}  // namespace teamdisc
