#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>

#include "net/http_client.h"
#include "perfbench.h"

namespace perfbench {
namespace {

/// Process CPU time (user + system), in milliseconds.
double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

constexpr size_t kMaxFailureMessages = 5;

/// Answers served after a swap cannot be compared with the initial
/// generation's; they must instead agree with every other answer to the
/// same request at the same generation.
class LaterGenerations {
 public:
  /// Returns an error when `canonical` disagrees with an earlier answer.
  std::string Check(uint64_t generation, size_t index,
                    const std::string& canonical) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = seen_.try_emplace({generation, index}, canonical);
    if (inserted || it->second == canonical) return "";
    return "generation " + std::to_string(generation) +
           " answered one request two ways: " + it->second + " vs " +
           canonical;
  }

 private:
  std::mutex mu_;
  std::map<std::pair<uint64_t, size_t>, std::string> seen_;
};

struct ClientState {
  explicit ClientState(Clock::time_point origin) : result(origin) {}
  WindowResult result;
};

}  // namespace

WindowResult RunWindow(uint16_t port, const WindowPlan& plan,
                       Clock::time_point origin) {
  const std::vector<FindRequest>& pool = *plan.pool;
  const bool open_loop = plan.open_rate > 0.0;
  std::atomic<uint64_t> next_seq{0};
  LaterGenerations later;

  std::vector<std::unique_ptr<ClientState>> clients;
  for (size_t c = 0; c < plan.connections; ++c) {
    clients.push_back(std::make_unique<ClientState>(origin));
  }
  // Connect before the clock starts; a connection that fails here fails
  // every request it would have sent, as one failure each below.
  std::vector<teamdisc::Result<teamdisc::HttpClient>> conns;
  for (size_t c = 0; c < plan.connections; ++c) {
    conns.push_back(teamdisc::HttpClient::Connect("127.0.0.1", port));
  }

  const double cpu_start = ProcessCpuMs();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(plan.seconds));
  auto due_of = [&](uint64_t seq) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(seq) / plan.open_rate));
  };

  auto client_loop = [&](size_t c) {
    WindowResult& out = clients[c]->result;
    auto& conn = conns[c];
    Clock::time_point previous_reply = start;
    while (true) {
      const uint64_t seq = next_seq++;
      Clock::time_point due;
      if (open_loop) {
        due = due_of(seq);
        if (due >= end) break;
        std::this_thread::sleep_until(due);
      } else if (Clock::now() >= end) {
        break;
      }
      const Clock::time_point sent = Clock::now();
      if (!open_loop) due = sent;
      const size_t index = seq % pool.size();
      ++out.attempted;
      std::string error;
      Answer answer;
      size_t bytes = 0;
      if (!conn.ok()) {
        error = "connect: " + conn.status().ToString();
      } else {
        auto response = conn->Get(pool[index].target);
        if (!response.ok()) {
          error = "transport: " + response.status().ToString();
          (void)conn->Reconnect();
        } else {
          bytes = response->body.size();
          if (response->status == 503) ++out.shed;
          if (response->status >= 500 && response->status != 503) {
            ++out.server_errors;
          }
          error = CheckAnswer(pool[index], response->status, response->body,
                              &answer);
        }
      }
      const Clock::time_point received = Clock::now();
      if (error.empty()) {
        // Reweights never change connectivity, so an infeasible request
        // stays infeasible in every generation.
        if (answer.canonical == "infeasible" ||
            answer.generation == plan.initial_generation) {
          if (answer.canonical != (*plan.expected)[index]) {
            error = "answer differs from the warm-up answer: " +
                    answer.canonical + " vs " + (*plan.expected)[index];
          }
        } else {
          error = later.Check(answer.generation, index, answer.canonical);
        }
      }
      if (!error.empty()) {
        ++out.failed;
        if (out.failures.size() < kMaxFailureMessages) {
          out.failures.push_back(pool[index].target + ": " + error);
        }
        previous_reply = received;
        continue;
      }
      WireSample sample;
      sample.latency_ms = MsBetween(due, received);
      sample.service_ms = MsBetween(sent, received);
      sample.late_ms = open_loop ? MsBetween(due, sent)
                                 : MsBetween(previous_reply, sent);
      sample.queue_ms = answer.queue_ms;
      sample.solve_ms = answer.solve_ms;
      sample.bytes = bytes;
      out.samples.push_back(sample);
      previous_reply = received;
      if (plan.traced) {
        // The server's own timings become the client span's children: the
        // queue wait first, then the solve, both from the send instant.
        const int64_t find = out.trace.Add("net.find", sent, received, -1, seq + 1);
        const double at = out.trace.Ms(sent);
        out.trace.AddMs("serving.queue", at, at + answer.queue_ms, find, seq + 1);
        out.trace.AddMs("serving.solve", at + answer.queue_ms,
                        at + answer.queue_ms + answer.solve_ms, find, seq + 1);
      }
    }
  };

  WindowResult result(origin);
  std::thread churn;
  if (plan.churn != nullptr) {
    // Short windows (the self-test's) still get a swap.
    const double offset = std::min(kSwapOffsetS, plan.seconds / 4);
    churn = std::thread([&, offset] {
      for (size_t k = 0;; ++k) {
        const Clock::time_point at =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(offset + kSwapPeriodS * k));
        if (at >= end || *plan.next_delta >= plan.deltas->size()) break;
        std::this_thread::sleep_until(at);
        const Clock::time_point t0 = Clock::now();
        auto report = plan.churn->ApplyDelta((*plan.deltas)[(*plan.next_delta)++]);
        const Clock::time_point t1 = Clock::now();
        SwapRecord swap;
        swap.wall_ms = MsBetween(t0, t1);
        swap.ok = report.ok();
        if (report.ok()) {
          swap.rebuilt = report->entries_rebuilt;
          swap.adopted = report->entries_adopted;
        } else {
          result.failures.push_back("ApplyDelta: " + report.status().ToString());
        }
        result.swaps.push_back(swap);
        if (plan.traced) result.trace.Add("service.ApplyDelta", t0, t1);
      }
    });
  }

  std::vector<std::thread> threads;
  for (size_t c = 0; c < plan.connections; ++c) {
    threads.emplace_back(client_loop, c);
  }
  for (std::thread& t : threads) t.join();
  const Clock::time_point reads_done = Clock::now();
  if (churn.joinable()) churn.join();
  result.cpu_ms = ProcessCpuMs() - cpu_start;
  result.elapsed_s = std::chrono::duration<double>(reads_done - start).count();

  for (auto& client : clients) {
    WindowResult& part = client->result;
    result.samples.insert(result.samples.end(), part.samples.begin(),
                          part.samples.end());
    result.attempted += part.attempted;
    result.failed += part.failed;
    result.shed += part.shed;
    result.server_errors += part.server_errors;
    for (std::string& f : part.failures) {
      if (result.failures.size() < kMaxFailureMessages) {
        result.failures.push_back(std::move(f));
      }
    }
    result.trace.Append(part.trace);
  }
  for (const SwapRecord& swap : result.swaps) {
    ++result.attempted;
    if (!swap.ok) ++result.failed;
  }
  return result;
}

}  // namespace perfbench
