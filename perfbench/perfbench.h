// Shared declarations of the /find benchmark program. README.md in this
// directory describes the workloads, the metrics and how to read a trace.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/team_finder.h"
#include "net/http_server.h"
#include "network/expert_network.h"
#include "network/network_delta.h"
#include "service/team_discovery_service.h"
#include "serving/request_pipeline.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ---- json.cc: reader for /find responses, writer helpers ----

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// String value, or a number's literal text (kept so printed objectives
  /// compare digit for digit).
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  const Json* Find(std::string_view key) const;
};

std::optional<Json> ParseJson(std::string_view text);
std::string JsonQuote(std::string_view s);
/// Every digit of `v` (round-trips through strtod).
std::string JsonNumber(double v);

// ---- stats.cc ----

/// Nearest-rank percentile, q in (0, 1]. 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// A reported tail: never a percentile with fewer than kMinTailBeyond
/// samples ranked above it.
inline constexpr size_t kMinTailBeyond = 10;
struct Tail {
  double q = 0.0;
  double value = 0.0;
  size_t beyond = 0;  ///< samples ranked above the percentile
};
/// The highest of p99 and p90 that is not above `preferred` and leaves at
/// least kMinTailBeyond samples beyond it; nullopt when neither does.
std::optional<Tail> TailPercentile(std::vector<double> values, double preferred);

/// Σ|C(s)| buckets of the core.sweep_ms metrics.
inline constexpr const char* kHolderBuckets[] = {"h0-32", "h33-128", "h129-512",
                                                 "h513plus"};
size_t HolderBucket(uint64_t holders);

uint64_t Fnv1a(uint64_t hash, std::string_view bytes);
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

// ---- workloads.cc: inputs, all derived from the corpus and the seed ----

/// SplitMix64: the benchmark's own generator, so a change to the library's
/// RNG never changes the benchmark's inputs.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

/// Skills by holder count |C(s)|, ascending skill id.
struct SkillPools {
  std::vector<teamdisc::SkillId> light;  ///< 1..kLightMaxHolders holders
  std::vector<teamdisc::SkillId> heavy;  ///< >= kHeavyMinHolders holders
};
inline constexpr size_t kLightMaxHolders = 40;
inline constexpr size_t kHeavyMinHolders = 100;
SkillPools MakeSkillPools(const teamdisc::ExpertNetwork& net);

/// One /find request, ready for the wire.
struct FindRequest {
  std::vector<std::string> skills;  ///< names, in request order
  double gamma = 0.0;
  uint64_t holders = 0;             ///< Σ|C(s)|
  std::string target;               ///< "/find?skills=..."
};

/// The snapshot's transform gammas; requests cycle over them.
inline constexpr double kGammas[] = {0.25, 0.5, 0.75};
inline constexpr double kLambda = 0.6;

/// Builds the wire target for `skills` at `gamma`.
FindRequest MakeRequest(const teamdisc::ExpertNetwork& net,
                        const std::vector<teamdisc::SkillId>& skills,
                        double gamma);

/// `count` requests of 3 distinct light skills drawn by `seed`.
std::vector<FindRequest> MakeLightRequests(const teamdisc::ExpertNetwork& net,
                                           const SkillPools& pools,
                                           size_t count, uint64_t seed);

/// `cycles` blocks of heavy.size() * 3 requests: one heavy skill plus two
/// seeded light skills each. Within a block every (heavy skill, position)
/// pair appears exactly once.
std::vector<FindRequest> MakeHeavyRequests(const teamdisc::ExpertNetwork& net,
                                           const SkillPools& pools,
                                           size_t cycles, uint64_t seed);

/// `count` single-edge reweight deltas drawn by `seed`; delta k is valid
/// against the network its predecessors produce.
std::vector<teamdisc::ExpertNetworkDelta> MakeReweightDeltas(
    const teamdisc::ExpertNetwork& net, size_t count, uint64_t seed);

// ---- harness.cc: the service behind RequestPipeline and HttpServer, the
// warm-up sends and the answer checks ----

/// What a checked /find answer must repeat: the team (objective as printed,
/// members, assignments) or "infeasible".
struct Answer {
  std::string canonical;
  uint64_t generation = 0;
  double queue_ms = 0.0;
  double solve_ms = 0.0;
};

/// Checks one /find response: a 200 whose status is ok or infeasible, and
/// every requested skill assigned to an expert listed in members. Returns
/// an empty string when it passes, else what failed.
std::string CheckAnswer(const FindRequest& request, int http_status,
                        const std::string& body, Answer* answer);

/// The canonical text of a team solved in-process, comparable with
/// Answer::canonical.
std::string CanonicalTeam(const teamdisc::ExpertNetwork& net,
                          const teamdisc::ScoredTeam& team);

/// A service serving /find on an ephemeral loopback port: RequestPipeline
/// with pinned workers, HttpServer with its event loop on a thread.
class Server {
 public:
  static std::unique_ptr<Server> Start(
      const teamdisc::TeamDiscoveryService& service, std::string* error);
  /// Drains the server, joins its loop and shuts the pipeline down.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  uint16_t port() const { return http_->port(); }

 private:
  Server() = default;

  std::unique_ptr<teamdisc::RequestPipeline> pipeline_;
  std::unique_ptr<teamdisc::HttpServer> http_;
  std::thread loop_;
};

inline constexpr size_t kPipelineWorkers = 2;
inline constexpr size_t kQueueCapacity = 256;

/// One raw exchange.
struct Reply {
  bool transport_ok = false;
  int status = 0;
  std::string body;
  std::string error;
};

/// Sends every target once over `connections` keep-alive connections and
/// returns the replies in target order.
std::vector<Reply> SendAll(uint16_t port, const std::vector<std::string>& targets,
                           size_t connections);

// ---- trace.cc: in-memory spans, written out at exit ----

struct Span {
  std::string name;  ///< "<module>.<call>"
  double start_ms = 0.0;
  double end_ms = 0.0;
  int64_t parent = -1;  ///< index into the span list; -1 for a root
  uint64_t request = 0;
};

class Trace {
 public:
  explicit Trace(Clock::time_point origin) : origin_(origin) {}

  /// Returns the span's index, for use as a parent.
  int64_t Add(std::string name, Clock::time_point start, Clock::time_point end,
              int64_t parent = -1, uint64_t request = 0);
  int64_t AddMs(std::string name, double start_ms, double end_ms,
                int64_t parent = -1, uint64_t request = 0);
  void SetEnd(int64_t span, Clock::time_point end) {
    spans_[static_cast<size_t>(span)].end_ms = Ms(end);
  }
  void Append(const Trace& other);

  const std::vector<Span>& spans() const { return spans_; }
  double Ms(Clock::time_point t) const { return MsBetween(origin_, t); }

  /// Per module: span count, total time and self time (a span's duration
  /// minus what its children cover).
  std::string SelfTimeTable() const;
  /// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---- window.cc: one timed measurement window, closed or open loop ----

struct WireSample {
  double latency_ms = 0.0;  ///< closed loop: send to reply; open: due to reply
  double service_ms = 0.0;  ///< send to reply
  /// Open loop: send - due. Closed loop: the gap since this connection's
  /// previous reply (the generator's own time between requests).
  double late_ms = 0.0;
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  size_t bytes = 0;
};

struct SwapRecord {
  double wall_ms = 0.0;
  bool ok = false;
  size_t rebuilt = 0;
  size_t adopted = 0;
};

struct WindowPlan {
  const std::vector<FindRequest>* pool = nullptr;
  /// Canonical answers at initial_generation, aligned with *pool.
  const std::vector<std::string>* expected = nullptr;
  uint64_t initial_generation = 0;
  size_t connections = 2;
  double seconds = 1.0;
  /// > 0: open loop at this many requests per second; else closed loop.
  double open_rate = 0.0;
  bool traced = false;
  /// Non-null: apply (*deltas)[*next_delta...] through ApplyDelta, one every
  /// kSwapPeriodS, while the reads run. One swap every 2 s, not back to back,
  /// keeps most reads off the rebuild and the read p50 steady.
  teamdisc::TeamDiscoveryService* churn = nullptr;
  const std::vector<teamdisc::ExpertNetworkDelta>* deltas = nullptr;
  size_t* next_delta = nullptr;
};

inline constexpr double kSwapPeriodS = 2.0;
inline constexpr double kSwapOffsetS = 0.5;

struct WindowResult {
  explicit WindowResult(Clock::time_point origin) : trace(origin) {}

  std::vector<WireSample> samples;  ///< answered requests that passed checks
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;           ///< 503 replies
  uint64_t server_errors = 0;  ///< other 5xx replies
  double elapsed_s = 0.0;
  double cpu_ms = 0.0;  ///< process user + system time over the window
  std::vector<SwapRecord> swaps;
  std::vector<std::string> failures;  ///< the first few failure messages
  Trace trace;
};

WindowResult RunWindow(uint16_t port, const WindowPlan& plan,
                       Clock::time_point origin);

}  // namespace perfbench
