// The /find benchmark program. Subcommands:
//
//   prepare  --out DIR
//       Generates the ci corpus and writes a serving snapshot into DIR.
//   run      --snapshot DIR --workload W --seed N --seconds S --trace 0|1
//            [--expect-digest HEX] [--trace-out FILE] [--record FILE]
//       Measures one workload; the last stdout line is the result JSON.
//   self-test [--benchmark-json FILE]
//       Runs every workload on a tiny corpus and checks the metric set, the
//       failure accounting and the tail rule.
//
// run.py builds this binary, prepares the snapshot once per build and
// invokes `run`; README.md documents the workloads and metrics.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <span>

#include "core/greedy_team_finder.h"
#include "datagen/synthetic_dblp.h"
#include "eval/oracle_cache.h"
#include "graph/graph.h"
#include "network/authority_transform.h"
#include "network/network_io.h"
#include "perfbench.h"
#include "service/snapshot.h"
#include "shortest_path/pruned_landmark_labeling.h"

extern char** environ;

namespace perfbench {
namespace {

using teamdisc::ExpertNetwork;
using teamdisc::ExpertNetworkDelta;
using teamdisc::NodeId;
using teamdisc::PrunedLandmarkLabeling;
using teamdisc::TeamDiscoveryService;

// ---------------------------------------------------------------- settings

struct Corpus {
  uint32_t experts;
  uint32_t edges;
  uint64_t seed;
};
/// The ci corpus the figures in README.md were measured on.
constexpr Corpus kCiCorpus{4000, 12000, 42};
/// The self-test's corpus: small enough to run every workload in seconds.
constexpr Corpus kTinyCorpus{400, 1200, 7};

/// PLL build threads for the snapshot and for every rebuild ApplyDelta
/// runs. The index shape depends on it (4 threads: +16% label entries).
constexpr size_t kBuildThreads = 1;
/// Open-to-resident cycles per run; setup_s is their median.
constexpr int kSetupCycles = 7;
/// live_churn's offered read rate, about a third of light_http's capacity.
constexpr double kChurnRate = 300.0;
constexpr size_t kLightPoolSize = 600;
constexpr size_t kHeavyCycles = 10;
/// Requests re-solved in-process per run.
constexpr size_t kCheckSample = 24;
/// Closed-loop workloads measure swap_ms on an idle server after the window.
constexpr size_t kIdleSwaps = 5;
/// Minimum requests per Σ|C(s)| bucket in the traced sweep replay.
constexpr size_t kBucketProbes = 5;

struct Workload {
  const char* name;
  bool heavy;          ///< heavy_holders request mix (else light draws)
  bool churn;          ///< open loop with reweight swaps
  size_t connections;
  double tail_q;       ///< find_tail_ms percentile, fixed per workload
  size_t replay;       ///< traced replay sample
};
// heavy_holders fixes p90: at ~90 req/s a 20 s run leaves ~20 samples beyond
// p99, so a 2x slowdown would already push p99 under the 10-sample rule.
constexpr Workload kWorkloads[] = {
    {"light_http", false, false, 2, 0.99, 60},
    {"heavy_holders", true, false, 2, 0.90, 21},
    {"live_churn", false, true, 4, 0.99, 60},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};
constexpr MetricSpec kEndToEnd[] = {
    {"find_qps", "req/s"}, {"find_p50_ms", "ms"}, {"find_tail_ms", "ms"},
    {"find_cpu_ms", "ms"}, {"swap_ms", "ms"},     {"setup_s", "s"},
    {"rss_mb", "MiB"},
};
constexpr MetricSpec kPerLayer[] = {
    {"net.wire_ms", "ms"},
    {"net.response_bytes", "bytes"},
    {"serving.queue_ms", "ms"},
    {"serving.queue_tail_ms", "ms"},
    {"serving.solve_ms", "ms"},
    {"serving.shed", "count"},
    {"serving.failed", "count"},
    {"service.topk_ms", "ms"},
    {"service.overhead_us", "us"},
    {"service.swap_rebuilt", "count"},
    {"service.swap_adopted", "count"},
    {"eval.index_load_ms", "ms"},
    {"eval.cache_get_us", "us"},
    {"core.sweep_ms.h0-32", "ms"},
    {"core.sweep_ms.h33-128", "ms"},
    {"core.sweep_ms.h129-512", "ms"},
    {"core.sweep_ms.h513plus", "ms"},
    {"core.holders", "count"},
    {"core.oracle_calls", "count"},
    {"core.entries_touched", "count"},
    {"shortest_path.ns_per_entry", "ns"},
    {"shortest_path.ns_per_target", "ns"},
    {"shortest_path.scatter_share", "ratio"},
    {"shortest_path.label_entries", "count"},
    {"shortest_path.build_ms", "ms"},
    {"shortest_path.path_us", "us"},
    {"network.apply_delta_ms", "ms"},
    {"network.transform_ms", "ms"},
    {"graph.fingerprint_ms", "ms"},
    {"loadgen.late_ms", "ms"},
    {"loadgen.trace_overhead", "ratio"},
};

const char* UnitOf(std::string_view name) {
  for (const MetricSpec& m : kEndToEnd) {
    if (name == m.name) return m.unit;
  }
  for (const MetricSpec& m : kPerLayer) {
    if (name == m.name) return m.unit;
  }
  return nullptr;
}

// ------------------------------------------------------------------ output

struct RunOptions {
  std::string snapshot_dir;
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string expect_digest;  ///< empty: not checked
  std::string trace_out;      ///< Chrome trace file (trace runs)
  // Self-test hooks: each must cost exactly one failed operation.
  bool inject_unknown_skill = false;
  bool inject_mismatch = false;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> problems;  ///< why correct is false
  std::string digest;

  void Put(const std::string& name, double value) {
    if (UnitOf(name) == nullptr) {
      std::fprintf(stderr, "perfbench: metric %s has no spec\n", name.c_str());
      std::abort();
    }
    metrics.emplace_back(name, value);
  }
  void Fail(std::string why) {
    ++failed;
    Problem(std::move(why));
  }
  void Problem(std::string why) {
    correct = false;
    if (problems.size() < 20) problems.push_back(std::move(why));
  }
  std::string ToJson() const {
    std::string out = std::string("{\"correct\": ") +
                      (correct && failed == 0 ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      out += (i ? ", " : "") + JsonQuote(metrics[i].first) +
             ": {\"value\": " + JsonNumber(metrics[i].second) +
             ", \"unit\": " + JsonQuote(UnitOf(metrics[i].first)) + "}";
    }
    return out + "}}";
  }
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Peak resident set (VmHWM) of this process, in MiB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string HostRecord(const RunOptions& options) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"cpu\": %s, \"kernel\": %s, "
                "\"build_type\": %s, \"build_threads\": %zu, "
                "\"pipeline_workers\": %zu, \"connections\": %zu, "
                "\"corpus_seed\": %llu, \"seed\": %llu}",
                std::thread::hardware_concurrency(),
                JsonQuote(CpuModel()).c_str(),
                JsonQuote(teamdisc::SelectedLabelKernels().name).c_str(),
                JsonQuote(PERFBENCH_BUILD_TYPE).c_str(), kBuildThreads,
                kPipelineWorkers, options.workload->connections,
                static_cast<unsigned long long>(kCiCorpus.seed),
                static_cast<unsigned long long>(options.seed));
  return buf;
}

// ---------------------------------------------------------------- in-process

/// Solves `request` with GreedyTeamFinder::MakeWithExternalOracle +
/// FindTeams, with the options the service derives from a /find request,
/// and returns the canonical answer, or an error prefixed "error:".
std::string Solve(const ExpertNetwork& net, const teamdisc::DistanceOracle& oracle,
                  const FindRequest& request) {
  auto project = teamdisc::MakeProject(net, request.skills);
  if (!project.ok()) return "error: " + project.status().ToString();
  teamdisc::FinderOptions options;
  options.strategy = teamdisc::RankingStrategy::kSACACC;
  options.params.gamma = request.gamma;
  options.params.lambda = kLambda;
  options.top_k = 1;
  options.num_threads = 1;
  auto finder =
      teamdisc::GreedyTeamFinder::MakeWithExternalOracle(net, options, oracle);
  if (!finder.ok()) return "error: " + finder.status().ToString();
  auto teams = (*finder)->FindTeams(*project);
  if (!teams.ok()) {
    return teams.status().IsInfeasible() ? "infeasible"
                                         : "error: " + teams.status().ToString();
  }
  if (teams->empty()) return "error: no team";
  return CanonicalTeam(net, teams->front());
}

const PrunedLandmarkLabeling* AsPll(const teamdisc::DistanceOracle& oracle) {
  return dynamic_cast<const PrunedLandmarkLabeling*>(&oracle);
}

/// Forwards to a PLL index and counts what the sweep asks of it: calls,
/// targets and label entries touched, the DistancesInto calls themselves
/// (for a timed replay) and the time spent in ShortestPath.
class CountingOracle final : public teamdisc::DistanceOracle {
 public:
  struct Call {
    NodeId source;
    std::span<const NodeId> targets;
  };

  explicit CountingOracle(const PrunedLandmarkLabeling& pll) : pll_(pll) {}

  double Distance(NodeId u, NodeId v) const override {
    ++calls;
    entries += pll_.LabelEntriesForNode(u) + pll_.LabelEntriesForNode(v);
    return pll_.Distance(u, v);
  }
  teamdisc::Result<std::vector<NodeId>> ShortestPath(NodeId u,
                                                     NodeId v) const override {
    const Clock::time_point t0 = Clock::now();
    auto path = pll_.ShortestPath(u, v);
    path_ms += MsBetween(t0, Clock::now());
    return path;
  }
  void DistancesInto(NodeId source, std::span<const NodeId> targets,
                     std::vector<double>& out) const override {
    ++calls;
    // PLL scatters the source label into a rank-indexed array and resets it
    // afterwards, then scans each target's label once.
    const uint64_t root = 2 * pll_.LabelEntriesForNode(source);
    scatter_entries += root;
    entries += root;
    for (const NodeId t : targets) {
      if (t != source) entries += pll_.LabelEntriesForNode(t);
    }
    this->targets += targets.size();
    log.push_back({source, targets});
    pll_.DistancesInto(source, targets, out);
  }
  size_t MemoryBytes() const override { return pll_.MemoryBytes(); }
  std::string name() const override { return "perfbench_counting"; }
  const teamdisc::Graph& graph() const override { return pll_.graph(); }

  mutable uint64_t calls = 0;
  mutable uint64_t targets = 0;
  mutable uint64_t entries = 0;
  mutable uint64_t scatter_entries = 0;
  mutable double path_ms = 0.0;
  mutable std::vector<Call> log;

 private:
  const PrunedLandmarkLabeling& pll_;
};

/// Times `fn` twice and keeps the faster run, in milliseconds.
template <typename Fn>
double FastestMs(Fn&& fn) {
  double best = 0.0;
  for (int i = 0; i < 2; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const double ms = MsBetween(t0, Clock::now());
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

std::vector<size_t> SampleIndexes(size_t pool, size_t count, uint64_t seed) {
  SplitMix rng(seed);
  std::vector<size_t> out;
  std::set<size_t> seen;
  while (out.size() < std::min(count, pool)) {
    const size_t i = rng.Below(pool);
    if (seen.insert(i).second) out.push_back(i);
  }
  return out;
}

// ------------------------------------------------------------------- the run

/// Opens the service and makes every index the workloads query resident,
/// through a one-skill TopK per gamma. Null (and `error` set) on failure.
std::unique_ptr<TeamDiscoveryService> OpenResident(
    const teamdisc::ServiceOptions& options, const std::string& warm_skill,
    std::string* error) {
  auto opened = TeamDiscoveryService::Open(options);
  if (!opened.ok()) {
    *error = "Open: " + opened.status().ToString();
    return nullptr;
  }
  teamdisc::TeamRequest warm;
  warm.skills = {warm_skill};
  warm.strategy = teamdisc::RankingStrategy::kSACACC;
  warm.lambda = kLambda;
  for (const double gamma : kGammas) {
    warm.gamma = gamma;
    auto teams = (*opened)->TopK(warm);
    if (!teams.ok() && !teams.status().IsInfeasible()) {
      *error = "warm TopK: " + teams.status().ToString();
      return nullptr;
    }
  }
  return std::move(opened).ValueOrDie();
}

/// Times kSetupCycles OpenResident calls in a child process. Repeated
/// open/close cycles leave the allocator's heap fragmented by a different
/// amount on every run (16 MiB of spread in peak RSS between seeds), so they
/// stay out of the process whose rss_mb is reported.
std::vector<double> TimeSetupCycles(const teamdisc::ServiceOptions& options,
                                    const std::string& warm_skill,
                                    std::string* error) {
  int fds[2];
  if (pipe(fds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return {};
  }
  std::fflush(nullptr);
  const pid_t child = fork();
  if (child < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return {};
  }
  if (child == 0) {
    close(fds[0]);
    for (int cycle = 0; cycle < kSetupCycles; ++cycle) {
      std::string ignored;
      const Clock::time_point t0 = Clock::now();
      double seconds = -1.0;  // a failed cycle
      if (OpenResident(options, warm_skill, &ignored) != nullptr) {
        seconds = std::chrono::duration<double>(Clock::now() - t0).count();
      }
      if (write(fds[1], &seconds, sizeof(seconds)) != sizeof(seconds)) _exit(1);
    }
    _exit(0);
  }
  close(fds[1]);
  std::vector<double> cycles;
  double seconds = 0.0;
  while (read(fds[0], &seconds, sizeof(seconds)) == sizeof(seconds)) {
    cycles.push_back(seconds);
  }
  close(fds[0]);
  int status = 0;
  waitpid(child, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      cycles.size() != static_cast<size_t>(kSetupCycles) ||
      std::any_of(cycles.begin(), cycles.end(), [](double c) { return c < 0; })) {
    *error = "setup cycles failed";
  }
  return cycles;
}


/// What the phases of one run share.
struct RunContext {
  const RunOptions& options;
  const Workload& workload;
  const ExpertNetwork& net;  ///< the benchmark's own copy of the corpus
  const SkillPools& pools;
  const std::vector<FindRequest>& pool;
  RunResult& result;
};

void PrintInputs(const RunContext& ctx) {
  const ExpertNetwork& net = ctx.net;
  size_t light_max = 0, heavy_min = SIZE_MAX, heavy_max = 0;
  for (const auto s : ctx.pools.light) {
    light_max = std::max(light_max, net.ExpertsWithSkill(s).size());
  }
  for (const auto s : ctx.pools.heavy) {
    heavy_min = std::min(heavy_min, net.ExpertsWithSkill(s).size());
    heavy_max = std::max(heavy_max, net.ExpertsWithSkill(s).size());
  }
  size_t histogram[4] = {0, 0, 0, 0};
  for (const FindRequest& r : ctx.pool) ++histogram[HolderBucket(r.holders)];
  std::printf(
      "corpus: %u experts, %u skills; light pool %zu skills (<= %zu holders), "
      "heavy pool %zu skills (%zu..%zu holders)\n",
      net.num_experts(), net.num_skills(), ctx.pools.light.size(), light_max,
      ctx.pools.heavy.size(), heavy_min, heavy_max);
  std::printf("request pool: %zu requests; sum|C(s)| histogram:", ctx.pool.size());
  for (size_t b = 0; b < 4; ++b) std::printf(" %s=%zu", kHolderBuckets[b], histogram[b]);
  std::printf("\n");
}

/// Sends every pool request once. The answers are what every later answer
/// to the same request must repeat; their digest is what the default seed
/// must reproduce.
std::vector<std::string> WarmUp(RunContext& ctx, uint16_t port) {
  std::vector<std::string> targets;
  for (const FindRequest& r : ctx.pool) targets.push_back(r.target);
  if (ctx.options.inject_unknown_skill) {
    targets.push_back(
        "/find?skills=perfbench-no-such-skill&strategy=sacacc&gamma=0.25"
        "&lambda=0.6&top_k=1");
  }
  const std::vector<Reply> replies =
      SendAll(port, targets, ctx.workload.connections);
  std::vector<std::string> expected(ctx.pool.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    ++ctx.result.attempted;
    const Reply& reply = replies[i];
    Answer answer;
    std::string error;
    if (!reply.transport_ok) {
      error = "transport: " + reply.error;
    } else if (i < ctx.pool.size()) {
      error = CheckAnswer(ctx.pool[i], reply.status, reply.body, &answer);
    } else {
      error = "HTTP " + std::to_string(reply.status) + ": " + reply.body;
    }
    if (!error.empty()) {
      ctx.result.Fail("warm-up " + targets[i] + ": " + error);
      continue;
    }
    expected[i] = answer.canonical;
  }
  uint64_t digest = kFnvOffset;
  for (const std::string& canonical : expected) {
    digest = Fnv1a(digest, canonical + "\n");
  }
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(digest));
  ctx.result.digest = hex;
  if (!ctx.options.expect_digest.empty() && ctx.options.expect_digest != hex) {
    ctx.result.Fail("answer digest " + ctx.result.digest + " != expected " +
                    ctx.options.expect_digest);
  }
  return expected;
}

/// Compares the answers served at the final generation with a cold rebuild:
/// the successful deltas replayed with ApplyNetworkDelta, then a fresh
/// transform and PLL index per gamma.
void CheckColdRebuild(RunContext& ctx,
                      const std::vector<ExpertNetworkDelta>& deltas,
                      const std::vector<SwapRecord>& swaps,
                      uint64_t initial_generation, uint64_t final_generation,
                      const std::vector<size_t>& check,
                      const std::vector<Reply>& replies) {
  std::unique_ptr<ExpertNetwork> replayed;
  const ExpertNetwork* final_net = &ctx.net;
  size_t applied = 0;
  for (size_t k = 0; k < swaps.size(); ++k) {
    if (!swaps[k].ok) continue;
    auto next = teamdisc::ApplyNetworkDelta(*final_net, deltas[k]);
    if (!next.ok()) {
      ctx.result.Problem("replaying delta: " + next.status().ToString());
      return;
    }
    replayed = std::make_unique<ExpertNetwork>(std::move(next).ValueOrDie());
    final_net = replayed.get();
    ++applied;
  }
  if (final_generation != initial_generation + applied) {
    ctx.result.Fail("final generation " + std::to_string(final_generation) +
                    " after " + std::to_string(applied) + " swaps from " +
                    std::to_string(initial_generation));
  }
  struct Index {
    teamdisc::TransformedGraph transform;
    std::unique_ptr<PrunedLandmarkLabeling> pll;
  };
  std::map<double, Index> rebuilt;  // node-stable: pll points into transform
  for (size_t k = 0; k < check.size(); ++k) {
    ++ctx.result.attempted;
    const FindRequest& request = ctx.pool[check[k]];
    const Reply& reply = replies[k];
    Answer answer;
    std::string error = reply.transport_ok
                            ? CheckAnswer(request, reply.status, reply.body, &answer)
                            : "transport: " + reply.error;
    if (error.empty() && answer.canonical != "infeasible" &&
        answer.generation != final_generation) {
      error = "served at generation " + std::to_string(answer.generation);
    }
    if (error.empty() && rebuilt.count(request.gamma) == 0) {
      auto transform = teamdisc::BuildAuthorityTransform(*final_net, request.gamma);
      if (!transform.ok()) {
        ctx.result.Problem("transform: " + transform.status().ToString());
        return;
      }
      Index& index = rebuilt[request.gamma];
      index.transform = std::move(transform).ValueOrDie();
      teamdisc::PllBuildOptions build;
      build.num_threads = kBuildThreads;
      auto pll = PrunedLandmarkLabeling::Build(index.transform.graph, build);
      if (!pll.ok()) {
        ctx.result.Problem("rebuild: " + pll.status().ToString());
        return;
      }
      index.pll = std::move(pll).ValueOrDie();
    }
    if (error.empty()) {
      const std::string solved =
          Solve(*final_net, *rebuilt[request.gamma].pll, request);
      if (solved != answer.canonical) {
        error = "differs from a cold rebuild: " + solved + " vs served " +
                answer.canonical;
      }
    }
    if (!error.empty()) ctx.result.Fail("final generation " + request.target + ": " + error);
  }
}

using Views = std::map<double, teamdisc::OracleCache::View>;

/// Replays the workload's seeded sample in-process: service.TopK, FindTeams
/// on the benchmark's own index, a counting FindTeams and a timed replay of
/// its DistancesInto calls. Puts the service, core and shortest_path metrics.
void ReplaySample(RunContext& ctx, const TeamDiscoveryService& service,
                  const Views& views, Trace& trace) {
  const ExpertNetwork& net = ctx.net;
  std::vector<size_t> sample;
  if (ctx.workload.heavy) {
    // One whole schedule block: every (heavy skill, position) pair once.
    const size_t block = ctx.pools.heavy.size() * 3;
    const size_t first = SplitMix(ctx.options.seed).Below(kHeavyCycles) * block;
    for (size_t i = 0; i < block; ++i) sample.push_back(first + i);
  } else {
    sample = SampleIndexes(ctx.pool.size(), ctx.workload.replay,
                           ctx.options.seed ^ 0x7265706cULL);
  }
  std::vector<double> bucket_ms[4];
  std::vector<double> topk_ms, overhead_us, path_us;
  double holders = 0, calls = 0, entries = 0, scatter = 0, targets = 0,
         replay_ns = 0;
  for (const size_t index : sample) {
    const FindRequest& request = ctx.pool[index];
    const teamdisc::DistanceOracle& oracle = *views.at(request.gamma).oracle;
    teamdisc::TeamRequest team_request;
    team_request.skills = request.skills;
    team_request.strategy = teamdisc::RankingStrategy::kSACACC;
    team_request.gamma = request.gamma;
    team_request.lambda = kLambda;
    team_request.top_k = 1;
    const double at = trace.Ms(Clock::now());
    const double topk = FastestMs([&] { (void)service.TopK(team_request); });
    const double find = FastestMs([&] { (void)Solve(net, oracle, request); });
    topk_ms.push_back(topk);
    overhead_us.push_back((topk - find) * 1e3);
    bucket_ms[HolderBucket(request.holders)].push_back(find);
    holders += static_cast<double>(request.holders);
    double replay_ms = 0, paths_ms = 0;
    if (const PrunedLandmarkLabeling* pll = AsPll(oracle)) {
      const CountingOracle counting(*pll);
      (void)Solve(net, counting, request);
      calls += static_cast<double>(counting.calls);
      entries += static_cast<double>(counting.entries);
      scatter += static_cast<double>(counting.scatter_entries);
      targets += static_cast<double>(counting.targets);
      std::vector<double> out;
      replay_ms = FastestMs([&] {
        for (const CountingOracle::Call& call : counting.log) {
          pll->DistancesInto(call.source, call.targets, out);
        }
      });
      replay_ns += replay_ms * 1e6;
      paths_ms = counting.path_ms;
      path_us.push_back(paths_ms * 1e3);
    }
    // TopK contains FindTeams, which contains the DistancesInto replay and
    // the ShortestPath calls; the children are timed separately, so their
    // spans start with the parent's.
    const int64_t topk_span = trace.AddMs("service.TopK", at, at + topk);
    const int64_t find_span = trace.AddMs("core.FindTeams", at, at + find, topk_span);
    trace.AddMs("shortest_path.DistancesInto", at, at + replay_ms, find_span);
    trace.AddMs("shortest_path.ShortestPath", at + replay_ms,
                at + replay_ms + paths_ms, find_span);
  }
  // Buckets the workload leaves thin get seeded probe requests, so every
  // bucket has a value on every workload.
  SplitMix rng(ctx.options.seed ^ 0x70726f6265ULL);
  const auto& light = ctx.pools.light;
  const auto& heavy = ctx.pools.heavy;
  for (int attempt = 0; attempt < 4000; ++attempt) {
    if (std::all_of(bucket_ms, bucket_ms + 4,
                    [](const auto& b) { return b.size() >= kBucketProbes; })) {
      break;
    }
    std::vector<teamdisc::SkillId> skills;
    while (skills.size() < 2) {
      const auto s = light[rng.Below(light.size())];
      if (std::find(skills.begin(), skills.end(), s) == skills.end()) skills.push_back(s);
    }
    const auto third = rng.Below(2) == 1 ? heavy[rng.Below(heavy.size())]
                                         : light[rng.Below(light.size())];
    if (std::find(skills.begin(), skills.end(), third) != skills.end()) continue;
    skills.insert(skills.begin() + static_cast<long>(rng.Below(3)), third);
    const FindRequest probe = MakeRequest(net, skills, kGammas[rng.Below(3)]);
    std::vector<double>& bucket = bucket_ms[HolderBucket(probe.holders)];
    if (bucket.size() >= kBucketProbes) continue;
    const Clock::time_point t0 = Clock::now();
    (void)Solve(net, *views.at(probe.gamma).oracle, probe);
    const Clock::time_point t1 = Clock::now();
    trace.Add("core.FindTeams", t0, t1);
    bucket.push_back(MsBetween(t0, t1));
  }
  const double n = static_cast<double>(sample.size());
  RunResult& r = ctx.result;
  for (size_t b = 0; b < 4; ++b) {
    r.Put(std::string("core.sweep_ms.") + kHolderBuckets[b], Median(bucket_ms[b]));
  }
  r.Put("service.topk_ms", Median(topk_ms));
  r.Put("service.overhead_us", Median(overhead_us));
  r.Put("core.holders", holders / n);
  r.Put("core.oracle_calls", calls / n);
  r.Put("core.entries_touched", entries / n);
  r.Put("shortest_path.scatter_share", entries > 0 ? scatter / entries : 0.0);
  r.Put("shortest_path.ns_per_entry", entries > 0 ? replay_ns / entries : 0.0);
  r.Put("shortest_path.ns_per_target", targets > 0 ? replay_ns / targets : 0.0);
  r.Put("shortest_path.path_us", Median(path_us));
}

/// Splits one reweight delta into the layers ApplyDelta runs: the network
/// delta, a fingerprint, three authority transforms and four PLL builds.
/// Puts the network, graph and build metrics; returns the build total.
double SplitDelta(RunContext& ctx, const ExpertNetworkDelta& delta, Trace& trace) {
  const int64_t root = trace.AddMs("loadgen.delta_split", trace.Ms(Clock::now()), 0.0);
  auto timed = [&](const std::string& name, auto&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    trace.Add(name, t0, t1, root);
    return MsBetween(t0, t1);
  };
  std::optional<teamdisc::Result<ExpertNetwork>> applied;
  const double apply_ms = timed("network.ApplyNetworkDelta", [&] {
    applied.emplace(teamdisc::ApplyNetworkDelta(ctx.net, delta));
  });
  if (!applied->ok()) {
    ctx.result.Problem("ApplyNetworkDelta: " + applied->status().ToString());
    return 0.0;
  }
  const ExpertNetwork& next = **applied;
  uint64_t fingerprint = 0;
  const double fingerprint_ms = timed("graph.WeightedEdgeFingerprint", [&] {
    fingerprint = teamdisc::WeightedEdgeFingerprint(next.graph());
  });
  teamdisc::PllBuildOptions build;
  build.num_threads = kBuildThreads;
  double build_ms = timed("shortest_path.Build[base]", [&] {
    (void)PrunedLandmarkLabeling::Build(next.graph(), build);
  });
  std::printf("delta split: ApplyNetworkDelta %.3f ms, fingerprint %016llx in "
              "%.3f ms, Build[base] %.1f ms",
              apply_ms, static_cast<unsigned long long>(fingerprint),
              fingerprint_ms, build_ms);
  double transform_ms = 0;
  for (const double gamma : kGammas) {
    std::optional<teamdisc::Result<teamdisc::TransformedGraph>> transform;
    transform_ms += timed("network.BuildAuthorityTransform", [&] {
      transform.emplace(teamdisc::BuildAuthorityTransform(next, gamma));
    });
    if (!transform->ok()) {
      ctx.result.Problem("BuildAuthorityTransform: " + transform->status().ToString());
      return 0.0;
    }
    char name[64];
    std::snprintf(name, sizeof(name), "shortest_path.Build[g=%g]", gamma);
    const double ms = timed(name, [&] {
      (void)PrunedLandmarkLabeling::Build((*transform)->graph, build);
    });
    build_ms += ms;
    std::printf(", Build[g=%g] %.1f ms", gamma, ms);
  }
  std::printf("\n");
  trace.SetEnd(root, Clock::now());
  ctx.result.Put("network.apply_delta_ms", apply_ms);
  ctx.result.Put("graph.fingerprint_ms", fingerprint_ms);
  ctx.result.Put("network.transform_ms", transform_ms);
  ctx.result.Put("shortest_path.build_ms", build_ms);
  return build_ms;
}

RunResult Run(const RunOptions& options) {
  const Workload& workload = *options.workload;
  RunResult result;
  const Clock::time_point origin = Clock::now();

  // The benchmark's own copy of the corpus: pools, requests and every
  // in-process check come from it, never from the service under test.
  auto manifest = teamdisc::ReadSnapshotManifest(options.snapshot_dir);
  if (!manifest.ok()) {
    result.Problem("snapshot: " + manifest.status().ToString());
    return result;
  }
  auto loaded = teamdisc::LoadNetwork(
      (std::filesystem::path(options.snapshot_dir) / manifest->network_file).string());
  if (!loaded.ok()) {
    result.Problem("network: " + loaded.status().ToString());
    return result;
  }
  const ExpertNetwork& net = *loaded;
  const SkillPools pools = MakeSkillPools(net);
  if (pools.light.size() < 3 || pools.heavy.empty()) {
    result.Problem("corpus has too few light or heavy skills");
    return result;
  }
  const std::vector<FindRequest> pool =
      workload.heavy ? MakeHeavyRequests(net, pools, kHeavyCycles, options.seed)
                     : MakeLightRequests(net, pools, kLightPoolSize, options.seed);
  RunContext ctx{options, workload, net, pools, pool, result};
  PrintInputs(ctx);

  // --- setup_s: Open until every index the workload queries is resident.
  teamdisc::ServiceOptions service_options;
  service_options.snapshot_dir = options.snapshot_dir;
  service_options.persist_built_indexes = false;
  service_options.persist_updates = false;
  const std::string warm_skill = net.skills().NameUnchecked(pools.light.front());
  std::string error;
  const std::vector<double> setup_s =
      TimeSetupCycles(service_options, warm_skill, &error);
  std::unique_ptr<TeamDiscoveryService> service;
  if (error.empty()) service = OpenResident(service_options, warm_skill, &error);
  std::unique_ptr<Server> server;
  if (error.empty()) server = Server::Start(*service, &error);
  if (!error.empty()) {
    result.Problem(error);
    return result;
  }
  const uint64_t initial_generation = service->generation();
  const std::vector<std::string> expected = WarmUp(ctx, server->port());

  // --- The measured window(s). A traced run measures half its time
  // untraced, half traced; the ratio of their medians is the tracing cost.
  const size_t swaps_per_window =
      static_cast<size_t>(options.seconds / kSwapPeriodS) + 1;
  const std::vector<ExpertNetworkDelta> deltas = MakeReweightDeltas(
      net, 2 * swaps_per_window + kIdleSwaps, options.seed);
  size_t next_delta = 0;
  WindowPlan plan;
  plan.pool = &pool;
  plan.expected = &expected;
  plan.initial_generation = initial_generation;
  plan.connections = workload.connections;
  plan.open_rate = workload.churn ? kChurnRate : 0.0;
  if (workload.churn) {
    plan.churn = service.get();
    plan.deltas = &deltas;
    plan.next_delta = &next_delta;
  }
  std::vector<WindowResult> windows;
  plan.seconds = options.trace ? options.seconds / 2 : options.seconds;
  windows.push_back(RunWindow(server->port(), plan, origin));
  if (options.trace) {
    plan.traced = true;
    windows.push_back(RunWindow(server->port(), plan, origin));
  }
  const double rss_mb = PeakRssMb();
  std::vector<SwapRecord> swaps;
  uint64_t shed = 0, server_errors = 0;
  for (WindowResult& w : windows) {
    result.attempted += w.attempted;
    result.failed += w.failed;
    shed += w.shed;
    server_errors += w.server_errors;
    for (std::string& f : w.failures) result.Problem(std::move(f));
    swaps.insert(swaps.end(), w.swaps.begin(), w.swaps.end());
  }
  const WindowResult& measured = windows.back();

  // --- Closed loops: swap_ms on an idle server.
  Trace swap_trace(origin);
  for (size_t k = 0; !workload.churn && k < kIdleSwaps; ++k) {
    const Clock::time_point t0 = Clock::now();
    auto report = service->ApplyDelta(deltas[next_delta++]);
    const Clock::time_point t1 = Clock::now();
    swap_trace.Add("service.ApplyDelta", t0, t1);
    ++result.attempted;
    SwapRecord swap{MsBetween(t0, t1), report.ok(), 0, 0};
    if (report.ok()) {
      swap.rebuilt = report->entries_rebuilt;
      swap.adopted = report->entries_adopted;
    } else {
      result.Fail("ApplyDelta: " + report.status().ToString());
    }
    swaps.push_back(swap);
  }

  // --- A seeded sample once more, served at the final generation.
  const std::vector<size_t> check =
      SampleIndexes(pool.size(), kCheckSample, options.seed ^ 0x636865636bULL);
  std::vector<std::string> final_targets;
  for (const size_t i : check) final_targets.push_back(pool[i].target);
  const std::vector<Reply> final_replies = SendAll(server->port(), final_targets, 1);
  const uint64_t final_generation = service->generation();
  server.reset();

  // --- In-process checks on indexes the benchmark loads itself, through
  // its own OracleCache whose loader calls LoadIndexArtifact.
  teamdisc::OracleCache own_cache(net);
  std::vector<double> load_ms;
  own_cache.set_artifact_loader(
      [&](const teamdisc::OracleCache::EntryInfo& info,
          const teamdisc::Graph& search_graph)
          -> teamdisc::Result<std::unique_ptr<teamdisc::DistanceOracle>> {
        const Clock::time_point t0 = Clock::now();
        auto oracle = teamdisc::LoadIndexArtifact(
            options.snapshot_dir, *manifest, info.transformed, info.gamma_bp,
            info.kind, search_graph);
        load_ms.push_back(MsBetween(t0, Clock::now()));
        return oracle;
      });
  Views views;
  for (const double gamma : kGammas) {
    auto view = own_cache.Get(teamdisc::RankingStrategy::kSACACC, gamma,
                              teamdisc::OracleKind::kPrunedLandmarkLabeling);
    if (!view.ok()) {
      result.Problem("own index: " + view.status().ToString());
      return result;
    }
    views[gamma] = std::move(view).ValueOrDie();
  }
  if (own_cache.stats().builds != 0) {
    result.Problem("own index was built, not loaded from the snapshot");
  }
  for (size_t k = 0; k < check.size(); ++k) {
    const FindRequest& request = pool[check[k]];
    std::string solved = Solve(net, *views[request.gamma].oracle, request);
    if (options.inject_mismatch && k == 0) solved += " (corrupted)";
    if (solved != expected[check[k]]) {
      result.Fail("in-process answer differs for " + request.target + ": " +
                  solved + " vs served " + expected[check[k]]);
    }
  }
  CheckColdRebuild(ctx, deltas, swaps, initial_generation, final_generation,
                   check, final_replies);

  std::vector<double> latency, late, swap_ms;
  for (const WireSample& s : measured.samples) {
    latency.push_back(s.latency_ms);
    late.push_back(s.late_ms);
  }
  for (const SwapRecord& s : swaps) {
    if (s.ok) swap_ms.push_back(s.wall_ms);
  }
  const double answered = static_cast<double>(measured.samples.size());
  const std::optional<Tail> tail = TailPercentile(latency, workload.tail_q);
  if (!tail) {
    result.Problem("too few samples for a tail: " + std::to_string(latency.size()));
  }
  if (answered == 0 || swap_ms.empty()) {
    result.Problem("nothing answered or no swap succeeded");
  }

  // --- End-to-end metrics (untraced runs).
  if (!options.trace) {
    result.Put("find_qps", answered / measured.elapsed_s);
    result.Put("find_p50_ms", Median(latency));
    result.Put("find_tail_ms", tail ? tail->value : 0.0);
    result.Put("find_cpu_ms", answered > 0 ? measured.cpu_ms / answered : 0.0);
    result.Put("swap_ms", Median(swap_ms));
    result.Put("setup_s", Median(setup_s));
    result.Put("rss_mb", rss_mb);
    std::printf("window: %.0f answered in %.2f s; tail p%.0f with %zu samples "
                "beyond; %zu swaps; setup cycles:",
                answered, measured.elapsed_s, tail ? tail->q * 100 : 0.0,
                tail ? tail->beyond : 0, swap_ms.size());
    for (const double s : setup_s) std::printf(" %.4f", s);
    std::printf("\n");
    return result;
  }

  // --- Per-layer metrics (traced runs).
  std::vector<double> wire, queue, solve, bytes, untraced;
  for (const WireSample& s : measured.samples) {
    wire.push_back(s.service_ms - s.queue_ms - s.solve_ms);
    queue.push_back(s.queue_ms);
    solve.push_back(s.solve_ms);
    bytes.push_back(static_cast<double>(s.bytes));
  }
  for (const WireSample& s : windows.front().samples) untraced.push_back(s.latency_ms);
  const std::optional<Tail> queue_tail = TailPercentile(queue, workload.tail_q);
  result.Put("net.wire_ms", Median(wire));
  result.Put("net.response_bytes", Mean(bytes));
  result.Put("serving.queue_ms", Median(queue));
  result.Put("serving.queue_tail_ms", queue_tail ? queue_tail->value : 0.0);
  result.Put("serving.solve_ms", Median(solve));
  result.Put("serving.shed", static_cast<double>(shed));
  result.Put("serving.failed", static_cast<double>(server_errors));
  result.Put("loadgen.late_ms", Percentile(late, 0.99));
  result.Put("loadgen.trace_overhead", Median(latency) / Median(untraced));

  std::vector<double> cache_get_us;
  for (int i = 0; i < 200; ++i) {
    const Clock::time_point t0 = Clock::now();
    auto hit = own_cache.Get(teamdisc::RankingStrategy::kSACACC, kGammas[i % 3],
                             teamdisc::OracleKind::kPrunedLandmarkLabeling);
    cache_get_us.push_back(MsBetween(t0, Clock::now()) * 1e3);
    if (!hit.ok()) result.Problem("cache hit failed");
  }
  result.Put("eval.index_load_ms", Median(load_ms));
  result.Put("eval.cache_get_us", Median(cache_get_us));
  double label_entries = 0;
  for (const auto& [gamma, view] : views) {
    if (const PrunedLandmarkLabeling* pll = AsPll(*view.oracle)) {
      label_entries += static_cast<double>(pll->stats().total_entries);
    }
  }
  result.Put("shortest_path.label_entries", label_entries);

  Trace replay_trace(origin);
  ReplaySample(ctx, *service, views, replay_trace);
  const double build_ms = SplitDelta(ctx, deltas.front(), replay_trace);
  std::printf("build share of swap_ms: %.3f (builds %.1f ms, median swap %.1f ms)\n",
              build_ms / Median(swap_ms), build_ms, Median(swap_ms));
  std::vector<double> rebuilt, adopted;
  for (const SwapRecord& s : swaps) {
    if (!s.ok) continue;
    rebuilt.push_back(static_cast<double>(s.rebuilt));
    adopted.push_back(static_cast<double>(s.adopted));
  }
  result.Put("service.swap_rebuilt", Median(rebuilt));
  result.Put("service.swap_adopted", Median(adopted));

  Trace all(origin);
  all.Append(measured.trace);
  all.Append(swap_trace);
  all.Append(replay_trace);
  std::printf("self time by module (traced window, replay sample, delta split):\n%s",
              all.SelfTimeTable().c_str());
  if (!options.trace_out.empty()) {
    if (all.WriteChromeTrace(options.trace_out)) {
      std::printf("trace: %zu spans written to %s\n", all.spans().size(),
                  options.trace_out.c_str());
    } else {
      result.Problem("could not write " + options.trace_out);
    }
  }
  return result;
}

// ----------------------------------------------------------------- commands

int Prepare(const std::string& out, const Corpus& corpus) {
  teamdisc::DblpConfig config;
  config.num_authors = corpus.experts;
  config.target_edges = corpus.edges;
  config.seed = corpus.seed;
  auto generated = teamdisc::GenerateSyntheticDblp(config);
  if (!generated.ok()) {
    std::fprintf(stderr, "generate: %s\n", generated.status().ToString().c_str());
    return 1;
  }
  teamdisc::BuildSnapshotOptions build;
  build.gammas.assign(std::begin(kGammas), std::end(kGammas));
  build.include_base = true;
  build.pll.num_threads = kBuildThreads;
  const std::string staging = out + ".tmp";
  std::error_code ec;
  std::filesystem::remove_all(staging, ec);
  auto built = teamdisc::BuildSnapshot(generated->network, staging, build);
  if (!built.ok()) {
    std::fprintf(stderr, "snapshot: %s\n", built.status().ToString().c_str());
    return 1;
  }
  std::filesystem::remove_all(out, ec);
  std::filesystem::rename(staging, out, ec);
  if (ec) {
    std::fprintf(stderr, "rename %s: %s\n", staging.c_str(), ec.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "prepared %s: %s\n", out.c_str(),
               generated->network.DebugString().c_str());
  return 0;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int SelfTest(const std::string& benchmark_json) {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::printf("FAIL: %s\n", what.c_str());
    }
  };

  // find_tail_ms never reports a percentile with fewer than 10 samples
  // beyond it.
  for (size_t n = 1; n <= 3000; ++n) {
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) values[i] = static_cast<double>((i * 7919) % n);
    for (const double preferred : {0.90, 0.99}) {
      const std::optional<Tail> tail = TailPercentile(values, preferred);
      if (!tail) {
        expect(n < 110, "no tail for n=" + std::to_string(n));
        continue;
      }
      size_t above = 0;
      for (const double v : values) above += v > tail->value;
      expect(above >= kMinTailBeyond && tail->beyond >= kMinTailBeyond &&
                 tail->q <= preferred,
             "tail p" + std::to_string(tail->q) + " of n=" + std::to_string(n) +
                 " has " + std::to_string(above) + " samples beyond");
    }
  }
  expect(TailPercentile(std::vector<double>(1000, 1.0), 0.99)->q == 0.99 &&
             TailPercentile(std::vector<double>(1009, 1.0), 0.99)->q == 0.99 &&
             TailPercentile(std::vector<double>(999, 1.0), 0.99)->q == 0.90,
         "tail switches from p99 to p90 below 1000 samples");

  std::set<std::pair<std::string, std::string>> contract_e2e, contract_layer;
  if (!benchmark_json.empty()) {
    std::ifstream in(benchmark_json);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const std::optional<Json> doc = ParseJson(text);
    expect(doc.has_value(), "cannot parse " + benchmark_json);
    if (doc) {
      for (const auto& [key, set] :
           {std::pair{"end_to_end", &contract_e2e}, {"per_layer", &contract_layer}}) {
        if (const Json* list = doc->Find(key)) {
          for (const Json& m : list->items) {
            const Json* name = m.Find("name");
            const Json* unit = m.Find("unit");
            expect(name != nullptr && unit != nullptr, "metric without name or unit");
            if (name != nullptr && unit != nullptr) set->insert({name->text, unit->text});
          }
        }
      }
    }
  }

  const std::string dir = "perfbench-selftest";
  if (Prepare(dir + "/snap", kTinyCorpus) != 0) return 1;
  RunOptions base;
  base.snapshot_dir = dir + "/snap";
  base.seconds = 1.0;
  base.seed = 3;
  for (const Workload& w : kWorkloads) {
    for (const bool trace : {false, true}) {
      RunOptions options = base;
      options.workload = &w;
      options.trace = trace;
      options.trace_out = trace ? dir + "/" + w.name + ".trace.json" : "";
      const RunResult r = Run(options);
      const std::string label = std::string(w.name) + (trace ? " traced" : "");
      expect(r.correct && r.failed == 0 && r.attempted > 0,
             label + " failed: " + (r.problems.empty() ? "" : r.problems.front()));
      std::set<std::pair<std::string, std::string>> got;
      for (const auto& [name, value] : r.metrics) got.insert({name, UnitOf(name)});
      for (const MetricSpec& m : trace ? std::span<const MetricSpec>(kPerLayer)
                                       : std::span<const MetricSpec>(kEndToEnd)) {
        expect(got.count({m.name, m.unit}) == 1,
               label + " lacks " + m.name + " [" + m.unit + "]");
      }
      for (const auto& m : trace ? contract_layer : contract_e2e) {
        expect(got.count(m) == 1,
               label + " lacks BENCHMARK.json metric " + m.first + " [" + m.second + "]");
      }
      expect(got.size() == r.metrics.size(), label + " reports a metric twice");
    }
  }
  for (const int hook : {0, 1}) {
    RunOptions options = base;
    options.workload = &kWorkloads[0];
    (hook == 0 ? options.inject_unknown_skill : options.inject_mismatch) = true;
    const RunResult r = Run(options);
    const std::string label = hook == 0 ? "unknown skill" : "forced mismatch";
    expect(r.failed == 1 && !r.correct,
           label + " counted " + std::to_string(r.failed) + " failed operations");
    expect(r.ToJson().find("\"correct\": false") != std::string::npos,
           label + " still reports correct");
  }
  std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

/// Pins what the environment could otherwise vary: no TEAMDISC_* setting
/// from the caller reaches the service, and ApplyDelta's rebuilds use the
/// same PLL build thread count as the snapshot.
void PinEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("TEAMDISC_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  setenv("TEAMDISC_PLL_THREADS", std::to_string(kBuildThreads).c_str(), 1);
}

int Main(int argc, char** argv) {
  PinEnvironment();
  if (argc < 2) {
    std::fprintf(stderr, "usage: teamdisc_perfbench prepare|run|self-test ...\n");
    return 2;
  }
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument %s\n", arg.c_str());
      return 2;
    }
    if (i + 1 == argc) {
      std::fprintf(stderr, "flag %s needs a value\n", arg.c_str());
      return 2;
    }
    flags[arg] = argv[++i];
  }
  auto flag = [&flags](const std::string& name) {
    auto it = flags.find(name);
    return it == flags.end() ? std::string() : it->second;
  };
  if (command == "prepare") {
    return Prepare(flag("--out"), kCiCorpus);
  }
  if (command == "self-test") return SelfTest(flag("--benchmark-json"));
  if (command != "run") {
    std::fprintf(stderr, "unknown command %s\n", command.c_str());
    return 2;
  }
  RunOptions options;
  options.snapshot_dir = flag("--snapshot");
  options.workload = FindWorkload(flag("--workload"));
  options.seed = std::strtoull(flag("--seed").c_str(), nullptr, 10);
  options.seconds = std::strtod(flag("--seconds").c_str(), nullptr);
  options.trace = flag("--trace") == "1";
  options.expect_digest = flag("--expect-digest");
  options.trace_out = flag("--trace-out");
  if (options.workload == nullptr || options.snapshot_dir.empty() ||
      !(options.seconds > 0)) {
    std::fprintf(stderr, "run needs --snapshot, --workload (light_http|"
                         "heavy_holders|live_churn) and --seconds > 0\n");
    return 2;
  }
  const std::string host = HostRecord(options);
  std::printf("host: %s\n", host.c_str());
  std::printf("workload: %s, seed %llu, %.1f s, trace %d\n", options.workload->name,
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  const RunResult result = Run(options);
  for (const std::string& p : result.problems) std::printf("problem: %s\n", p.c_str());
  std::printf("answer digest: %s\n", result.digest.c_str());
  for (const auto& [name, value] : result.metrics) {
    std::printf("  %-30s %14.4f %s\n", name.c_str(), value, UnitOf(name));
  }
  const std::string json = result.ToJson();
  if (const std::string record = flag("--record"); !record.empty()) {
    std::ofstream out(record, std::ios::app);
    out << "{\"host\": " << host << ", \"workload\": " << JsonQuote(options.workload->name)
        << ", \"trace\": " << (options.trace ? 1 : 0)
        << ", \"digest\": " << JsonQuote(result.digest) << ", \"result\": " << json
        << "}\n";
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
