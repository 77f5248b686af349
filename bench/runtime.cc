// §4.1 runtime reproduction (google-benchmark): the paper reports that CC,
// CA-CC and SA-CA-CC "have similar runtime since they use the same
// fundamental algorithm and indexing methods", that runtime grows with the
// number of required skills, and that a query takes "a few hundred
// milliseconds" on the 40K-node DBLP graph (Java, 2.8 GHz i7).
//
// Benchmarks:
//   BM_FindTeam<strategy>/<skills>  - one best-team query, CI-scale corpus
//   BM_PllBuild                     - index construction cost
//   BM_PllQuery / BM_DijkstraQuery  - DIST microbenchmarks (2-hop cover vs
//                                     re-running Dijkstra per query)
//   BM_PllBatchedDistances[Scalar]  - batched DIST on the dispatched kernel
//                                     backend and on the scalar reference;
//                                     their ratio is the CI perf gate
//                                     (tools/check_bench_regression.py)
#include <benchmark/benchmark.h>

#include "common/env.h"
#include "core/greedy_team_finder.h"
#include "eval/experiment.h"
#include "shortest_path/dijkstra.h"
#include "shortest_path/kernels/label_kernels.h"
#include "shortest_path/pruned_landmark_labeling.h"

namespace teamdisc {
namespace {

/// Label naming the kernel backend the PLL hot loops dispatched to, so every
/// recorded number says which implementation produced it.
std::string KernelLabel() {
  return std::string("kernel=") + SelectedLabelKernels().name;
}

ExperimentContext& Context() {
  static ExperimentContext* ctx = [] {
    ExperimentScale scale = ResolveScale();
    // Keep the runtime corpus modest so the full bench suite stays fast;
    // TEAMDISC_SCALE=paper raises it to 40K nodes.
    if (scale.label == "ci") {
      scale.num_experts = GetEnvOr("TEAMDISC_RUNTIME_NODES", uint64_t{4000});
      scale.target_edges = scale.num_experts * 3;
    }
    return ExperimentContext::Make(scale).ValueOrDie().release();
  }();
  return *ctx;
}

Project ProjectWithSkills(uint32_t skills) {
  return Context().SampleProjects(skills, 1).ValueOrDie()[0];
}

void BM_FindTeamCC(benchmark::State& state) {
  auto& ctx = Context();
  uint32_t skills = static_cast<uint32_t>(state.range(0));
  Project project = ProjectWithSkills(skills);
  GreedyTeamFinder* finder =
      ctx.Finder(RankingStrategy::kCC, 0.6, 0.6, 1).ValueOrDie();
  for (auto _ : state) {
    auto teams = finder->FindTeams(project);
    benchmark::DoNotOptimize(teams);
  }
  state.SetLabel(KernelLabel());  // the finder fans into the PLL kernels
}
BENCHMARK(BM_FindTeamCC)->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_FindTeamCaCc(benchmark::State& state) {
  auto& ctx = Context();
  uint32_t skills = static_cast<uint32_t>(state.range(0));
  Project project = ProjectWithSkills(skills);
  GreedyTeamFinder* finder =
      ctx.Finder(RankingStrategy::kCACC, 0.6, 0.6, 1).ValueOrDie();
  for (auto _ : state) {
    auto teams = finder->FindTeams(project);
    benchmark::DoNotOptimize(teams);
  }
}
BENCHMARK(BM_FindTeamCaCc)->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_FindTeamSaCaCc(benchmark::State& state) {
  auto& ctx = Context();
  uint32_t skills = static_cast<uint32_t>(state.range(0));
  Project project = ProjectWithSkills(skills);
  GreedyTeamFinder* finder =
      ctx.Finder(RankingStrategy::kSACACC, 0.6, 0.6, 1).ValueOrDie();
  for (auto _ : state) {
    auto teams = finder->FindTeams(project);
    benchmark::DoNotOptimize(teams);
  }
}
BENCHMARK(BM_FindTeamSaCaCc)->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_PllBuild(benchmark::State& state) {
  auto& ctx = Context();
  for (auto _ : state) {
    auto pll = PrunedLandmarkLabeling::Build(ctx.network().graph()).ValueOrDie();
    benchmark::DoNotOptimize(pll);
  }
}
BENCHMARK(BM_PllBuild)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_PllBuildThreads(benchmark::State& state) {
  // Batched parallel index construction; Arg = worker threads.
  auto& ctx = Context();
  PllBuildOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  size_t entries = 0, rounds = 0;
  for (auto _ : state) {
    auto pll =
        PrunedLandmarkLabeling::Build(ctx.network().graph(), options).ValueOrDie();
    entries = pll->stats().total_entries;
    rounds = pll->stats().num_rounds;
    benchmark::DoNotOptimize(pll);
  }
  state.counters["label_entries"] = static_cast<double>(entries);
  state.counters["rounds"] = static_cast<double>(rounds);
}
BENCHMARK(BM_PllBuildThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

/// Distances(source, targets) with |targets| = Arg — the shape of the
/// greedy finder's inner loop (one root against all holders of a skill).
/// The same seeded queries on every oracle, so two runs differ only in the
/// oracle's kernel backend.
void BatchedDistances(benchmark::State& state, const DistanceOracle& oracle) {
  Rng rng(2);
  NodeId n = Context().network().num_experts();
  std::vector<NodeId> targets(static_cast<size_t>(state.range(0)));
  for (NodeId& t : targets) t = static_cast<NodeId>(rng.NextBounded(n));
  std::vector<double> out;
  for (auto _ : state) {
    NodeId s = static_cast<NodeId>(rng.NextBounded(n));
    oracle.DistancesInto(s, targets, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_PllBatchedDistances(benchmark::State& state) {
  BatchedDistances(state, *Context().BaseOracle().ValueOrDie());
  state.SetLabel(KernelLabel());
}
BENCHMARK(BM_PllBatchedDistances)->Arg(16)->Arg(64)->Arg(256);

void BM_PllBatchedDistancesScalar(benchmark::State& state) {
  // A copy of the base index pinned to the scalar reference backend: the
  // denominator of the perf gate's ratio, timed in the same process as the
  // dispatched run above.
  static const PrunedLandmarkLabeling* scalar = [] {
    const auto& base = dynamic_cast<const PrunedLandmarkLabeling&>(
        *Context().BaseOracle().ValueOrDie());
    auto copy =
        PrunedLandmarkLabeling::Deserialize(base.graph(), base.Serialize())
            .ValueOrDie();
    copy->UseKernelsForTesting(ScalarLabelKernels());
    return copy.release();
  }();
  BatchedDistances(state, *scalar);
  state.SetLabel("kernel=scalar");
}
BENCHMARK(BM_PllBatchedDistancesScalar)->Arg(16)->Arg(64)->Arg(256);

void BM_PllQuery(benchmark::State& state) {
  auto& ctx = Context();
  const DistanceOracle* oracle = ctx.BaseOracle().ValueOrDie();
  Rng rng(1);
  NodeId n = ctx.network().num_experts();
  for (auto _ : state) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    benchmark::DoNotOptimize(oracle->Distance(u, v));
  }
  state.SetLabel(KernelLabel());
}
BENCHMARK(BM_PllQuery);

void BM_DijkstraQuery(benchmark::State& state) {
  auto& ctx = Context();
  DijkstraOracle oracle(ctx.network().graph());
  Rng rng(1);
  NodeId n = ctx.network().num_experts();
  for (auto _ : state) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    benchmark::DoNotOptimize(oracle.Distance(u, v));
  }
  state.SetLabel("per-query Dijkstra (no index)");
}
BENCHMARK(BM_DijkstraQuery)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace teamdisc

BENCHMARK_MAIN();
