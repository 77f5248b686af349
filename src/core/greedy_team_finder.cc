#include "core/greedy_team_finder.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/string_util.h"
#include "core/top_k.h"

namespace teamdisc {

/// A candidate solution kept during the root sweep: cheap to store, the
/// Team (paths) is only materialized for entries that survive the sweep.
struct GreedyTeamFinder::Candidate {
  NodeId root;
  std::vector<NodeId> holder_per_skill;  // aligned with the project
};

namespace {

/// Workers for the root sweep: > 1 gets a pool (0 = hardware concurrency).
std::unique_ptr<ThreadPool> MakeSweepPool(const FinderOptions& options) {
  size_t threads = ThreadPool::ResolveThreadCount(options.num_threads, nullptr);
  return threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
}

}  // namespace

Result<std::unique_ptr<GreedyTeamFinder>> GreedyTeamFinder::Make(
    const ExpertNetwork& net, FinderOptions options) {
  TD_RETURN_IF_ERROR(options.Validate());
  auto finder = std::unique_ptr<GreedyTeamFinder>(
      new GreedyTeamFinder(net, std::move(options)));
  finder->pool_ = MakeSweepPool(finder->options_);
  const FinderOptions& opt = finder->options_;
  if (opt.strategy == RankingStrategy::kCC) {
    TD_ASSIGN_OR_RETURN(finder->owned_oracle_,
                        MakeOracle(net.graph(), opt.oracle));
  } else {
    TD_ASSIGN_OR_RETURN(TransformedGraph transformed,
                        BuildAuthorityTransform(net, opt.params.gamma));
    finder->transformed_ =
        std::make_unique<TransformedGraph>(std::move(transformed));
    TD_ASSIGN_OR_RETURN(finder->owned_oracle_,
                        MakeOracle(finder->transformed_->graph, opt.oracle));
  }
  finder->oracle_ = finder->owned_oracle_.get();
  return finder;
}

Result<std::unique_ptr<GreedyTeamFinder>> GreedyTeamFinder::MakeWithExternalOracle(
    const ExpertNetwork& net, FinderOptions options,
    const DistanceOracle& oracle) {
  TD_RETURN_IF_ERROR(options.Validate());
  if (oracle.graph().num_nodes() != net.num_experts()) {
    return Status::InvalidArgument(
        "external oracle's graph does not match the network's node count");
  }
  if (options.strategy == RankingStrategy::kCC &&
      &oracle.graph() != &net.graph()) {
    return Status::InvalidArgument(
        "CC strategy requires an oracle over the network's own graph");
  }
  auto finder = std::unique_ptr<GreedyTeamFinder>(
      new GreedyTeamFinder(net, std::move(options)));
  finder->pool_ = MakeSweepPool(finder->options_);
  finder->oracle_ = &oracle;
  return finder;
}

double GreedyTeamFinder::AdjustedCost(double dist, NodeId holder) const {
  const double gamma = options_.params.gamma;
  const double lambda = options_.params.lambda;
  switch (options_.strategy) {
    case RankingStrategy::kCC:
      return dist;
    case RankingStrategy::kCACC:
      // §3.2.2: DIST'(root, v) - gamma * a'(v): the transform charged the
      // skill holder's authority at the path endpoint; refund it because
      // only connector authority belongs in CA.
      return dist - gamma * net_.InverseAuthority(holder);
    case RankingStrategy::kSACACC:
      // §3.2.3: (1-lambda)(DIST' - gamma a'(v)) + lambda a'(v).
      return (1.0 - lambda) * (dist - gamma * net_.InverseAuthority(holder)) +
             lambda * net_.InverseAuthority(holder);
  }
  return dist;
}

double GreedyTeamFinder::RootHoldsSkillCost(NodeId root) const {
  switch (options_.root_skill_policy) {
    case RootSkillPolicy::kZeroCost:
      // "DIST is set to zero and the skill is assigned to root": CC and
      // CA-CC charge nothing; under SA-CA-CC the root becomes a skill
      // holder, whose authority is a genuine objective component.
      if (options_.strategy == RankingStrategy::kSACACC) {
        return options_.params.lambda * net_.InverseAuthority(root);
      }
      return 0.0;
    case RootSkillPolicy::kFormulaZeroDist:
      // Literal substitution DIST = 0, v = root into AdjustedCost.
      if (options_.strategy == RankingStrategy::kCC) return 0.0;
      return AdjustedCost(0.0, root);
  }
  return 0.0;
}

std::optional<GreedyTeamFinder::SkillBound> GreedyTeamFinder::MakeSkillBound(
    std::span<const NodeId> holders) const {
  // The ablation policy's partial sums are not monotone; the scan does not
  // prune there either.
  if (options_.root_skill_policy != RootSkillPolicy::kZeroCost) {
    return std::nullopt;
  }
  // AdjustedCost(dist, v) = a·dist + b(v): a is 1 for CC and CA-CC and
  // 1 - lambda for SA-CA-CC, and b(v) is AdjustedCost(0, v).
  const double scale = options_.strategy == RankingStrategy::kSACACC
                           ? 1.0 - options_.params.lambda
                           : 1.0;
  if (scale == 0.0) return std::nullopt;
  std::vector<double> offsets(holders.size());
  double max_abs_offset = 0.0;
  for (size_t c = 0; c < holders.size(); ++c) {
    const double b = AdjustedCost(0.0, holders[c]);
    offsets[c] = b / scale;
    max_abs_offset = std::max(max_abs_offset, std::abs(b));
  }
  std::unique_ptr<const TargetSetBound> bound =
      oracle_->MakeTargetSetBound(holders, offsets);
  if (bound == nullptr) return std::nullopt;
  return SkillBound{scale, max_abs_offset, std::move(bound)};
}

void GreedyTeamFinder::SweepRoot(
    NodeId root, const std::vector<std::span<const NodeId>>& candidates,
    const std::vector<SkillBound>& bounds, const Project& project,
    TopK<Candidate>& best, std::vector<double>& dists) const {
  // Bound pass: reject the root from its own label alone when the sum of
  // its per-skill bounds, less the slack, cannot enter the kept list. Each
  // bound exceeds the exact skill cost by at most its share of the slack,
  // and under kZeroCost no exact skill cost is negative, so the exact cost
  // of such a root (and every prefix of it) cannot enter either: the scan
  // below would never Add it. A root the bound keeps runs the unchanged
  // scan, so rankings and proxy_cost bits are the scan's alone.
  if (!bounds.empty()) {
    double lower = 0.0;
    double slack = 0.0;
    for (size_t i = 0; i < project.size(); ++i) {
      double cost;
      if (net_.HasSkill(root, project[i])) {
        cost = RootHoldsSkillCost(root);
      } else {
        cost = bounds[i].Cost(root);
        // No holder shares a hub with the root: the scan returns here too.
        if (cost == kInfDistance) return;
      }
      lower += cost;
      slack += kBoundSlack * (std::abs(cost) + bounds[i].max_abs_offset);
      if (!best.WouldAccept(lower - slack)) return;
    }
  }

  double team_cost = 0.0;
  Candidate candidate;
  candidate.root = root;
  candidate.holder_per_skill.resize(project.size(), kInvalidNode);
  for (size_t i = 0; i < project.size(); ++i) {
    if (net_.HasSkill(root, project[i])) {
      candidate.holder_per_skill[i] = root;
      team_cost += RootHoldsSkillCost(root);
      continue;
    }
    // min over v in C(s_i) of the strategy-adjusted DIST(root, v); the
    // batched oracle call reuses `dists` across the whole root sweep.
    oracle_->DistancesInto(root, candidates[i], dists);
    double best_cost = kInfDistance;
    NodeId best_expert = kInvalidNode;
    for (size_t c = 0; c < candidates[i].size(); ++c) {
      if (dists[c] == kInfDistance) continue;
      double adjusted = AdjustedCost(dists[c], candidates[i][c]);
      if (adjusted < best_cost ||
          (adjusted == best_cost && candidates[i][c] < best_expert)) {
        best_cost = adjusted;
        best_expert = candidates[i][c];
      }
    }
    if (best_expert == kInvalidNode) return;  // no holder reachable
    candidate.holder_per_skill[i] = best_expert;
    team_cost += best_cost;
    // Partial sums are monotone under kZeroCost (all per-skill costs are
    // non-negative), so a prefix that already exceeds the kept list's
    // worst cost can be abandoned. The ablation policy can charge
    // negative root credits, which breaks monotonicity — no pruning then.
    // (In the parallel sweep each strand prunes against its own list; that
    // is laxer than the sequential threshold, so strands only ever keep a
    // superset of what the sequential sweep keeps — never less.)
    if (options_.root_skill_policy == RootSkillPolicy::kZeroCost &&
        !best.WouldAccept(team_cost)) {
      return;
    }
  }
  best.Add(team_cost, std::move(candidate));
}

Result<std::vector<ScoredTeam>> GreedyTeamFinder::FindTeams(
    const Project& project) {
  if (project.empty()) return Status::InvalidArgument("empty project");
  const NodeId n = net_.num_experts();
  if (n == 0) return Status::Infeasible("empty network");

  // Resolve candidate sets C(s_i) up front.
  std::vector<std::span<const NodeId>> candidates(project.size());
  for (size_t i = 0; i < project.size(); ++i) {
    if (project[i] >= net_.num_skills()) {
      return Status::OutOfRange(StrFormat("unknown skill id %u", project[i]));
    }
    candidates[i] = net_.ExpertsWithSkill(project[i]);
    if (candidates[i].empty()) {
      auto name = net_.skills().Name(project[i]);
      return Status::Infeasible(
          StrFormat("no expert holds skill '%s'",
                    name.ok() ? name.ValueOrDie().c_str() : "?"));
    }
  }

  // Root stride: 0 => all roots (the paper's loop over every node).
  NodeId stride = 1;
  if (options_.max_roots != 0 && options_.max_roots < n) {
    stride = n / options_.max_roots;
    if (stride == 0) stride = 1;
  }

  // Per-skill hub aggregates for SweepRoot's bound pass, built once per
  // request; empty when the bound is off.
  std::vector<SkillBound> bounds;
  for (size_t i = 0; i < project.size(); ++i) {
    std::optional<SkillBound> bound = MakeSkillBound(candidates[i]);
    if (!bound.has_value()) {
      bounds.clear();
      break;
    }
    bounds.push_back(std::move(*bound));
  }

  const size_t keep =
      static_cast<size_t>(options_.top_k) *
      (options_.dedupe_top_k ? options_.dedupe_buffer_factor : 1);
  TopK<Candidate> best(keep);

  const size_t num_roots = (n + stride - 1) / stride;
  if (pool_ == nullptr || num_roots <= 1) {
    std::vector<double> dists;
    for (NodeId root = 0; root < n; root += stride) {
      SweepRoot(root, candidates, bounds, project, best, dists);
    }
  } else {
    // Parallel sweep: strands claim roots dynamically, each keeping its own
    // bounded list and distance scratch. Every candidate the sequential
    // sweep would keep survives in its strand's list: a strand's pruning
    // threshold (scan and bound pass alike) is at most as strict as the
    // sequential one because its list holds a subset of the lower-rooted
    // candidates (ParallelForWorkers guarantees each slot claims indices in
    // ascending order — see its contract). Replaying all kept candidates
    // into one list in ascending-root order therefore reproduces the
    // sequential insertion order, costs and ties included: results are
    // bit-identical at any thread count.
    const size_t shards = pool_->NumShards(num_roots);
    std::vector<TopK<Candidate>> local(shards, TopK<Candidate>(keep));
    std::vector<std::vector<double>> dists(shards);
    pool_->ParallelForWorkers(num_roots, [&](size_t worker, size_t i) {
      SweepRoot(static_cast<NodeId>(i * stride), candidates, bounds, project,
                local[worker], dists[worker]);
    });
    std::vector<TopK<Candidate>::Entry> merged;
    for (TopK<Candidate>& l : local) {
      for (auto& entry : l.Take()) merged.push_back(std::move(entry));
    }
    std::sort(merged.begin(), merged.end(),
              [](const TopK<Candidate>::Entry& a,
                 const TopK<Candidate>::Entry& b) {
                return a.value.root < b.value.root;  // roots are unique
              });
    for (auto& entry : merged) best.Add(entry.cost, std::move(entry.value));
  }

  if (best.empty()) {
    return Status::Infeasible(
        "no single root reaches holders of every required skill");
  }

  // Materialize teams for surviving candidates; dedupe by node-set signature.
  std::vector<ScoredTeam> out;
  std::unordered_set<std::string> seen;
  for (const auto& entry : best.entries()) {
    const Candidate& cand = entry.value;
    TeamAssembler assembler(net_, cand.root);
    Status assembled = Status::OK();
    for (size_t i = 0; i < project.size(); ++i) {
      auto path = oracle_->ShortestPath(cand.root, cand.holder_per_skill[i]);
      if (!path.ok()) {
        assembled = path.status();
        break;
      }
      assembled = assembler.AddAssignment(project[i], cand.holder_per_skill[i],
                                          path.ValueOrDie());
      if (!assembled.ok()) break;
    }
    if (!assembled.ok()) return assembled;
    TD_ASSIGN_OR_RETURN(Team team, assembler.Finish());
    if (options_.dedupe_top_k && !seen.insert(team.Signature()).second) {
      continue;
    }
    ScoredTeam scored;
    scored.proxy_cost = entry.cost;
    // One ComputeBreakdown call yields every component; the strategy's own
    // objective is the matching composite term (bit-identical to
    // EvaluateObjective, which evaluates the same expressions).
    scored.breakdown = ComputeBreakdown(net_, team, options_.params);
    scored.has_breakdown = true;
    switch (options_.strategy) {
      case RankingStrategy::kCC:
        scored.objective = scored.breakdown.cc;
        break;
      case RankingStrategy::kCACC:
        scored.objective = scored.breakdown.ca_cc;
        break;
      case RankingStrategy::kSACACC:
        scored.objective = scored.breakdown.sa_ca_cc;
        break;
    }
    scored.team = std::move(team);
    out.push_back(std::move(scored));
    if (out.size() == options_.top_k) break;
  }
  return out;
}

Status GreedyTeamFinder::set_lambda(double lambda) {
  if (lambda < 0.0 || lambda > 1.0) {
    return Status::InvalidArgument(StrFormat("lambda %f outside [0,1]", lambda));
  }
  options_.params.lambda = lambda;
  return Status::OK();
}

Status GreedyTeamFinder::set_top_k(uint32_t top_k) {
  if (top_k == 0) return Status::InvalidArgument("top_k must be >= 1");
  options_.top_k = top_k;
  return Status::OK();
}

std::string GreedyTeamFinder::name() const {
  return StrFormat("greedy-%s",
                   std::string(RankingStrategyToString(options_.strategy)).c_str());
}

}  // namespace teamdisc
