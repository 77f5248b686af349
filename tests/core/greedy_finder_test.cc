#include "core/greedy_team_finder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <optional>

#include "../core/test_networks.h"
#include "common/string_util.h"
#include "core/objectives.h"
#include "shortest_path/pruned_landmark_labeling.h"

namespace teamdisc {
namespace {

FinderOptions Options(RankingStrategy strategy, double gamma = 0.6,
                      double lambda = 0.6, uint32_t top_k = 1) {
  FinderOptions o;
  o.strategy = strategy;
  o.params.gamma = gamma;
  o.params.lambda = lambda;
  o.top_k = top_k;
  return o;
}

TEST(GreedyFinderTest, CcFindsMinimalCommunicationTeam) {
  ExpertNetwork net = Figure1Network();
  auto finder =
      GreedyTeamFinder::Make(net, Options(RankingStrategy::kCC)).ValueOrDie();
  Project project = {net.skills().Find("SN"), net.skills().Find("TM")};
  auto teams = finder->FindTeams(project).ValueOrDie();
  ASSERT_FALSE(teams.empty());
  const Team& best = teams[0].team;
  EXPECT_TRUE(best.Covers(project));
  EXPECT_TRUE(best.Validate(net).ok());
  // Both 2-hop stars cost 2.0; nothing cheaper exists.
  EXPECT_DOUBLE_EQ(CommunicationCost(best), 2.0);
}

TEST(GreedyFinderTest, SaCaCcPrefersAuthoritativeTeam) {
  // The paper's Figure 1 pitch: with authority in play the high-h-index
  // group (ren, liu via han) must beat the low-authority group.
  ExpertNetwork net = Figure1Network();
  auto finder = GreedyTeamFinder::Make(net, Options(RankingStrategy::kSACACC))
                    .ValueOrDie();
  Project project = {net.skills().Find("SN"), net.skills().Find("TM")};
  Team best = finder->FindBest(project).ValueOrDie();
  EXPECT_TRUE(best.Contains(0));  // ren
  EXPECT_TRUE(best.Contains(1));  // liu
  EXPECT_FALSE(best.Contains(3));
  EXPECT_FALSE(best.Contains(4));
}

TEST(GreedyFinderTest, CaCcGammaOneOptimizesConnectorAuthorityOnly) {
  // gamma = 1 solves Problem 2 (pure CA): the chosen route's connectors
  // must have maximal authority regardless of edge weights.
  ExpertNetwork net = Figure1Network();
  auto finder =
      GreedyTeamFinder::Make(net, Options(RankingStrategy::kCACC, 1.0))
          .ValueOrDie();
  Project project = {net.skills().Find("SN"), net.skills().Find("TM")};
  Team best = finder->FindBest(project).ValueOrDie();
  // han (h=139) is the best possible connector.
  EXPECT_TRUE(best.Contains(2));
  EXPECT_FALSE(best.Contains(5));
}

TEST(GreedyFinderTest, SingleExpertCoversWholeProject) {
  ExpertNetwork net = MediumNetwork();
  auto finder = GreedyTeamFinder::Make(net, Options(RankingStrategy::kCC))
                    .ValueOrDie();
  // e2 holds both a and c; a one-node team is optimal.
  Project project = {net.skills().Find("a"), net.skills().Find("c")};
  Team best = finder->FindBest(project).ValueOrDie();
  EXPECT_EQ(best.nodes, (std::vector<NodeId>{2}));
  EXPECT_DOUBLE_EQ(CommunicationCost(best), 0.0);
}

TEST(GreedyFinderTest, TopKReturnsDistinctSortedTeams) {
  ExpertNetwork net = MediumNetwork();
  auto finder =
      GreedyTeamFinder::Make(net, Options(RankingStrategy::kSACACC, 0.6, 0.6, 5))
          .ValueOrDie();
  Project project = {net.skills().Find("a"), net.skills().Find("b"),
                     net.skills().Find("d")};
  auto teams = finder->FindTeams(project).ValueOrDie();
  ASSERT_GE(teams.size(), 2u);
  ASSERT_LE(teams.size(), 5u);
  for (size_t i = 0; i + 1 < teams.size(); ++i) {
    EXPECT_LE(teams[i].proxy_cost, teams[i + 1].proxy_cost);
  }
  // Deduped: no two teams share a node set.
  for (size_t i = 0; i < teams.size(); ++i) {
    for (size_t j = i + 1; j < teams.size(); ++j) {
      EXPECT_NE(teams[i].team.Signature(), teams[j].team.Signature());
    }
  }
  for (const ScoredTeam& st : teams) {
    EXPECT_TRUE(st.team.Covers(project));
    EXPECT_TRUE(st.team.Validate(net).ok());
  }
}

TEST(GreedyFinderTest, DedupDisabledAllowsDuplicates) {
  ExpertNetwork net = MediumNetwork();
  FinderOptions o = Options(RankingStrategy::kCC, 0.6, 0.6, 6);
  o.dedupe_top_k = false;
  auto finder = GreedyTeamFinder::Make(net, o).ValueOrDie();
  Project project = {net.skills().Find("a"), net.skills().Find("b")};
  auto teams = finder->FindTeams(project).ValueOrDie();
  bool found_duplicate = false;
  for (size_t i = 0; i < teams.size() && !found_duplicate; ++i) {
    for (size_t j = i + 1; j < teams.size(); ++j) {
      if (teams[i].team.Signature() == teams[j].team.Signature()) {
        found_duplicate = true;
        break;
      }
    }
  }
  // Adjacent roots produce identical teams, so duplicates are expected.
  EXPECT_TRUE(found_duplicate);
}

TEST(GreedyFinderTest, InfeasibleWhenSkillMissing) {
  ExpertNetwork net = Figure1Network();
  auto finder = GreedyTeamFinder::Make(net, Options(RankingStrategy::kCC))
                    .ValueOrDie();
  auto result = finder->FindTeams({net.skills().Find("SN"), 999});
  EXPECT_FALSE(result.ok());
}

TEST(GreedyFinderTest, InfeasibleAcrossComponents) {
  ExpertNetworkBuilder b;
  b.AddExpert("a", {"x"}, 1.0);
  b.AddExpert("b", {"y"}, 1.0);  // different component
  ExpertNetwork net = b.Finish().ValueOrDie();
  auto finder = GreedyTeamFinder::Make(net, Options(RankingStrategy::kCC))
                    .ValueOrDie();
  auto result =
      finder->FindTeams({net.skills().Find("x"), net.skills().Find("y")});
  EXPECT_TRUE(result.status().IsInfeasible());
}

TEST(GreedyFinderTest, EmptyProjectRejected) {
  ExpertNetwork net = Figure1Network();
  auto finder = GreedyTeamFinder::Make(net, Options(RankingStrategy::kCC))
                    .ValueOrDie();
  EXPECT_TRUE(finder->FindTeams({}).status().IsInvalidArgument());
}

TEST(GreedyFinderTest, ObjectiveRecomputedOnOriginalNetwork) {
  ExpertNetwork net = MediumNetwork();
  auto finder = GreedyTeamFinder::Make(net, Options(RankingStrategy::kSACACC))
                    .ValueOrDie();
  Project project = {net.skills().Find("a"), net.skills().Find("d")};
  auto teams = finder->FindTeams(project).ValueOrDie();
  ASSERT_FALSE(teams.empty());
  ObjectiveParams p{.gamma = 0.6, .lambda = 0.6};
  EXPECT_DOUBLE_EQ(teams[0].objective,
                   SaCaCcScore(net, teams[0].team, 0.6, 0.6));
  EXPECT_DOUBLE_EQ(
      teams[0].objective,
      EvaluateObjective(net, teams[0].team, RankingStrategy::kSACACC, p));
}

TEST(GreedyFinderTest, AllStrategiesProduceValidTeams) {
  ExpertNetwork net = MediumNetwork();
  Project project = {net.skills().Find("a"), net.skills().Find("b"),
                     net.skills().Find("c"), net.skills().Find("d")};
  for (RankingStrategy strategy :
       {RankingStrategy::kCC, RankingStrategy::kCACC, RankingStrategy::kSACACC}) {
    auto finder = GreedyTeamFinder::Make(net, Options(strategy)).ValueOrDie();
    Team best = finder->FindBest(project).ValueOrDie();
    EXPECT_TRUE(best.Covers(project)) << RankingStrategyToString(strategy);
    EXPECT_TRUE(best.Validate(net).ok()) << RankingStrategyToString(strategy);
  }
}

TEST(GreedyFinderTest, OracleChoiceDoesNotChangeBestObjective) {
  ExpertNetwork net = MediumNetwork();
  Project project = {net.skills().Find("a"), net.skills().Find("b"),
                     net.skills().Find("d")};
  std::vector<double> objectives;
  for (OracleKind kind :
       {OracleKind::kPrunedLandmarkLabeling, OracleKind::kDijkstra,
        OracleKind::kBidirectionalDijkstra}) {
    FinderOptions o = Options(RankingStrategy::kSACACC);
    o.oracle = kind;
    auto finder = GreedyTeamFinder::Make(net, o).ValueOrDie();
    auto teams = finder->FindTeams(project).ValueOrDie();
    ASSERT_FALSE(teams.empty());
    objectives.push_back(teams[0].proxy_cost);
  }
  EXPECT_NEAR(objectives[0], objectives[1], 1e-9);
  EXPECT_NEAR(objectives[0], objectives[2], 1e-9);
}

TEST(GreedyFinderTest, SetLambdaChangesRanking) {
  ExpertNetwork net = MediumNetwork();
  auto finder =
      GreedyTeamFinder::Make(net, Options(RankingStrategy::kSACACC, 0.6, 0.0))
          .ValueOrDie();
  Project project = {net.skills().Find("a"), net.skills().Find("d")};
  Team at_zero = finder->FindBest(project).ValueOrDie();
  TD_CHECK_OK(finder->set_lambda(1.0));
  Team at_one = finder->FindBest(project).ValueOrDie();
  // At lambda=1 only skill-holder authority matters: holders must be the
  // strongest available; at lambda=0 the objective ignores SA.
  double sa_zero = SkillHolderAuthority(net, at_zero);
  double sa_one = SkillHolderAuthority(net, at_one);
  EXPECT_LE(sa_one, sa_zero + 1e-12);
  EXPECT_FALSE(finder->set_lambda(1.5).ok());
}

TEST(GreedyFinderTest, MaxRootsApproximationStillCoversProject) {
  ExpertNetwork net = MediumNetwork();
  FinderOptions o = Options(RankingStrategy::kCC);
  o.max_roots = 3;
  auto finder = GreedyTeamFinder::Make(net, o).ValueOrDie();
  Project project = {net.skills().Find("a"), net.skills().Find("b")};
  Team best = finder->FindBest(project).ValueOrDie();
  EXPECT_TRUE(best.Covers(project));
}

TEST(GreedyFinderTest, RootSkillPolicyAblation) {
  ExpertNetwork net = MediumNetwork();
  Project project = {net.skills().Find("a"), net.skills().Find("c")};
  FinderOptions zero = Options(RankingStrategy::kCACC);
  zero.root_skill_policy = RootSkillPolicy::kZeroCost;
  FinderOptions formula = Options(RankingStrategy::kCACC);
  formula.root_skill_policy = RootSkillPolicy::kFormulaZeroDist;
  auto f_zero = GreedyTeamFinder::Make(net, zero).ValueOrDie();
  auto f_formula = GreedyTeamFinder::Make(net, formula).ValueOrDie();
  // Both must return valid covering teams (the policies may rank
  // differently, but never break correctness).
  EXPECT_TRUE(f_zero->FindBest(project).ValueOrDie().Covers(project));
  EXPECT_TRUE(f_formula->FindBest(project).ValueOrDie().Covers(project));
}

TEST(GreedyFinderTest, NameIncludesStrategy) {
  ExpertNetwork net = Figure1Network();
  auto finder = GreedyTeamFinder::Make(net, Options(RankingStrategy::kSACACC))
                    .ValueOrDie();
  EXPECT_EQ(finder->name(), "greedy-SA-CA-CC");
}

TEST(GreedyFinderTest, InvalidOptionsRejected) {
  ExpertNetwork net = Figure1Network();
  FinderOptions o = Options(RankingStrategy::kCC);
  o.top_k = 0;
  EXPECT_FALSE(GreedyTeamFinder::Make(net, o).ok());
  o = Options(RankingStrategy::kCC, 1.5);
  EXPECT_FALSE(GreedyTeamFinder::Make(net, o).ok());
}

TEST(GreedyFinderTest, ExternalOracleMatchesOwnedOracle) {
  ExpertNetwork net = MediumNetwork();
  Project project = {net.skills().Find("a"), net.skills().Find("b"),
                     net.skills().Find("d")};
  // CC over a shared base-graph oracle.
  auto base_oracle =
      MakeOracle(net.graph(), OracleKind::kPrunedLandmarkLabeling).ValueOrDie();
  auto owned =
      GreedyTeamFinder::Make(net, Options(RankingStrategy::kCC)).ValueOrDie();
  auto external = GreedyTeamFinder::MakeWithExternalOracle(
                      net, Options(RankingStrategy::kCC), *base_oracle)
                      .ValueOrDie();
  EXPECT_NEAR(owned->FindTeams(project).ValueOrDie()[0].proxy_cost,
              external->FindTeams(project).ValueOrDie()[0].proxy_cost, 1e-12);

  // SA-CA-CC over a shared transformed-graph oracle.
  TransformedGraph transformed =
      BuildAuthorityTransform(net, 0.6).ValueOrDie();
  auto transformed_oracle =
      MakeOracle(transformed.graph, OracleKind::kPrunedLandmarkLabeling)
          .ValueOrDie();
  auto owned_sa =
      GreedyTeamFinder::Make(net, Options(RankingStrategy::kSACACC)).ValueOrDie();
  auto external_sa = GreedyTeamFinder::MakeWithExternalOracle(
                         net, Options(RankingStrategy::kSACACC),
                         *transformed_oracle)
                         .ValueOrDie();
  EXPECT_NEAR(owned_sa->FindTeams(project).ValueOrDie()[0].proxy_cost,
              external_sa->FindTeams(project).ValueOrDie()[0].proxy_cost, 1e-12);
}

TEST(GreedyFinderTest, ExternalOracleValidation) {
  ExpertNetwork net = MediumNetwork();
  ExpertNetwork other = Figure1Network();
  auto other_oracle =
      MakeOracle(other.graph(), OracleKind::kDijkstra).ValueOrDie();
  // Node-count mismatch rejected.
  EXPECT_FALSE(GreedyTeamFinder::MakeWithExternalOracle(
                   net, Options(RankingStrategy::kCC), *other_oracle)
                   .ok());
  // CC must use the network's own graph, not a transform.
  TransformedGraph transformed = BuildAuthorityTransform(net, 0.6).ValueOrDie();
  auto transformed_oracle =
      MakeOracle(transformed.graph, OracleKind::kDijkstra).ValueOrDie();
  EXPECT_FALSE(GreedyTeamFinder::MakeWithExternalOracle(
                   net, Options(RankingStrategy::kCC), *transformed_oracle)
                   .ok());
}

void ExpectSameTeams(const std::vector<ScoredTeam>& a,
                     const std::vector<ScoredTeam>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("rank " + std::to_string(i));
    EXPECT_EQ(a[i].team.root, b[i].team.root);
    EXPECT_EQ(a[i].team.nodes, b[i].team.nodes);
    EXPECT_EQ(a[i].proxy_cost, b[i].proxy_cost);  // bit-identical
    EXPECT_EQ(a[i].objective, b[i].objective);
  }
}

TEST(GreedyFinderTest, ParallelRootSweepIsBitIdentical) {
  // The parallel sweep merges per-strand candidates back in root order, so
  // the kept list — costs, tie-breaks, and ranking — must match the
  // sequential sweep exactly at any thread count.
  for (auto strategy : {RankingStrategy::kCC, RankingStrategy::kCACC,
                        RankingStrategy::kSACACC}) {
    SCOPED_TRACE(std::string(RankingStrategyToString(strategy)));
    for (uint32_t num_skills : {2u, 4u}) {
      ExpertNetwork net = RandomSmallNetwork(60, num_skills, 7 + num_skills);
      Project project;
      for (uint32_t s = 0; s < num_skills; ++s) {
        project.push_back(net.skills().Find("s" + std::to_string(s)));
      }
      FinderOptions sequential = Options(strategy, 0.6, 0.6, 5);
      sequential.oracle = OracleKind::kDijkstra;
      sequential.num_threads = 1;
      FinderOptions parallel = sequential;
      parallel.num_threads = 4;
      auto base = GreedyTeamFinder::Make(net, sequential).ValueOrDie();
      auto fan = GreedyTeamFinder::Make(net, parallel).ValueOrDie();
      ExpectSameTeams(base->FindTeams(project).ValueOrDie(),
                      fan->FindTeams(project).ValueOrDie());
    }
  }
}

TEST(GreedyFinderTest, ParallelRootSweepHonorsMaxRootsAndPolicies) {
  ExpertNetwork net = RandomSmallNetwork(60, 3, 11);
  Project project = {net.skills().Find("s0"), net.skills().Find("s1"),
                     net.skills().Find("s2")};
  for (auto policy :
       {RootSkillPolicy::kZeroCost, RootSkillPolicy::kFormulaZeroDist}) {
    FinderOptions sequential = Options(RankingStrategy::kSACACC, 0.6, 0.6, 3);
    sequential.oracle = OracleKind::kDijkstra;
    sequential.root_skill_policy = policy;
    sequential.max_roots = 17;  // strided sweep must shard identically
    sequential.num_threads = 1;
    FinderOptions parallel = sequential;
    parallel.num_threads = 3;
    auto base = GreedyTeamFinder::Make(net, sequential).ValueOrDie();
    auto fan = GreedyTeamFinder::Make(net, parallel).ValueOrDie();
    ExpectSameTeams(base->FindTeams(project).ValueOrDie(),
                    fan->FindTeams(project).ValueOrDie());
  }
}

TEST(GreedyFinderTest, BreakdownMatchesRecomputedObjective) {
  ExpertNetwork net = MediumNetwork();
  auto finder = GreedyTeamFinder::Make(net, Options(RankingStrategy::kSACACC))
                    .ValueOrDie();
  Project project = {net.skills().Find("a"), net.skills().Find("d")};
  auto teams = finder->FindTeams(project).ValueOrDie();
  ASSERT_FALSE(teams.empty());
  ASSERT_TRUE(teams[0].has_breakdown);
  ObjectiveParams params{.gamma = 0.6, .lambda = 0.6};
  ObjectiveBreakdown expect = ComputeBreakdown(net, teams[0].team, params);
  EXPECT_EQ(teams[0].breakdown.sa_ca_cc, expect.sa_ca_cc);
  EXPECT_EQ(teams[0].objective, expect.sa_ca_cc);
  EXPECT_EQ(teams[0].objective,
            EvaluateObjective(net, teams[0].team, RankingStrategy::kSACACC,
                              params));
}

// ---------------------------------------------------------------------------
// The sweep's bound pass (SweepRoot): per-skill hub aggregates must equal the
// exact skill cost up to the slack, and the bounded sweep must answer
// bit-identically to the unbounded one.

/// Random network for the bound tests: real-valued weights, authorities
/// log-uniform over [1e-3, 1e4], two components plus an isolated expert, and
/// a skill ("first") held only in the first component, so roots in the
/// second component and the isolated one reach no holder of it.
ExpertNetwork BoundTestNetwork(NodeId n, uint64_t seed) {
  constexpr uint32_t kSkills = 5;
  Rng rng(seed);
  ExpertNetworkBuilder b;
  b.set_authority_floor(1e-3);
  const NodeId split = n * 2 / 3;  // [0, split), [split, n - 1), {n - 1}
  for (NodeId v = 0; v < n; ++v) {
    std::vector<std::string> skills;
    for (uint32_t s = 0; s < kSkills; ++s) {
      if (v == s || rng.NextBool(0.25)) {
        skills.push_back("s" + std::to_string(s));
      }
    }
    if (v < split && (v == 0 || rng.NextBool(0.1))) skills.push_back("first");
    b.AddExpert("e" + std::to_string(v), std::move(skills),
                std::pow(10.0, rng.NextDouble(-3.0, 4.0)));
  }
  auto connect = [&](NodeId begin, NodeId end) {
    auto pick = [&](NodeId below) {
      return begin + static_cast<NodeId>(rng.NextBounded(below - begin));
    };
    for (NodeId v = begin + 1; v < end; ++v) {
      const NodeId u = pick(v);
      TD_CHECK_OK(b.AddEdge(u, v, rng.NextDouble(0.05, 3.0)));
    }
    for (NodeId i = 0; i < (end - begin) / 2; ++i) {
      const NodeId u = pick(end), v = pick(end);
      if (u != v) (void)b.AddEdge(u, v, rng.NextDouble(0.05, 3.0));
    }
  };
  connect(0, split);
  connect(split, n - 1);
  return b.Finish().ValueOrDie();
}

constexpr double kGammas[] = {0.0, 0.25, 0.5, 0.75, 1.0};
constexpr double kLambdas[] = {0.0, 0.3, 0.6, 0.9, 1.0};

TEST(GreedyBoundTest, SkillBoundMatchesExactSkillCost) {
  // For every root and skill, a·bound must lie within the slack of
  // min_v AdjustedCost(DIST(root, v), v) with DIST from DistancesInto, and be
  // +inf exactly when no holder is reachable.
  ExpertNetwork net = BoundTestNetwork(90, 3);
  size_t finite = 0, unreachable = 0;
  std::vector<double> dists;
  for (auto strategy : {RankingStrategy::kCC, RankingStrategy::kCACC,
                        RankingStrategy::kSACACC}) {
    for (double gamma : kGammas) {
      if (strategy == RankingStrategy::kCC && gamma != 0.0) continue;
      auto finder = GreedyTeamFinder::Make(net, Options(strategy, gamma, 0.0))
                        .ValueOrDie();
      for (double lambda : kLambdas) {
        if (strategy != RankingStrategy::kSACACC && lambda != 0.0) continue;
        ASSERT_TRUE(finder->set_lambda(lambda).ok());
        for (SkillId s = 0; s < net.num_skills(); ++s) {
          SCOPED_TRACE(StrFormat(
              "%s gamma %.2f lambda %.2f skill %u",
              std::string(RankingStrategyToString(strategy)).c_str(), gamma,
              lambda, s));
          const std::span<const NodeId> holders = net.ExpertsWithSkill(s);
          auto bound = finder->MakeSkillBound(holders);
          if (lambda == 1.0) {  // a == 0: no bound to read
            EXPECT_FALSE(bound.has_value());
            continue;
          }
          ASSERT_TRUE(bound.has_value());
          for (NodeId root = 0; root < net.num_experts(); ++root) {
            finder->oracle().DistancesInto(root, holders, dists);
            double exact = kInfDistance;
            for (size_t c = 0; c < holders.size(); ++c) {
              if (dists[c] == kInfDistance) continue;
              exact =
                  std::min(exact, finder->AdjustedCost(dists[c], holders[c]));
            }
            const double got = bound->Cost(root);
            if (exact == kInfDistance) {
              ASSERT_EQ(got, kInfDistance) << "root " << root;
              ++unreachable;
              continue;
            }
            ASSERT_NE(got, kInfDistance) << "root " << root;
            const double slack = GreedyTeamFinder::kBoundSlack *
                                 (std::abs(got) + bound->max_abs_offset);
            ASSERT_LE(std::abs(got - exact), slack)
                << "root " << root << ": bound " << got << " exact " << exact;
            ++finite;
          }
        }
      }
    }
  }
  EXPECT_GT(finite, 0u);
  EXPECT_GT(unreachable, 0u);
}

TEST(GreedyBoundTest, BoundIsOffWhereItCannotPrune) {
  ExpertNetwork net = BoundTestNetwork(30, 4);
  const std::span<const NodeId> holders = net.ExpertsWithSkill(0);
  // The ablation policy's partial sums are not monotone.
  FinderOptions formula = Options(RankingStrategy::kCACC);
  formula.root_skill_policy = RootSkillPolicy::kFormulaZeroDist;
  EXPECT_FALSE(GreedyTeamFinder::Make(net, formula)
                   .ValueOrDie()
                   ->MakeSkillBound(holders)
                   .has_value());
  // Oracles without hub labels.
  for (OracleKind kind :
       {OracleKind::kDijkstra, OracleKind::kBidirectionalDijkstra}) {
    FinderOptions o = Options(RankingStrategy::kCC);
    o.oracle = kind;
    EXPECT_FALSE(GreedyTeamFinder::Make(net, o)
                     .ValueOrDie()
                     ->MakeSkillBound(holders)
                     .has_value());
  }
}

/// Forwards every query to an index and counts DistancesInto calls. It
/// passes the index's target-set bound on only when `offer_bound`, so two
/// finders over the same index differ in the bound pass alone.
class ForwardingOracle final : public DistanceOracle {
 public:
  ForwardingOracle(const DistanceOracle& inner, bool offer_bound)
      : inner_(inner), offer_bound_(offer_bound) {}

  double Distance(NodeId u, NodeId v) const override {
    return inner_.Distance(u, v);
  }
  Result<std::vector<NodeId>> ShortestPath(NodeId u, NodeId v) const override {
    return inner_.ShortestPath(u, v);
  }
  void DistancesInto(NodeId source, std::span<const NodeId> targets,
                     std::vector<double>& out) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    inner_.DistancesInto(source, targets, out);
  }
  std::unique_ptr<const TargetSetBound> MakeTargetSetBound(
      std::span<const NodeId> targets,
      std::span<const double> offsets) const override {
    return offer_bound_ ? inner_.MakeTargetSetBound(targets, offsets) : nullptr;
  }
  std::string name() const override { return "forwarding"; }
  const Graph& graph() const override { return inner_.graph(); }

  mutable std::atomic<uint64_t> calls{0};

 private:
  const DistanceOracle& inner_;
  const bool offer_bound_;
};

TEST(GreedyBoundTest, BoundedSweepIsBitIdenticalToUnbounded) {
  size_t answers = 0;
  ExpertNetwork net = BoundTestNetwork(64, 11);
  const std::vector<std::vector<std::string>> projects = {
      {"s0", "s1"}, {"s2", "first"}, {"first", "s1", "s3", "s4"}};
  auto base = PrunedLandmarkLabeling::Build(net.graph()).ValueOrDie();
  for (auto strategy : {RankingStrategy::kCC, RankingStrategy::kCACC,
                        RankingStrategy::kSACACC}) {
    for (double gamma : kGammas) {
      if (strategy == RankingStrategy::kCC && gamma != 0.0) continue;
      std::optional<TransformedGraph> transformed;
      std::unique_ptr<PrunedLandmarkLabeling> index;
      if (strategy != RankingStrategy::kCC) {
        transformed.emplace(BuildAuthorityTransform(net, gamma).ValueOrDie());
        index = PrunedLandmarkLabeling::Build(transformed->graph).ValueOrDie();
      }
      const DistanceOracle& pll = index ? *index : *base;
      ForwardingOracle with_bound(pll, true);
      ForwardingOracle without_bound(pll, false);
      for (auto policy :
           {RootSkillPolicy::kZeroCost, RootSkillPolicy::kFormulaZeroDist}) {
        for (size_t threads : {1u, 3u}) {
          for (uint32_t max_roots : {0u, 23u}) {
            FinderOptions o = Options(strategy, gamma, 0.0);
            o.root_skill_policy = policy;
            o.num_threads = threads;
            o.max_roots = max_roots;
            auto bounded = GreedyTeamFinder::MakeWithExternalOracle(
                               net, o, with_bound)
                               .ValueOrDie();
            auto plain = GreedyTeamFinder::MakeWithExternalOracle(
                             net, o, without_bound)
                             .ValueOrDie();
            for (double lambda : kLambdas) {
              if (strategy != RankingStrategy::kSACACC && lambda != 0.0) {
                continue;
              }
              ASSERT_TRUE(bounded->set_lambda(lambda).ok());
              ASSERT_TRUE(plain->set_lambda(lambda).ok());
              for (uint32_t top_k : {1u, 5u}) {
                ASSERT_TRUE(bounded->set_top_k(top_k).ok());
                ASSERT_TRUE(plain->set_top_k(top_k).ok());
                for (const auto& names : projects) {
                  SCOPED_TRACE(StrFormat(
                      "%s gamma %.2f lambda %.2f top_k %u policy %d "
                      "threads %zu max_roots %u project %s",
                      std::string(RankingStrategyToString(strategy)).c_str(),
                      gamma, lambda, top_k, static_cast<int>(policy), threads,
                      max_roots, Join(names, ",").c_str()));
                  const Project project = MakeProject(net, names).ValueOrDie();
                  auto got = bounded->FindTeams(project);
                  auto want = plain->FindTeams(project);
                  ASSERT_EQ(got.status().code(), want.status().code());
                  if (want.ok()) {
                    ExpectSameTeams(got.ValueOrDie(), want.ValueOrDie());
                  }
                  ++answers;
                }
              }
            }
          }
        }
      }
      // Not vacuous: the bound pass spared the scan for some roots.
      EXPECT_LT(with_bound.calls.load(), without_bound.calls.load());
    }
  }
  EXPECT_EQ(answers, (1u + 5 + 25) * 2 * 2 * 2 * 2 * 3);
}

TEST(MakeProjectTest, ResolvesNames) {
  ExpertNetwork net = Figure1Network();
  Project p = MakeProject(net, {"SN", "TM"}).ValueOrDie();
  EXPECT_EQ(p.size(), 2u);
  EXPECT_TRUE(MakeProject(net, {"SN", "bogus"}).status().IsNotFound());
}

TEST(MakeProjectTest, RejectsDuplicateSkillNamingIt) {
  ExpertNetwork net = Figure1Network();
  Status dup = MakeProject(net, {"SN", "TM", "SN"}).status();
  EXPECT_TRUE(dup.IsInvalidArgument()) << dup;
  EXPECT_NE(dup.message().find("'SN'"), std::string::npos) << dup;
}

}  // namespace
}  // namespace teamdisc
