// Algorithm 1 of the paper and its CA-CC / SA-CA-CC modifications (§3.2).
//
// The finder sweeps every node as a candidate root; for each required skill
// it picks the skill holder with the smallest strategy-adjusted DIST from
// the root, answered by a distance oracle over either G (for CC) or the
// authority-transformed G' (for CA-CC and SA-CA-CC). The team is the union
// of the root-to-holder shortest paths; top-k teams are kept in a bounded
// list ranked by the summed proxy cost.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "core/team_finder.h"
#include "core/top_k.h"
#include "network/authority_transform.h"

namespace teamdisc {

/// \brief The paper's greedy team-discovery algorithm.
class GreedyTeamFinder final : public TeamFinder {
 public:
  /// Builds the finder: constructs G' when the strategy needs it and the
  /// configured distance oracle over the search graph. `net` must outlive
  /// the finder.
  static Result<std::unique_ptr<GreedyTeamFinder>> Make(const ExpertNetwork& net,
                                                        FinderOptions options);

  /// Like Make, but reuses an externally owned oracle instead of building
  /// one. The oracle must answer queries over net.graph() for the CC
  /// strategy, or over the authority transform G' built with
  /// options.params.gamma for CA-CC / SA-CA-CC (the caller owns both the
  /// oracle and the transformed graph, which must outlive the finder).
  /// Lets experiment harnesses share one index across finders; the
  /// options.oracle field is ignored.
  static Result<std::unique_ptr<GreedyTeamFinder>> MakeWithExternalOracle(
      const ExpertNetwork& net, FinderOptions options,
      const DistanceOracle& oracle);

  Result<std::vector<ScoredTeam>> FindTeams(const Project& project) override;

  std::string name() const override;
  const ExpertNetwork& network() const override { return net_; }
  const FinderOptions& options() const { return options_; }

  /// Re-points lambda without rebuilding anything: the transform G' and the
  /// oracle depend only on gamma, so lambda sweeps (Figures 3 and 5) reuse
  /// the index. Fails when lambda is outside [0, 1].
  Status set_lambda(double lambda);

  /// Re-points top_k (cheap; affects only the kept-list size).
  Status set_top_k(uint32_t top_k);

  /// The oracle used for DIST (exposed for benchmarks/diagnostics).
  const DistanceOracle& oracle() const { return *oracle_; }

  /// Takes shared ownership of the external oracle this finder was wired to
  /// via MakeWithExternalOracle, so a cache that might evict the index (and
  /// everything aliased to its entry, e.g. the transformed graph) cannot
  /// free it while this finder is alive. No-op semantics otherwise.
  void RetainOracle(std::shared_ptr<const DistanceOracle> oracle) {
    oracle_pin_ = std::move(oracle);
  }

  /// The node count of the search graph — used to sanity-check external
  /// oracles.
  NodeId num_search_nodes() const { return net_.num_experts(); }

  /// Strategy-adjusted per-skill cost for assigning `holder` from `root`
  /// at oracle distance `dist` (the DIST(root,v) replacement of §3.2.2/3.2.3).
  /// Every strategy's form is a·dist + b(holder) with a >= 0.
  double AdjustedCost(double dist, NodeId holder) const;

  /// \brief One skill's cost from any root, read from the root's own label
  /// (see SweepRoot and docs/ARCHITECTURE.md "Greedy sweep: bound, then
  /// scan").
  struct SkillBound {
    /// a · min over holders v of (DIST(root, v) + b(v)/a): the exact
    /// min_v AdjustedCost(DIST(root, v), v) up to rounding, kInfDistance when
    /// no holder is reachable.
    double Cost(NodeId root) const {
      return scale * holders->MinOffsetDistance(root);
    }
    double scale;           ///< a
    double max_abs_offset;  ///< max over holders of |b(v)|, for the slack
    std::unique_ptr<const TargetSetBound> holders;
  };

  /// The bound over the holder set `holders`, or nullopt when the bound is
  /// off: an oracle without hub labels, RootSkillPolicy::kFormulaZeroDist,
  /// or a == 0 (SA-CA-CC at lambda = 1). Public for the bound tests.
  std::optional<SkillBound> MakeSkillBound(
      std::span<const NodeId> holders) const;

  /// Relative slack of the bound pass: a root is rejected only when its
  /// summed bounds minus kBoundSlack · Σ (|bound_i| + max_abs_offset_i)
  /// cannot enter the kept list. It absorbs the rounding between the bound
  /// and the exact cost, which add the same terms in different orders.
  static constexpr double kBoundSlack = 1e-9;

 private:
  struct Candidate;

  GreedyTeamFinder(const ExpertNetwork& net, FinderOptions options)
      : net_(net), options_(std::move(options)) {}

  /// Cost charged when the root itself holds the skill.
  double RootHoldsSkillCost(NodeId root) const;

  /// Evaluates one candidate root against every required skill, inserting a
  /// surviving candidate into `best`. `bounds` is empty when the bound is
  /// off, else one SkillBound per project skill; it is read-only, so the
  /// sweep strands share it. `dists` is reusable scratch for the batched
  /// oracle call; each sweep strand owns its own `best`/`dists`.
  void SweepRoot(NodeId root,
                 const std::vector<std::span<const NodeId>>& candidates,
                 const std::vector<SkillBound>& bounds, const Project& project,
                 TopK<Candidate>& best, std::vector<double>& dists) const;

  const ExpertNetwork& net_;
  FinderOptions options_;
  /// Non-null iff options_.num_threads resolved to > 1 at construction;
  /// shared by all FindTeams calls on this finder.
  std::unique_ptr<ThreadPool> pool_;
  /// Non-null iff strategy uses the transform AND the finder owns it.
  std::unique_ptr<TransformedGraph> transformed_;
  /// Non-null iff the finder owns its oracle (Make); MakeWithExternalOracle
  /// leaves this empty and only sets oracle_.
  std::unique_ptr<DistanceOracle> owned_oracle_;
  /// Optional shared ownership of an external oracle (see RetainOracle).
  std::shared_ptr<const DistanceOracle> oracle_pin_;
  /// Oracle over net_.graph() (CC) or the transformed graph (others).
  const DistanceOracle* oracle_ = nullptr;
};

}  // namespace teamdisc
