// Common interface of all team-discovery algorithms (greedy, exact, random,
// baselines), plus the options shared between them.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/objectives.h"
#include "core/team.h"
#include "shortest_path/distance_oracle.h"

namespace teamdisc {

/// \brief Per-skill cost charged when the root itself holds the skill
/// (see DESIGN.md "Root-holds-skill policy").
enum class RootSkillPolicy {
  /// CC / CA-CC charge 0; SA-CA-CC charges lambda * a'(root) (default).
  kZeroCost,
  /// Substitute DIST = 0, v = root literally into the strategy formula
  /// (CA-CC then yields a -gamma*a'(root) credit). Ablation option.
  kFormulaZeroDist,
};

/// \brief Options of the greedy finder (and defaults for others).
struct FinderOptions {
  RankingStrategy strategy = RankingStrategy::kSACACC;
  ObjectiveParams params;
  /// How many teams to return (the paper's top-k list L).
  uint32_t top_k = 1;
  /// Distance-oracle implementation (E7 ablation).
  OracleKind oracle = OracleKind::kPrunedLandmarkLabeling;
  RootSkillPolicy root_skill_policy = RootSkillPolicy::kZeroCost;
  /// Drop teams whose node set duplicates a better-ranked team.
  bool dedupe_top_k = true;
  /// Overprovision factor while sweeping so dedup can still fill k slots.
  uint32_t dedupe_buffer_factor = 4;
  /// If non-zero, only this many roots (evenly strided) are swept —
  /// a documented approximation for very large graphs; 0 sweeps all roots
  /// exactly as in the paper's Algorithm 1.
  uint32_t max_roots = 0;
  /// Worker threads for the greedy root sweep. 1 (default) runs the classic
  /// sequential loop; 0 resolves to the hardware concurrency. Results are
  /// bit-identical at any thread count (candidates are merged back in root
  /// order), so this is purely a latency knob.
  size_t num_threads = 1;

  Status Validate() const;
};

/// \brief A team with the cost that ranked it.
struct ScoredTeam {
  Team team;
  /// The finder's internal (proxy) cost, i.e. Algorithm 1's teamCost.
  double proxy_cost = 0.0;
  /// The exact objective of `team` under the finder's strategy/params,
  /// recomputed on the original network.
  double objective = 0.0;
  /// Full objective breakdown of `team` (valid iff has_breakdown). The
  /// greedy finder fills it as a byproduct of scoring so evaluation
  /// harnesses never recompute the components per project.
  ObjectiveBreakdown breakdown;
  bool has_breakdown = false;
};

/// \brief Abstract team-discovery algorithm.
class TeamFinder {
 public:
  virtual ~TeamFinder() = default;

  /// Returns up to top-k teams covering `project`, best first. Fails with
  /// Infeasible when some skill has no holder reachable in one component.
  virtual Result<std::vector<ScoredTeam>> FindTeams(const Project& project) = 0;

  /// Convenience: best single team.
  Result<Team> FindBest(const Project& project);

  virtual std::string name() const = 0;
  virtual const ExpertNetwork& network() const = 0;
};

/// Parses a project given by skill names against `net`'s vocabulary. Fails
/// NotFound on an unknown name and InvalidArgument on a name given twice.
Result<Project> MakeProject(const ExpertNetwork& net,
                            const std::vector<std::string>& skill_names);

}  // namespace teamdisc
