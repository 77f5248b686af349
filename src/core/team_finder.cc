#include "core/team_finder.h"

#include <algorithm>

#include "common/string_util.h"

namespace teamdisc {

Status FinderOptions::Validate() const {
  TD_RETURN_IF_ERROR(params.Validate());
  if (top_k == 0) return Status::InvalidArgument("top_k must be >= 1");
  if (dedupe_buffer_factor == 0) {
    return Status::InvalidArgument("dedupe_buffer_factor must be >= 1");
  }
  return Status::OK();
}

Result<Team> TeamFinder::FindBest(const Project& project) {
  TD_ASSIGN_OR_RETURN(std::vector<ScoredTeam> teams, FindTeams(project));
  if (teams.empty()) {
    return Status::Infeasible("no team covers the requested project");
  }
  return std::move(teams.front().team);
}

Result<Project> MakeProject(const ExpertNetwork& net,
                            const std::vector<std::string>& skill_names) {
  Project project;
  project.reserve(skill_names.size());
  for (const std::string& name : skill_names) {
    SkillId id = net.skills().Find(name);
    if (id == kInvalidSkill) {
      return Status::NotFound(StrFormat("unknown skill '%s'", name.c_str()));
    }
    // A project is a set: a repeated skill would be swept again at full
    // cost without changing the team.
    if (std::find(project.begin(), project.end(), id) != project.end()) {
      return Status::InvalidArgument(
          StrFormat("skill '%s' is named twice", name.c_str()));
    }
    project.push_back(id);
  }
  return project;
}

}  // namespace teamdisc
