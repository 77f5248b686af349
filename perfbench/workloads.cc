#include <algorithm>
#include <cctype>
#include <cstdio>

#include "perfbench.h"

namespace perfbench {

using teamdisc::ExpertNetwork;
using teamdisc::ExpertNetworkDelta;
using teamdisc::SkillId;

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

SkillPools MakeSkillPools(const ExpertNetwork& net) {
  struct Held {
    SkillId skill;
    size_t holders;
  };
  std::vector<Held> held;
  for (SkillId s = 0; s < net.num_skills(); ++s) {
    const std::string& name = net.skills().NameUnchecked(s);
    // /find splits the skills parameter on ',' and trims whitespace, so such
    // names cannot be requested verbatim.
    if (name.empty() || name.find(',') != std::string::npos ||
        name.front() == ' ' || name.back() == ' ') {
      continue;
    }
    const size_t holders = net.ExpertsWithSkill(s).size();
    if (holders > 0) held.push_back({s, holders});
  }
  SkillPools pools;
  for (const Held& h : held) {
    if (h.holders >= kHeavyMinHolders) pools.heavy.push_back(h.skill);
  }
  if (pools.heavy.empty()) {
    // A corpus too small to have skills that common (the self-test's):
    // its three most-held skills stand in.
    std::vector<Held> by_holders = held;
    std::stable_sort(by_holders.begin(), by_holders.end(),
                     [](const Held& a, const Held& b) {
                       return a.holders > b.holders;
                     });
    for (size_t i = 0; i < by_holders.size() && i < 3; ++i) {
      pools.heavy.push_back(by_holders[i].skill);
    }
    std::sort(pools.heavy.begin(), pools.heavy.end());
  }
  for (const Held& h : held) {
    if (h.holders <= kLightMaxHolders &&
        !std::binary_search(pools.heavy.begin(), pools.heavy.end(), h.skill)) {
      pools.light.push_back(h.skill);
    }
  }
  return pools;
}

FindRequest MakeRequest(const ExpertNetwork& net,
                        const std::vector<SkillId>& skills, double gamma) {
  FindRequest request;
  request.gamma = gamma;
  std::string joined;
  for (const SkillId s : skills) {
    request.skills.push_back(net.skills().NameUnchecked(s));
    request.holders += net.ExpertsWithSkill(s).size();
    if (!joined.empty()) joined += ',';
    joined += request.skills.back();
  }
  std::string encoded;
  for (const unsigned char c : joined) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~' ||
        c == ',') {
      encoded += static_cast<char>(c);
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      encoded += buf;
    }
  }
  char params[96];
  std::snprintf(params, sizeof(params),
                "&strategy=sacacc&gamma=%g&lambda=%g&top_k=1", gamma, kLambda);
  request.target = "/find?skills=" + encoded + params;
  return request;
}

namespace {

/// Appends `count` distinct light skills not already in `skills`.
void DrawLight(const SkillPools& pools, size_t count, SplitMix& rng,
               std::vector<SkillId>& skills) {
  const size_t want = std::min(skills.size() + count, pools.light.size());
  while (skills.size() < want) {
    const SkillId s = pools.light[rng.Below(pools.light.size())];
    if (std::find(skills.begin(), skills.end(), s) == skills.end()) {
      skills.push_back(s);
    }
  }
}

}  // namespace

std::vector<FindRequest> MakeLightRequests(const ExpertNetwork& net,
                                           const SkillPools& pools,
                                           size_t count, uint64_t seed) {
  SplitMix rng(seed);
  std::vector<FindRequest> requests;
  for (size_t i = 0; i < count; ++i) {
    std::vector<SkillId> skills;
    DrawLight(pools, 3, rng, skills);
    requests.push_back(MakeRequest(net, skills, kGammas[i % 3]));
  }
  return requests;
}

std::vector<FindRequest> MakeHeavyRequests(const ExpertNetwork& net,
                                           const SkillPools& pools,
                                           size_t cycles, uint64_t seed) {
  // Only the light co-skills come from the seed. The heavy skill and its
  // position follow a fixed schedule because SweepRoot prunes a root only on
  // the skills it has already scanned: the same mix costs ~10x more with
  // the heavy skill named first than with it named last.
  SplitMix rng(seed ^ 0x68656176795f6d78ULL);
  const size_t h = pools.heavy.size();
  std::vector<FindRequest> requests;
  for (size_t j = 0; j < cycles * h * 3; ++j) {
    std::vector<SkillId> light;
    DrawLight(pools, 2, rng, light);
    std::vector<SkillId> skills = light;
    const size_t position = (j / h) % 3;
    skills.insert(skills.begin() + std::min(position, skills.size()),
                  pools.heavy[j % h]);
    requests.push_back(MakeRequest(net, skills, kGammas[j % 3]));
  }
  return requests;
}

std::vector<ExpertNetworkDelta> MakeReweightDeltas(const ExpertNetwork& net,
                                                   size_t count,
                                                   uint64_t seed) {
  SplitMix rng(seed ^ 0x636875726e5f6d78ULL);
  std::vector<teamdisc::Edge> edges = net.graph().CanonicalEdges();
  std::vector<uint32_t> times_reweighted(edges.size(), 0);
  std::vector<ExpertNetworkDelta> deltas(count);
  for (ExpertNetworkDelta& delta : deltas) {
    if (edges.empty()) break;
    const size_t e = rng.Below(edges.size());
    // Alternate growth and shrink so an edge drawn repeatedly stays bounded.
    edges[e].weight *= times_reweighted[e]++ % 2 == 0 ? 1.25 : 0.8;
    delta.ReweightCollaboration(edges[e].u, edges[e].v, edges[e].weight);
  }
  return deltas;
}

}  // namespace perfbench
