// Shared helpers for the tests that check the determinism contract on the
// serving path — RequestPipeline → TeamDiscoveryService::TopK, the path every
// /find request takes — and drive it through live updates.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "network/network_delta.h"
#include "serving/request_pipeline.h"

namespace teamdisc {

/// Deterministic update mix of `count` deltas against `net`. Even positions
/// toggle a synthetic "churn" skill on one expert — index-neutral churn that
/// a healthy epoch swap absorbs with zero rebuilds. Odd positions reweight
/// one collaboration edge, invalidating the base index and every transform.
/// Deltas never add or remove experts, so expert ids stay stable; they are
/// only valid applied in order, each against the network its predecessors
/// produce.
inline std::vector<ExpertNetworkDelta> MakeDeltaMix(const ExpertNetwork& net,
                                                    size_t count,
                                                    uint64_t seed = 7) {
  Rng rng(seed);
  std::vector<ExpertNetworkDelta> deltas;
  deltas.reserve(count);
  // Track mutable state locally so every delta is valid against the network
  // its predecessors produce: which experts hold the churn skill, and each
  // edge's current weight.
  std::vector<bool> has_churn_skill(net.num_experts(), false);
  std::vector<Edge> edges = net.graph().CanonicalEdges();
  for (size_t i = 0; i < count; ++i) {
    ExpertNetworkDelta delta;
    if (i % 2 == 0 && net.num_experts() > 0) {
      const NodeId expert =
          static_cast<NodeId>(rng.NextBounded(net.num_experts()));
      if (has_churn_skill[expert]) {
        delta.RevokeSkill(expert, "churn");
      } else {
        delta.AddSkill(expert, "churn");
      }
      has_churn_skill[expert] = !has_churn_skill[expert];
    } else if (!edges.empty()) {
      Edge& edge = edges[rng.NextBounded(edges.size())];
      // Alternate growth and shrink so repeated reweights of one edge stay
      // bounded instead of drifting toward overflow.
      edge.weight = i % 4 < 2 ? edge.weight * 1.25 : edge.weight * 0.8;
      delta.ReweightCollaboration(edge.u, edge.v, edge.weight);
    }
    deltas.push_back(std::move(delta));
  }
  return deltas;
}

/// Answers `requests` through a RequestPipeline with `workers` dispatch
/// workers, every request submitted before any is awaited. Entry i is
/// request i's teams (empty when infeasible); any other failure — shed,
/// expired, hard error — fails the calling test.
inline std::vector<std::vector<ScoredTeam>> ServeThroughPipeline(
    const TeamDiscoveryService& svc, const std::vector<TeamRequest>& requests,
    size_t workers) {
  PipelineOptions options;
  options.workers = workers;
  options.queue_capacity = requests.size();  // all admitted, none shed
  auto pipeline = RequestPipeline::Start(svc, options).ValueOrDie();
  SubmitOptions no_deadline;
  no_deadline.deadline_ms = -1.0;
  std::vector<ResponseHandle> handles;
  for (const TeamRequest& request : requests) {
    handles.push_back(pipeline->Submit(request, no_deadline).ValueOrDie());
  }
  std::vector<std::vector<ScoredTeam>> results(requests.size());
  for (size_t i = 0; i < handles.size(); ++i) {
    const Result<std::vector<ScoredTeam>>& result = handles[i].Wait();
    if (result.ok()) {
      results[i] = result.ValueOrDie();
    } else if (!result.status().IsInfeasible()) {
      ADD_FAILURE() << "request " << i << " at " << workers
                    << " worker(s): " << result.status().ToString();
    }
  }
  return results;
}

/// Expects two answer lists to be bit-identical: members, proxy_cost and
/// objective of every team, in rank order.
inline void ExpectSameResults(const std::vector<std::vector<ScoredTeam>>& a,
                              const std::vector<std::vector<ScoredTeam>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "request " << i;
    for (size_t k = 0; k < a[i].size(); ++k) {
      EXPECT_EQ(a[i][k].team.nodes, b[i][k].team.nodes) << "request " << i;
      EXPECT_EQ(a[i][k].proxy_cost, b[i][k].proxy_cost) << "request " << i;
      EXPECT_EQ(a[i][k].objective, b[i][k].objective) << "request " << i;
    }
  }
}

}  // namespace teamdisc
