#include "service/team_discovery_service.h"

#include <cstdlib>
#include <filesystem>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/greedy_team_finder.h"
#include "network/network_io.h"

namespace teamdisc {

std::string_view HealthStateToString(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "HEALTHY";
    case HealthState::kDegraded:
      return "DEGRADED";
  }
  return "UNKNOWN";
}

Result<std::unique_ptr<TeamDiscoveryService>> TeamDiscoveryService::Open(
    ServiceOptions options) {
  if (options.snapshot_dir.empty()) {
    return Status::InvalidArgument("ServiceOptions::snapshot_dir is required");
  }
  auto svc = std::unique_ptr<TeamDiscoveryService>(new TeamDiscoveryService());
  svc->options_ = std::move(options);
  svc->retry_options_ = RetryOptions::FromEnv();
  TD_ASSIGN_OR_RETURN(svc->manifest_,
                      ReadSnapshotManifest(svc->options_.snapshot_dir));
  // Sweep temp files a crashed predecessor leaked mid-write. Startup is the
  // one point where this process cannot be racing its own persists.
  RemoveStaleSnapshotTempFiles(svc->options_.snapshot_dir);
  const std::string net_path =
      (std::filesystem::path(svc->options_.snapshot_dir) /
       svc->manifest_.network_file)
          .string();
  TD_ASSIGN_OR_RETURN(ExpertNetwork net, LoadNetwork(net_path));
  const uint64_t actual = WeightedEdgeFingerprint(net.graph());
  if (actual != svc->manifest_.network_fingerprint) {
    return Status::InvalidArgument(StrFormat(
        "snapshot network %s hashes to %016llx but the manifest records "
        "%016llx: the snapshot is internally inconsistent",
        net_path.c_str(), static_cast<unsigned long long>(actual),
        static_cast<unsigned long long>(svc->manifest_.network_fingerprint)));
  }

  svc->cache_options_.memory_budget_bytes = svc->options_.cache_budget_bytes;
  if (svc->cache_options_.memory_budget_bytes == 0) {
    // Parse the env budget by hand so a typo'd value warns instead of
    // silently running unbounded (the same failure mode the thread-count
    // resolution guards against).
    if (const char* raw = std::getenv("TEAMDISC_CACHE_BUDGET_MB")) {
      auto parsed = ParseUint64(raw);
      if (!parsed.ok()) {
        TD_LOG(Warning) << "TEAMDISC_CACHE_BUDGET_MB='" << raw
                        << "' is not a valid MiB count ("
                        << parsed.status().ToString()
                        << "); cache runs unbounded";
      } else {
        svc->cache_options_.memory_budget_bytes =
            static_cast<size_t>(parsed.ValueOrDie()) * (size_t{1} << 20);
      }
    }
  }

  auto epoch = std::make_shared<Epoch>();
  epoch->generation = svc->manifest_.generation;
  epoch->net = std::make_shared<const ExpertNetwork>(std::move(net));
  epoch->cache =
      std::make_unique<OracleCache>(*epoch->net, svc->cache_options_);
  svc->InstallArtifactHooks(*epoch->cache);
  svc->epoch_ = std::move(epoch);
  return svc;
}

void TeamDiscoveryService::InstallArtifactHooks(OracleCache& cache) {
  cache.set_artifact_loader(
      [this](const OracleCache::EntryInfo& info, const Graph& search_graph)
          -> Result<std::unique_ptr<DistanceOracle>> {
        TD_RETURN_IF_ERROR(FaultInjection::MaybeFail("oracle.artifact.load"));
        // Copy the manifest under the lock, but run the disk read +
        // deserialization outside it: concurrent cold loads of distinct
        // indexes must proceed in parallel, not serialize on manifest_mu_.
        SnapshotManifest manifest;
        {
          std::lock_guard<std::mutex> lock(manifest_mu_);
          manifest = manifest_;
        }
        // Known-stale artifacts (recorded fingerprint != this search graph,
        // the normal case for invalidated indexes during an epoch swap) are
        // skipped without touching the disk: deserializing them could only
        // fail the fingerprint check. Returning "no artifact" sends the
        // cache down the fresh-build path, and the saver repairs the
        // snapshot after.
        if (const SnapshotIndexEntry* entry = FindSnapshotIndexEntry(
                manifest, info.transformed, info.gamma_bp, info.kind);
            entry != nullptr &&
            entry->fingerprint != WeightedEdgeFingerprint(search_graph)) {
          return std::unique_ptr<DistanceOracle>(nullptr);
        }
        return LoadIndexArtifact(options_.snapshot_dir, manifest,
                                 info.transformed, info.gamma_bp, info.kind,
                                 search_graph);
      });
  if (options_.persist_built_indexes) {
    cache.set_artifact_saver(
        [this](const OracleCache::EntryInfo& info, const DistanceOracle& oracle) {
          // persist_mu_ serializes whole persist operations so manifest
          // rewrites stay ordered; manifest_mu_ is held only for the
          // in-memory copy/commit, never across the artifact disk write —
          // concurrent cold loads and manifest() readers keep flowing.
          std::lock_guard<std::mutex> persist_lock(persist_mu_);
          SnapshotManifest manifest;
          {
            std::lock_guard<std::mutex> lock(manifest_mu_);
            manifest = manifest_;
          }
          // Each retry attempt works on a fresh copy of the manifest: a
          // first attempt that mutated the copy but failed the manifest
          // write must not make the second attempt think the entry is
          // already committed.
          Status persisted = RetryTransient(
              "artifact persist", retry_options_, [&]() -> Status {
                TD_RETURN_IF_ERROR(
                    FaultInjection::MaybeFail("oracle.artifact.save"));
                SnapshotManifest attempt = manifest;
                TD_RETURN_IF_ERROR(
                    AddIndexArtifact(options_.snapshot_dir, attempt,
                                     info.transformed, info.gamma_bp,
                                     info.kind, oracle));
                manifest = std::move(attempt);
                return Status::OK();
              });
          if (persisted.ok()) {
            std::lock_guard<std::mutex> lock(manifest_mu_);
            manifest_ = std::move(manifest);
          } else {
            // Persisting is an optimization for the next process; failing to
            // write it must not fail the request that triggered the build —
            // the entry serves from memory, and health flips DEGRADED so an
            // operator sees the snapshot lagging.
            TD_LOG(Warning) << "could not persist index into snapshot: "
                            << persisted.ToString();
            RecordPersistFailure();
          }
        });
  }
}

std::shared_ptr<const ExpertNetwork> TeamDiscoveryService::network() const {
  return CurrentEpoch()->net;
}

uint64_t TeamDiscoveryService::generation() const {
  return CurrentEpoch()->generation;
}

OracleCache::Stats TeamDiscoveryService::cache_stats() const {
  return CurrentEpoch()->cache->stats();
}

Result<FinderOptions> TeamDiscoveryService::MakeFinderOptions(
    const TeamRequest& request) const {
  FinderOptions options;
  options.strategy = request.strategy;
  options.params.gamma = request.gamma;
  options.params.lambda = request.lambda;
  options.top_k = request.top_k;
  options.num_threads = 1;  // pipeline workers are the parallelism
  TD_RETURN_IF_ERROR(options.Validate());
  return options;
}

Result<std::vector<ScoredTeam>> TeamDiscoveryService::TopK(
    const TeamRequest& request, EpochRef* solved_on) const {
  // One epoch for the whole request: network, project resolution, and index
  // always agree even if an ApplyDelta swap lands mid-request.
  const std::shared_ptr<const Epoch> epoch = CurrentEpoch();
  if (solved_on != nullptr) *solved_on = {epoch->generation, epoch->net};
  TD_ASSIGN_OR_RETURN(FinderOptions options, MakeFinderOptions(request));
  TD_ASSIGN_OR_RETURN(Project project, MakeProject(*epoch->net, request.skills));
  // Hold the view across the query: it pins the index, so a concurrent
  // eviction (memory budget) or epoch retirement can never free it
  // mid-request.
  TD_ASSIGN_OR_RETURN(OracleCache::View view,
                      epoch->cache->Get(request.strategy, request.gamma,
                                        OracleKind::kPrunedLandmarkLabeling));
  TD_ASSIGN_OR_RETURN(auto finder,
                      GreedyTeamFinder::MakeWithExternalOracle(
                          *epoch->net, std::move(options), *view.oracle));
  return finder->FindTeams(project);
}

Result<std::vector<ScoredTeam>> TeamDiscoveryService::FindTeam(
    const TeamRequest& request) const {
  TeamRequest best_only = request;
  best_only.top_k = 1;
  return TopK(best_only);
}

Result<std::vector<ParetoTeam>> TeamDiscoveryService::Pareto(
    const ParetoRequest& request) const {
  const std::shared_ptr<const Epoch> epoch = CurrentEpoch();
  TD_ASSIGN_OR_RETURN(Project project, MakeProject(*epoch->net, request.skills));
  // Per-cell finders draw from the snapshot-backed cache instead of the
  // default factory, which would rebuild a transform + index for every one
  // of the ~grid_points^2 cells on every request. MakeFinder pins the index
  // into each finder, so eviction under a budget stays safe.
  GreedyFinderFactory factory = [&epoch](FinderOptions fo) {
    return epoch->cache->MakeFinder(std::move(fo));
  };
  // The base-graph oracle only feeds the random phase; fetching it when
  // that phase is disabled could cost a full index build for nothing.
  OracleCache::View base_view;
  if (request.options.random_teams > 0) {
    TD_ASSIGN_OR_RETURN(base_view, epoch->cache->Get(RankingStrategy::kCC, 0.0,
                                                     request.options.oracle));
  }
  return DiscoverParetoTeams(*epoch->net, project, request.options, factory,
                             base_view.oracle.get());
}

Result<UpdateReport> TeamDiscoveryService::ApplyDelta(
    const ExpertNetworkDelta& delta) {
  // One update at a time, end to end; serving is never blocked by this lock
  // (requests only take epoch_mu_ for the pointer copy).
  std::lock_guard<std::mutex> update_lock(update_mu_);
  bool past_validation = false;
  Result<UpdateReport> result = ApplyDeltaLocked(delta, &past_validation);
  if (result.ok()) {
    RecordSwapSuccess();
  } else if (past_validation) {
    // The service failed to advance while the old epoch keeps serving:
    // that is the DEGRADED condition. A pre-validation failure is the
    // caller's bad delta, not a service regression, and stays out of the
    // health machine.
    RecordUpdateFailure();
  }
  return result;
}

Result<UpdateReport> TeamDiscoveryService::ApplyDeltaLocked(
    const ExpertNetworkDelta& delta, bool* past_validation) {
  Timer wall;
  const std::shared_ptr<const Epoch> current = CurrentEpoch();
  // An invalid delta fails here, before any successor state exists — the
  // current epoch keeps serving untouched.
  TD_ASSIGN_OR_RETURN(ExpertNetwork next_net,
                      ApplyNetworkDelta(*current->net, delta));
  *past_validation = true;

  auto next = std::make_shared<Epoch>();
  next->generation = current->generation + 1;
  next->net = std::make_shared<const ExpertNetwork>(std::move(next_net));
  next->cache = std::make_unique<OracleCache>(*next->net, cache_options_);
  InstallArtifactHooks(*next->cache);

  UpdateReport report;
  report.num_experts = next->net->num_experts();
  report.num_edges = next->net->graph().num_edges();
  // Fingerprint-keyed invalidation: carry over every index whose search
  // graph the delta did not touch. A skill-only delta adopts everything —
  // zero rebuilds.
  report.entries_adopted =
      next->cache->AdoptCompatibleEntries(*current->cache, current->net);

  // Refresh sweep over every index the old epoch was serving (its resident
  // entries, one key each): adopted keys hit, still-valid artifacts load,
  // invalidated keys rebuild — and persist via the saver hook — all in the
  // background while `current` keeps serving. A snapshot index nobody
  // reads keeps its old manifest fingerprint; the loader's known-stale skip
  // rebuilds it on first use.
  const OracleCache::Stats before = next->cache->stats();
  for (const OracleCache::EntryInfo& info : current->cache->ResidentEntries()) {
    // Any transform strategy resolves to the per-gamma G' entry; CC to the
    // base entry — mirroring how requests key the cache.
    const RankingStrategy strategy =
        info.transformed ? RankingStrategy::kCACC : RankingStrategy::kCC;
    Status refreshed = FaultInjection::MaybeFail("service.applydelta.rebuild");
    if (refreshed.ok()) {
      refreshed = next->cache->Get(strategy, info.gamma, info.kind).status();
    }
    if (!refreshed.ok()) {
      // A refresh failure means the successor epoch cannot serve what the
      // current one does — abort the swap and keep serving the old world.
      // `next` (and with it every partially built successor cache entry) is
      // destroyed on this return path; nothing resident leaks past it.
      return refreshed.WithContext(StrFormat(
          "rebuilding %s index (gamma_bp=%d) for the post-delta network",
          info.transformed ? "transform" : "base", info.gamma_bp));
    }
  }
  const OracleCache::Stats after = next->cache->stats();
  report.entries_rebuilt = after.builds - before.builds;
  report.entries_loaded = after.loads - before.loads;

  if (options_.persist_updates) {
    // Commit the successor network + bumped generation to disk. Rebuilt
    // artifacts were already persisted by the saver hook above; unchanged
    // artifacts keep matching by fingerprint. The manifest rewrite is the
    // commit point (see snapshot.h) — on failure nothing is swapped and the
    // update reports the error instead of silently serving state a restart
    // would lose.
    std::lock_guard<std::mutex> persist_lock(persist_mu_);
    SnapshotManifest manifest;
    {
      std::lock_guard<std::mutex> lock(manifest_mu_);
      manifest = manifest_;
    }
    // Transient commit failures (disk pressure, injected faults) retry with
    // backoff; CommitSnapshotNetwork only mutates `manifest` on success, so
    // every attempt bumps from the same base generation.
    TD_RETURN_IF_ERROR(RetryTransient(
        "snapshot commit", retry_options_, [&]() -> Status {
          TD_RETURN_IF_ERROR(
              FaultInjection::MaybeFail("service.applydelta.commit"));
          return CommitSnapshotNetwork(options_.snapshot_dir, manifest,
                                       *next->net);
        }));
    next->generation = manifest.generation;
    {
      std::lock_guard<std::mutex> lock(manifest_mu_);
      manifest_ = std::move(manifest);
    }
  }

  report.generation = next->generation;
  {
    // The swap: one pointer store. In-flight requests hold the old epoch's
    // shared_ptr and finish on it; the old epoch is destroyed when the last
    // of them drops.
    std::lock_guard<std::mutex> lock(epoch_mu_);
    epoch_ = std::move(next);
  }
  report.wall_seconds = wall.ElapsedSeconds();
  return report;
}

HealthStats TeamDiscoveryService::health() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return health_;
}

void TeamDiscoveryService::RecordUpdateFailure() {
  std::lock_guard<std::mutex> lock(health_mu_);
  ++health_.update_failures;
  ++health_.consecutive_failures;
  if (health_.state == HealthState::kHealthy) {
    health_.state = HealthState::kDegraded;
    ++health_.degraded_transitions;
    TD_LOG(Warning) << "service health HEALTHY -> DEGRADED (update failure; "
                       "old epoch keeps serving)";
  }
}

void TeamDiscoveryService::RecordPersistFailure() {
  std::lock_guard<std::mutex> lock(health_mu_);
  ++health_.persist_failures;
  ++health_.consecutive_failures;
  if (health_.state == HealthState::kHealthy) {
    health_.state = HealthState::kDegraded;
    ++health_.degraded_transitions;
    TD_LOG(Warning) << "service health HEALTHY -> DEGRADED (persist failure; "
                       "serving from memory, snapshot lags)";
  }
}

void TeamDiscoveryService::RecordSwapSuccess() {
  std::lock_guard<std::mutex> lock(health_mu_);
  health_.consecutive_failures = 0;
  if (health_.state == HealthState::kDegraded) {
    health_.state = HealthState::kHealthy;
    ++health_.recoveries;
    TD_LOG(Info) << "service health DEGRADED -> HEALTHY (epoch swap "
                    "succeeded)";
  }
}

}  // namespace teamdisc
