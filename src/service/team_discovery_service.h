// Long-lived team-discovery serving layer with epoch-swapped live updates.
//
// The paper's workload is interactive team queries over an expert network —
// the shape of a serving process, not a batch experiment. TeamDiscoveryService
// loads a network plus pre-built per-(strategy, gamma, oracle-kind) index
// artifacts from a snapshot directory (written by `teamdisc_cli build-index`
// / BuildSnapshot) and answers FindTeam / TopK / Pareto requests off a
// memory-budgeted, LRU-evicting OracleCache. TopK is the call the serving
// path makes: RequestPipeline's dispatch workers run it once per /find
// request. A request whose index is missing from the snapshot falls back to
// building it once — and persisting it back into the snapshot — instead of
// failing.
//
// Live updates: real networks churn (experts join/leave, skills change,
// collaboration weights shift), and ApplyDelta serves through the churn
// instead of restarting. All immutable serving state lives in an Epoch
// (network + index cache); every request pins the current epoch via
// shared_ptr for its whole lifetime. ApplyDelta builds the successor epoch
// in the background — materializing the post-delta network, adopting every
// resident index whose search-graph fingerprint is unchanged, rebuilding
// only the invalidated resident ones — and then atomically swaps the epoch
// pointer:
//
//      requests ──────▶ epoch N (serving) ──────────────┐
//        ApplyDelta ──▶ build epoch N+1 (background)    │ in-flight requests
//                          adopt / rebuild indexes      │ finish on epoch N
//                       swap pointer ──▶ epoch N+1      ▼
//                       epoch N freed when its last request drops
//
// No request ever observes a half-applied delta (no torn reads), and
// post-swap results are bit-identical to a cold rebuild of the post-delta
// network (the adopted indexes' graphs are fingerprint-identical, PLL
// answers are exact).
//
// Determinism contract: each request's result depends only on the request
// and the epoch it pinned — never on worker count, on whether its index was
// loaded warm from disk, built cold on miss, or adopted across a swap.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/retry.h"
#include "core/pareto.h"
#include "core/team_finder.h"
#include "eval/oracle_cache.h"
#include "network/network_delta.h"
#include "service/snapshot.h"

namespace teamdisc {

/// \brief One team-discovery request, skill names as the user typed them.
struct TeamRequest {
  std::vector<std::string> skills;
  RankingStrategy strategy = RankingStrategy::kSACACC;
  double gamma = 0.6;
  double lambda = 0.6;
  uint32_t top_k = 1;
};

/// \brief A Pareto-front request over the three raw objectives.
struct ParetoRequest {
  std::vector<std::string> skills;
  ParetoOptions options;
};

/// \brief The serving epoch a request was answered on. Expert and skill ids
/// in an answer index into `network`: after a remove-expert delta compacts
/// ids, the current network may name them differently, so whoever renders
/// an answer must render it against this epoch, not the current one.
struct EpochRef {
  uint64_t generation = 0;
  /// Shared: holding the ref keeps the network alive past the epoch's swap.
  std::shared_ptr<const ExpertNetwork> network;
};

/// \brief What one ApplyDelta did.
struct UpdateReport {
  uint64_t generation = 0;      ///< the successor epoch's generation
  size_t entries_adopted = 0;   ///< indexes carried over, fingerprint unchanged
  size_t entries_rebuilt = 0;   ///< indexes rebuilt over a changed search graph
  size_t entries_loaded = 0;    ///< indexes satisfied from still-valid artifacts
  uint32_t num_experts = 0;     ///< successor network size
  size_t num_edges = 0;
  double wall_seconds = 0.0;    ///< background build time (old epoch kept serving)
};

/// \brief Serving health of a TeamDiscoveryService.
///
/// DEGRADED is "alive but stale-risk": a post-validation ApplyDelta failure
/// or a persist failure left the service serving correct answers off the old
/// epoch (or off memory-only indexes), while the on-disk snapshot or the
/// serving generation lags what the caller asked for. Requests keep
/// succeeding in DEGRADED — the state is an operator signal, not a gate.
/// The service returns to HEALTHY on the next epoch swap that fully
/// succeeds. An *invalid* delta (client error: InvalidArgument before any
/// successor state exists) does not degrade — nothing about the service
/// regressed.
enum class HealthState : int { kHealthy = 0, kDegraded = 1 };

std::string_view HealthStateToString(HealthState state);

/// \brief Health counters, all monotonic except `state` and
/// `consecutive_failures`.
struct HealthStats {
  HealthState state = HealthState::kHealthy;
  uint64_t update_failures = 0;    ///< post-validation ApplyDelta failures
  uint64_t persist_failures = 0;   ///< artifact/snapshot persist failures
  uint64_t consecutive_failures = 0;  ///< since the last successful swap
  uint64_t degraded_transitions = 0;  ///< HEALTHY→DEGRADED edges
  uint64_t recoveries = 0;            ///< DEGRADED→HEALTHY edges
};

/// \brief Service configuration.
struct ServiceOptions {
  /// Snapshot directory to serve from (required).
  std::string snapshot_dir;
  /// Soft cap on resident index bytes. 0 resolves TEAMDISC_CACHE_BUDGET_MB
  /// from the environment (in MiB); unset/0 means unbounded.
  size_t cache_budget_bytes = 0;
  /// Persist an index built on a snapshot miss back into the snapshot so
  /// the next process loads it instead of rebuilding. Misses always build
  /// (serving never fails for lack of an artifact); this only controls
  /// whether the build is written back — disable for read-only snapshot
  /// directories.
  bool persist_built_indexes = true;
  /// Commit ApplyDelta updates back into the snapshot (post-delta network,
  /// bumped generation) so a restart serves the updated world. When false,
  /// updates are epoch-only and die with the process. When true, a commit
  /// failure fails ApplyDelta without swapping — an update must never be
  /// silently lost across restarts.
  bool persist_updates = true;
};

/// \brief Snapshot-backed team-discovery server with live updates.
class TeamDiscoveryService {
 public:
  /// Opens a snapshot: loads the network, verifies it against the manifest
  /// fingerprint, and wires the index cache to the snapshot's artifacts.
  /// No index is loaded until a request needs it.
  static Result<std::unique_ptr<TeamDiscoveryService>> Open(
      ServiceOptions options);

  TeamDiscoveryService(const TeamDiscoveryService&) = delete;
  TeamDiscoveryService& operator=(const TeamDiscoveryService&) = delete;

  /// Best single team for the request (top_k forced to 1). Thread-safe.
  Result<std::vector<ScoredTeam>> FindTeam(const TeamRequest& request) const;

  /// Up to request.top_k teams, best first, always over the PLL index.
  /// Thread-safe. The whole request runs on the epoch current at entry;
  /// when `solved_on` is non-null it receives that epoch.
  Result<std::vector<ScoredTeam>> TopK(const TeamRequest& request,
                                       EpochRef* solved_on = nullptr) const;

  /// Pareto front over (CC, CA, SA) for the request's skills. Thread-safe.
  Result<std::vector<ParetoTeam>> Pareto(const ParetoRequest& request) const;

  /// Applies a network delta live: materializes the successor network,
  /// builds its index cache in the background (adopting every resident
  /// index whose search-graph fingerprint the delta did not change,
  /// rebuilding the other resident ones; an index nobody has read stays out
  /// of the swap and builds on first use), optionally commits the update
  /// to the snapshot directory (ServiceOptions::persist_updates), and
  /// atomically swaps the serving epoch. Requests in flight finish on the
  /// old epoch; requests arriving after the swap see the post-delta world.
  /// Fails InvalidArgument (and keeps serving the old epoch untouched) when
  /// the delta is invalid against the current network. Concurrent
  /// ApplyDelta calls are serialized. Thread-safe against all serving
  /// methods.
  Result<UpdateReport> ApplyDelta(const ExpertNetworkDelta& delta);

  /// The current epoch's network, shared: hold the pointer for as long as
  /// the network is dereferenced — a concurrent ApplyDelta retires the
  /// epoch, and the shared_ptr is what keeps the network alive past it.
  std::shared_ptr<const ExpertNetwork> network() const;

  /// Generation of the serving epoch (manifest generation at Open, +1 per
  /// applied delta).
  uint64_t generation() const;

  /// Counters of the current epoch's index cache. A fresh epoch starts new
  /// counters; adoptions tells how many indexes the last swap carried over.
  OracleCache::Stats cache_stats() const;

  /// Current health snapshot (see HealthState). Thread-safe.
  HealthStats health() const;

  /// Snapshot of the manifest, by value: the persist-on-miss saver hook and
  /// ApplyDelta commits mutate it concurrently (under manifest_mu_), so
  /// handing out a reference would race with those mutations.
  SnapshotManifest manifest() const {
    std::lock_guard<std::mutex> lock(manifest_mu_);
    return manifest_;
  }

 private:
  /// Immutable serving state: everything a request touches. Requests pin an
  /// epoch via shared_ptr; ApplyDelta swaps the pointer and the old epoch
  /// dies with its last in-flight request.
  struct Epoch {
    uint64_t generation = 0;
    /// Shared (not unique) so a successor cache's adopted entries can keep
    /// the graph their oracles reference alive after this epoch retires.
    std::shared_ptr<const ExpertNetwork> net;
    /// Built over *net; declared after it so destruction order is safe.
    std::unique_ptr<OracleCache> cache;
  };

  TeamDiscoveryService() = default;

  std::shared_ptr<const Epoch> CurrentEpoch() const {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    return epoch_;
  }

  /// Wires the snapshot artifact loader/saver hooks into a (new) epoch's
  /// cache.
  void InstallArtifactHooks(OracleCache& cache);

  /// Validates and translates a request into finder options.
  Result<FinderOptions> MakeFinderOptions(const TeamRequest& request) const;

  /// ApplyDelta body; `past_validation` reports whether the failure (if any)
  /// happened after the delta validated — the line between "client sent a
  /// bad delta" (no health impact) and "the service failed to advance".
  Result<UpdateReport> ApplyDeltaLocked(const ExpertNetworkDelta& delta,
                                        bool* past_validation);

  /// Health transitions (see HealthState). All take health_mu_.
  void RecordUpdateFailure();
  void RecordPersistFailure();
  void RecordSwapSuccess();

  ServiceOptions options_;
  OracleCache::Options cache_options_;
  RetryOptions retry_options_;
  SnapshotManifest manifest_;
  /// Guards the in-memory manifest_ (copy/commit only — never held across
  /// disk I/O).
  mutable std::mutex manifest_mu_;
  /// Serializes whole persist operations (artifact + manifest writes),
  /// keeping on-disk rewrites ordered without blocking loaders.
  mutable std::mutex persist_mu_;
  /// Guards the epoch_ pointer (load/swap only; never held across work).
  mutable std::mutex epoch_mu_;
  /// Serializes ApplyDelta calls end to end.
  std::mutex update_mu_;
  std::shared_ptr<const Epoch> epoch_;
  /// Guards health_ (counter bumps and state edges only).
  mutable std::mutex health_mu_;
  HealthStats health_;
};

}  // namespace teamdisc
