#include "service/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "eval/oracle_cache.h"
#include "network/authority_transform.h"
#include "network/network_io.h"

namespace teamdisc {

namespace {

namespace fs = std::filesystem;

/// fsyncs `path` (a file or directory) so it survives power loss.
///
/// Both syscalls retry EINTR: a signal landing mid-fsync (SIGTERM starting a
/// drain is the common case) is not an I/O failure, and letting it surface as
/// IOError here would make RetryTransient burn real retry budget — with
/// backoff sleeps — on an fsync that never failed.
Status SyncPath(const fs::path& path, bool directory) {
  int fd;
  do {
    fd = ::open(path.c_str(), directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Status::IOError("cannot open for fsync: " + path.string());
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  ::close(fd);
  if (rc != 0) return Status::IOError("fsync failed: " + path.string());
  return Status::OK();
}

/// Writes `content` to `path` via a sibling temp file + fsync + rename, so a
/// reader never observes a half-written file and a power loss just after the
/// rename cannot surface a zero-length file (the data reaches disk before
/// the name does, and the directory entry is fsynced after). The temp name
/// is unique per process and call: two replicas persisting into a shared
/// snapshot then race only on the atomic rename (last writer wins), never on
/// interleaved writes to one temp file. Failure on any step — including an
/// injected fault at `write_point` / `rename_point` — unlinks the temp file
/// instead of leaking it.
Status AtomicWriteFile(const fs::path& path, const std::string& content,
                       const char* write_point, const char* rename_point) {
  static std::atomic<uint64_t> sequence{0};
  const fs::path tmp =
      path.string() + StrFormat(".%ld.%llu.tmp", static_cast<long>(::getpid()),
                                static_cast<unsigned long long>(
                                    sequence.fetch_add(1)));
  auto unlink_tmp = [&tmp] {
    std::error_code ignored;
    fs::remove(tmp, ignored);
  };
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open for writing: " + tmp.string());
    if (Status faulted = FaultInjection::MaybeFail(write_point); !faulted.ok()) {
      out.close();
      unlink_tmp();
      return faulted;
    }
    out << content;
    // Flush before the rename: a buffered write that only fails at close
    // (e.g. ENOSPC) must not get a truncated file promoted into place.
    out.close();
    if (out.fail()) {
      unlink_tmp();
      return Status::IOError("write failed: " + tmp.string());
    }
  }
  // The data must be durable before the rename makes it reachable:
  // rename-then-sync can leave the *new* name pointing at not-yet-flushed
  // pages, which a power cut truncates to an empty committed manifest.
  if (Status synced = SyncPath(tmp, /*directory=*/false); !synced.ok()) {
    unlink_tmp();
    return synced;
  }
  if (Status faulted = FaultInjection::MaybeFail(rename_point); !faulted.ok()) {
    unlink_tmp();
    return faulted;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    unlink_tmp();
    return Status::IOError("rename failed: " + tmp.string() + " -> " +
                           path.string() + ": " + ec.message());
  }
  // And the rename itself must be durable: fsync the containing directory,
  // or the old directory entry can outlive a crash.
  return SyncPath(path.parent_path(), /*directory=*/true);
}

Status EnsureDirectory(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create snapshot directory " + dir + ": " +
                           ec.message());
  }
  return Status::OK();
}

}  // namespace

std::string SnapshotIndexFileName(bool transformed, int gamma_bp,
                                  OracleKind kind) {
  const std::string kind_str(OracleKindToString(kind));
  if (!transformed) return "index-base-" + kind_str + ".pll";
  return StrFormat("index-g%04d-%s.pll", gamma_bp, kind_str.c_str());
}

std::string SerializeSnapshotManifest(const SnapshotManifest& manifest) {
  std::string out = "teamdisc-snapshot v2\n";
  out += StrFormat("generation %llu\n",
                   static_cast<unsigned long long>(manifest.generation));
  out += StrFormat("network %s %016llx\n", manifest.network_file.c_str(),
                   static_cast<unsigned long long>(manifest.network_fingerprint));
  for (const SnapshotIndexEntry& e : manifest.entries) {
    out += StrFormat("index %s %d %s %s %016llx\n",
                     e.transformed ? "transform" : "base", e.gamma_bp,
                     std::string(OracleKindToString(e.kind)).c_str(),
                     e.file.c_str(),
                     static_cast<unsigned long long>(e.fingerprint));
  }
  return out;
}

Result<SnapshotManifest> ParseSnapshotManifest(const std::string& content) {
  std::istringstream in(content);
  std::string line;
  size_t line_no = 0;
  bool saw_header = false, saw_network = false;
  SnapshotManifest manifest;
  manifest.network_file.clear();
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    auto fields = SplitWhitespace(stripped);
    if (!saw_header) {
      if (fields.size() != 2 || fields[0] != "teamdisc-snapshot" ||
          fields[1] != "v2") {
        return Status::InvalidArgument(StrFormat(
            "line %zu: not a teamdisc-snapshot v2 manifest", line_no));
      }
      saw_header = true;
      continue;
    }
    if (fields[0] == "generation") {
      if (saw_network || fields.size() != 2) {
        return Status::InvalidArgument(
            StrFormat("line %zu: malformed generation line", line_no));
      }
      TD_ASSIGN_OR_RETURN(manifest.generation, ParseUint64(fields[1]));
      continue;
    }
    if (fields[0] == "network") {
      if (saw_network || fields.size() != 3) {
        return Status::InvalidArgument(
            StrFormat("line %zu: malformed network line", line_no));
      }
      manifest.network_file = std::string(fields[1]);
      if (manifest.network_file.find('/') != std::string::npos ||
          manifest.network_file.find("..") != std::string::npos) {
        // Same trust boundary as the artifact files below: everything a
        // manifest references must live inside the snapshot directory.
        return Status::InvalidArgument(
            StrFormat("line %zu: network file must be a bare name", line_no));
      }
      TD_ASSIGN_OR_RETURN(manifest.network_fingerprint, ParseHex64(fields[2]));
      saw_network = true;
      continue;
    }
    if (fields[0] == "index") {
      if (!saw_network || fields.size() != 6) {
        return Status::InvalidArgument(
            StrFormat("line %zu: malformed index line", line_no));
      }
      SnapshotIndexEntry entry;
      if (fields[1] == "transform") {
        entry.transformed = true;
      } else if (fields[1] != "base") {
        return Status::InvalidArgument(
            StrFormat("line %zu: index scope must be base|transform", line_no));
      }
      TD_ASSIGN_OR_RETURN(uint64_t bp, ParseUint64(fields[2]));
      if (bp > 10000 || (!entry.transformed && bp != 0)) {
        return Status::InvalidArgument(
            StrFormat("line %zu: gamma_bp %llu out of range", line_no,
                      static_cast<unsigned long long>(bp)));
      }
      entry.gamma_bp = static_cast<int>(bp);
      TD_ASSIGN_OR_RETURN(entry.kind, OracleKindFromString(fields[3]));
      entry.file = std::string(fields[4]);
      if (entry.file.find('/') != std::string::npos ||
          entry.file.find("..") != std::string::npos) {
        // Artifact paths are confined to the snapshot directory.
        return Status::InvalidArgument(
            StrFormat("line %zu: artifact file must be a bare name", line_no));
      }
      TD_ASSIGN_OR_RETURN(entry.fingerprint, ParseHex64(fields[5]));
      manifest.entries.push_back(std::move(entry));
      continue;
    }
    return Status::InvalidArgument(
        StrFormat("line %zu: unknown manifest directive '%s'", line_no,
                  std::string(fields[0]).c_str()));
  }
  if (!saw_header) return Status::InvalidArgument("empty manifest");
  if (!saw_network) return Status::InvalidArgument("manifest missing network line");
  return manifest;
}

Result<SnapshotManifest> ReadSnapshotManifest(const std::string& dir) {
  const fs::path path = fs::path(dir) / "manifest.txt";
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseSnapshotManifest(buffer.str());
}

size_t RemoveStaleSnapshotTempFiles(const std::string& dir) {
  size_t removed = 0;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->path().extension() != ".tmp") continue;
    std::error_code rm;
    if (fs::remove(it->path(), rm)) ++removed;
  }
  if (removed > 0) {
    TD_LOG(Warning) << "removed " << removed
                    << " stale .tmp file(s) left by a crashed writer in "
                    << dir;
  }
  return removed;
}

Status WriteSnapshotManifest(const std::string& dir,
                             const SnapshotManifest& manifest) {
  TD_RETURN_IF_ERROR(EnsureDirectory(dir));
  return AtomicWriteFile(fs::path(dir) / "manifest.txt",
                         SerializeSnapshotManifest(manifest),
                         "snapshot.manifest.write", "snapshot.manifest.rename");
}

Result<SnapshotManifest> BuildSnapshot(const ExpertNetwork& net,
                                       const std::string& dir,
                                       const BuildSnapshotOptions& options) {
  TD_RETURN_IF_ERROR(EnsureDirectory(dir));
  SnapshotManifest manifest;
  manifest.network_fingerprint = WeightedEdgeFingerprint(net.graph());
  TD_RETURN_IF_ERROR(
      SaveNetwork(net, (fs::path(dir) / manifest.network_file).string()));

  auto build_and_write = [&](const Graph& search_graph, bool transformed,
                             int gamma_bp) -> Status {
    TD_ASSIGN_OR_RETURN(auto pll,
                        PrunedLandmarkLabeling::Build(search_graph, options.pll));
    SnapshotIndexEntry entry;
    entry.transformed = transformed;
    entry.gamma_bp = gamma_bp;
    entry.kind = OracleKind::kPrunedLandmarkLabeling;
    entry.file = SnapshotIndexFileName(transformed, gamma_bp, entry.kind);
    entry.fingerprint = WeightedEdgeFingerprint(search_graph);
    TD_RETURN_IF_ERROR(
        AtomicWriteFile(fs::path(dir) / entry.file, pll->Serialize(),
                        "snapshot.artifact.write", "snapshot.artifact.rename"));
    manifest.entries.push_back(std::move(entry));
    return Status::OK();
  };

  if (options.include_base) {
    TD_RETURN_IF_ERROR(build_and_write(net.graph(), false, 0));
  }
  std::vector<int> built_bp;
  for (double gamma : options.gammas) {
    if (!(std::isfinite(gamma) && gamma >= 0.0 && gamma <= 1.0)) {
      return Status::InvalidArgument(
          StrFormat("snapshot gamma %f must be finite and within [0,1]", gamma));
    }
    // Dedupe at the cache's own resolution: gammas equal after basis-point
    // quantization would build the identical index twice and list the same
    // artifact file in the manifest twice.
    const int gamma_bp = GammaBasisPoints(gamma);
    if (std::find(built_bp.begin(), built_bp.end(), gamma_bp) !=
        built_bp.end()) {
      continue;
    }
    built_bp.push_back(gamma_bp);
    // Build at basis-point resolution, mirroring OracleCache::Get: the
    // serving cache rebuilds G' from gamma_bp / 10000.0, and the artifact's
    // fingerprint only matches if this build used the identical weights.
    TD_ASSIGN_OR_RETURN(TransformedGraph transformed,
                        BuildAuthorityTransform(net, gamma_bp / 10000.0));
    TD_RETURN_IF_ERROR(build_and_write(transformed.graph, true, gamma_bp));
  }
  TD_RETURN_IF_ERROR(WriteSnapshotManifest(dir, manifest));
  return manifest;
}

Status AddIndexArtifact(const std::string& dir, SnapshotManifest& manifest,
                        bool transformed, int gamma_bp, OracleKind kind,
                        const DistanceOracle& oracle) {
  const auto* pll = dynamic_cast<const PrunedLandmarkLabeling*>(&oracle);
  if (pll == nullptr) return Status::OK();  // nothing worth persisting
  // Always (re)write the artifact, even when the manifest already lists the
  // entry: a rebuild reaches this path precisely when the on-disk file was
  // corrupt or stale (the loader fell back to building), so skipping the
  // write would leave the snapshot broken and force a rebuild every start.
  SnapshotIndexEntry entry;
  entry.transformed = transformed;
  entry.gamma_bp = gamma_bp;
  entry.kind = kind;
  entry.file = SnapshotIndexFileName(transformed, gamma_bp, kind);
  entry.fingerprint = WeightedEdgeFingerprint(oracle.graph());
  TD_RETURN_IF_ERROR(EnsureDirectory(dir));
  // Atomic like the manifest: a crash (or a concurrent replica persisting
  // the same key) must never leave a truncated artifact behind a manifest
  // entry that claims it is valid.
  TD_RETURN_IF_ERROR(
      AtomicWriteFile(fs::path(dir) / entry.file, pll->Serialize(),
                      "snapshot.artifact.write", "snapshot.artifact.rename"));
  for (SnapshotIndexEntry& e : manifest.entries) {
    if (e.transformed == transformed && e.gamma_bp == gamma_bp &&
        e.kind == kind) {
      if (e.fingerprint == entry.fingerprint) {
        return Status::OK();  // already listed; file repaired in place
      }
      // Same key, new search graph (an update rebuilt the index): retarget
      // the manifest entry's fingerprint so keep/rebuild decisions and load
      // diagnostics stay truthful.
      e.fingerprint = entry.fingerprint;
      return WriteSnapshotManifest(dir, manifest);
    }
  }
  manifest.entries.push_back(std::move(entry));
  return WriteSnapshotManifest(dir, manifest);
}

const SnapshotIndexEntry* FindSnapshotIndexEntry(
    const SnapshotManifest& manifest, bool transformed, int gamma_bp,
    OracleKind kind) {
  for (const SnapshotIndexEntry& e : manifest.entries) {
    if (e.transformed == transformed && e.gamma_bp == gamma_bp &&
        e.kind == kind) {
      return &e;
    }
  }
  return nullptr;
}

Result<std::unique_ptr<DistanceOracle>> LoadIndexArtifact(
    const std::string& dir, const SnapshotManifest& manifest, bool transformed,
    int gamma_bp, OracleKind kind, const Graph& search_graph) {
  const SnapshotIndexEntry* e =
      FindSnapshotIndexEntry(manifest, transformed, gamma_bp, kind);
  if (e == nullptr) {
    return std::unique_ptr<DistanceOracle>(nullptr);  // no matching artifact
  }
  // The artifact's fingerprint ties it to the exact weighted graph it was
  // built over; Deserialize rejects a stale, cross-gamma, corrupt or
  // older-format artifact.
  const std::string path = (fs::path(dir) / e->file).string();
  auto pll = PrunedLandmarkLabeling::LoadFromFile(search_graph, path);
  if (!pll.ok()) {
    // Name the exact artifact and both fingerprints: "manifest.txt is
    // inconsistent" is not actionable, "index-g2500-pll.pll expected
    // 0x… but the graph hashes to 0x…" is.
    Status failed = pll.status();
    return failed.WithContext(StrFormat(
        "snapshot artifact %s (manifest fingerprint %016llx, search graph "
        "fingerprint %016llx)",
        path.c_str(), static_cast<unsigned long long>(e->fingerprint),
        static_cast<unsigned long long>(
            WeightedEdgeFingerprint(search_graph))));
  }
  return std::unique_ptr<DistanceOracle>(std::move(pll).ValueOrDie());
}

Status CommitSnapshotNetwork(const std::string& dir, SnapshotManifest& manifest,
                             const ExpertNetwork& net) {
  TD_RETURN_IF_ERROR(EnsureDirectory(dir));
  // Stage every mutation on a copy and assign back only after the manifest
  // rename succeeds. This is what makes the commit safe to retry: a failed
  // attempt leaves the caller's manifest at the old generation, so the next
  // attempt re-derives the same next generation instead of bumping twice.
  SnapshotManifest next = manifest;
  next.generation = manifest.generation + 1;
  next.network_file =
      StrFormat("network-g%llu.net",
                static_cast<unsigned long long>(next.generation));
  next.network_fingerprint = WeightedEdgeFingerprint(net.graph());
  // The new network goes under a fresh, generation-versioned name so the
  // old manifest keeps referencing an intact old file until the manifest
  // rename below commits the update.
  TD_RETURN_IF_ERROR(FaultInjection::MaybeFail("snapshot.network.save"));
  TD_RETURN_IF_ERROR(
      SaveNetwork(net, (fs::path(dir) / next.network_file).string()));
  TD_RETURN_IF_ERROR(WriteSnapshotManifest(dir, next));
  const std::string previous_file = manifest.network_file;
  manifest = std::move(next);
  if (previous_file != manifest.network_file) {
    // Post-commit cleanup only; failure leaves a harmless orphan file.
    std::error_code ec;
    fs::remove(fs::path(dir) / previous_file, ec);
  }
  return Status::OK();
}

Result<SnapshotUpdateReport> ApplySnapshotDelta(
    const std::string& dir, const ExpertNetworkDelta& delta,
    const SnapshotUpdateOptions& options) {
  TD_ASSIGN_OR_RETURN(SnapshotManifest manifest, ReadSnapshotManifest(dir));
  // The offline updater is the snapshot's single writer, so any temp file
  // found now was leaked by a crashed predecessor — sweep it before writing.
  RemoveStaleSnapshotTempFiles(dir);
  TD_ASSIGN_OR_RETURN(
      ExpertNetwork base,
      LoadNetwork((fs::path(dir) / manifest.network_file).string()));
  const uint64_t base_fp = WeightedEdgeFingerprint(base.graph());
  if (base_fp != manifest.network_fingerprint) {
    return Status::InvalidArgument(StrFormat(
        "snapshot network %s hashes to %016llx but the manifest records "
        "%016llx: refusing to update an inconsistent snapshot",
        manifest.network_file.c_str(),
        static_cast<unsigned long long>(base_fp),
        static_cast<unsigned long long>(manifest.network_fingerprint)));
  }
  TD_ASSIGN_OR_RETURN(ExpertNetwork next, ApplyNetworkDelta(base, delta));

  SnapshotUpdateReport report;
  report.num_experts = next.num_experts();
  report.num_edges = next.graph().num_edges();
  const uint64_t next_base_fp = WeightedEdgeFingerprint(next.graph());
  // Keep or rebuild each artifact by comparing the manifest-recorded
  // fingerprint against the post-delta search graph. The decision touches
  // neither the artifact nor a constructed G': transform fingerprints are
  // predicted from the re-weighted edge list, and the transform is only
  // built for entries that actually rebuild.
  for (SnapshotIndexEntry& entry : manifest.entries) {
    const uint64_t fp =
        entry.transformed
            ? AuthorityTransformFingerprint(next, entry.gamma_bp / 10000.0)
            : next_base_fp;
    if (fp == entry.fingerprint) {
      ++report.entries_kept;
      continue;
    }
    const Graph* search_graph = &next.graph();
    TransformedGraph transformed;
    if (entry.transformed) {
      TD_ASSIGN_OR_RETURN(
          transformed, BuildAuthorityTransform(next, entry.gamma_bp / 10000.0));
      search_graph = &transformed.graph;
    }
    TD_ASSIGN_OR_RETURN(auto pll,
                        PrunedLandmarkLabeling::Build(*search_graph, options.pll));
    TD_RETURN_IF_ERROR(
        AtomicWriteFile(fs::path(dir) / entry.file, pll->Serialize(),
                        "snapshot.artifact.write", "snapshot.artifact.rename"));
    entry.fingerprint = fp;
    ++report.entries_rebuilt;
  }
  // The commit only mutates `manifest` on success, so retrying a transient
  // failure (disk pressure, injected fault) re-runs it from the same base
  // generation instead of compounding a half-applied bump.
  TD_RETURN_IF_ERROR(RetryTransient(
      "snapshot delta commit", RetryOptions::FromEnv(),
      [&] { return CommitSnapshotNetwork(dir, manifest, next); }));
  report.generation = manifest.generation;
  return report;
}

}  // namespace teamdisc
