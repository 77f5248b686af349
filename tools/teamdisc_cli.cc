// teamdisc command-line tool: generate, inspect, and query expert networks
// from the shell.
//
//   teamdisc_cli generate <out.net> [--experts=N] [--edges=M] [--seed=S]
//       Generate a synthetic DBLP-style expert network and save it.
//
//   teamdisc_cli info <net>
//       Print network statistics (experts, edges, skills, components).
//
//   teamdisc_cli skills <net> [--min-holders=K]
//       List skills with their holder counts.
//
//   teamdisc_cli find <net> --skills=a,b,c [--strategy=cc|cacc|sacacc]
//       [--gamma=0.6] [--lambda=0.6] [--top-k=1] [--oracle=pll|dijkstra]
//       Discover the top-k teams for the given skills.
//
//   teamdisc_cli pareto <net> --skills=a,b,c [--grid=5]
//       Print the Pareto front over (CC, CA, SA).
//
//   teamdisc_cli build-index <net> <snapshot-dir> [--gammas=0,0.25,0.5,0.75,1]
//       [--no-base] [--threads=N]
//       Pre-build the per-gamma PLL indexes and write a serving snapshot
//       (manifest + network + fingerprinted index artifacts).
//
//   teamdisc_cli apply-update <snapshot-dir> <delta-file> [--threads=N]
//       Apply a teamdisc-delta v1 mutation file to an on-disk snapshot:
//       rebuilds exactly the index artifacts whose search graph changed,
//       keeps the rest, and commits the post-delta network under a bumped
//       manifest generation.
//
//   teamdisc_cli serve <snapshot-dir> --listen=HOST:PORT [--workers=0]
//       [--queue-cap=0] [--deadline-ms=0] [--budget-mb=0] [--max-conns=0]
//       [--idle-timeout-ms=0] [--request-timeout-ms=0]
//       [--write-timeout-ms=0] [--drain-ms=0]
//       The epoll HTTP front-end over the async request pipeline. Serves
//       GET/POST /find, GET /healthz, GET /metrics until SIGTERM or SIGINT,
//       then drains gracefully (stops accepting, finishes in-flight
//       requests within --drain-ms) and exits 0. --listen=:0 picks an
//       ephemeral port (printed on startup). Zero-valued knobs resolve the
//       TEAMDISC_LISTEN_* / TEAMDISC_SERVE_* environment variables
//       (docs/CONFIG.md). How fast /find is gets measured by
//       `python3 perfbench/run.py` (perfbench/README.md).
//
// Unknown --flags, and numeric flags whose value does not parse, are
// rejected with exit code 2 naming the flag, so neither a typo'd
// --gama=0.5 nor a malformed --gamma=abc can silently run with the default
// gamma. docs/CONFIG.md carries the full subcommand/flag and env-var
// reference.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/greedy_team_finder.h"
#include "core/objectives.h"
#include "core/pareto.h"
#include "datagen/synthetic_dblp.h"
#include "eval/table_printer.h"
#include "graph/graph_algos.h"
#include "net/http_server.h"
#include "network/network_io.h"

namespace teamdisc {
namespace {

/// Parsed --key=value flags plus positional arguments. The typed getters
/// only ever see values CheckFlags already parsed, so a present flag never
/// falls back to the default.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : ParseDouble(it->second).ValueOrDie();
  }
  uint64_t GetUint(const std::string& key, uint64_t fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : ParseUint64(it->second).ValueOrDie();
  }
};

/// A flag a command accepts, and what its value must parse as.
struct Flag {
  enum Type { kText, kUint, kDouble };
  std::string name;
  Type type = kText;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (StartsWith(arg, "--")) {
      arg.remove_prefix(2);
      size_t eq = arg.find('=');
      if (eq == std::string_view::npos) {
        args.flags.insert_or_assign(std::string(arg), std::string("1"));
      } else {
        args.flags.insert_or_assign(std::string(arg.substr(0, eq)),
                                    std::string(arg.substr(eq + 1)));
      }
    } else {
      args.positional.emplace_back(arg);
    }
  }
  return args;
}

int Usage() {
  std::fprintf(stderr,
               "usage: teamdisc_cli <generate|info|skills|find|pareto|"
               "build-index|apply-update|serve> ...\n"
               "see docs/CONFIG.md or the header of tools/teamdisc_cli.cc "
               "for details\n");
  return 2;
}

/// Rejects flags the command does not know (listing the valid ones) and
/// numeric flags whose value does not parse (naming the flag), both with
/// exit 2: a typo'd --gama=0.5 or a malformed --gamma=abc must fail loudly,
/// not run with the default. Returns 0 when every flag is known and
/// well-formed.
int CheckFlags(const Args& args, const std::vector<Flag>& known) {
  std::vector<std::string> unknown;
  int rc = 0;
  for (const auto& [key, value] : args.flags) {
    auto it = std::find_if(known.begin(), known.end(),
                           [&key](const Flag& f) { return f.name == key; });
    if (it == known.end()) {
      unknown.push_back(key);
      continue;
    }
    const Status parsed =
        it->type == Flag::kUint     ? ParseUint64(value).status()
        : it->type == Flag::kDouble ? ParseDouble(value).status()
                                    : Status::OK();
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad value for --%s: %s\n", key.c_str(),
                   parsed.ToString().c_str());
      rc = 2;
    }
  }
  if (unknown.empty()) return rc;
  for (const std::string& key : unknown) {
    std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
  }
  if (known.empty()) {
    std::fprintf(stderr, "this command takes no flags\n");
  } else {
    std::string list;
    for (const Flag& flag : known) {
      if (!list.empty()) list += ", ";
      list += "--" + flag.name;
    }
    std::fprintf(stderr, "valid flags: %s\n", list.c_str());
  }
  return 2;
}

Result<ExpertNetwork> Load(const Args& args) {
  if (args.positional.size() < 2) {
    return Status::InvalidArgument("missing network file argument");
  }
  return LoadNetwork(args.positional[1]);
}

Result<Project> ParseSkills(const ExpertNetwork& net, const Args& args) {
  auto it = args.flags.find("skills");
  if (it == args.flags.end()) {
    return Status::InvalidArgument("--skills=a,b,c is required");
  }
  std::vector<std::string> names;
  for (std::string_view s : Split(it->second, ',')) {
    // The file format preserves names exactly (network_io escaping), so the
    // name on the command line is the name in the network — no
    // underscore/space guessing.
    names.emplace_back(StripWhitespace(s));
  }
  return MakeProject(net, names);
}

int CmdGenerate(const Args& args) {
  if (int rc = CheckFlags(args, {{"experts", Flag::kUint},
                                 {"edges", Flag::kUint},
                                 {"seed", Flag::kUint}})) {
    return rc;
  }
  if (args.positional.size() < 2) return Usage();
  DblpConfig config;
  config.num_authors = static_cast<uint32_t>(args.GetUint("experts", 4000));
  config.target_edges = static_cast<uint32_t>(
      args.GetUint("edges", config.num_authors * 3));
  config.seed = args.GetUint("seed", 42);
  auto corpus = GenerateSyntheticDblp(config);
  if (!corpus.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 corpus.status().ToString().c_str());
    return 1;
  }
  Status s = SaveNetwork(corpus.ValueOrDie().network, args.positional[1]);
  if (!s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %s\n", args.positional[1].c_str(),
              corpus.ValueOrDie().network.DebugString().c_str());
  return 0;
}

int CmdInfo(const Args& args) {
  if (int rc = CheckFlags(args, {})) return rc;
  auto net = Load(args);
  if (!net.ok()) {
    std::fprintf(stderr, "%s\n", net.status().ToString().c_str());
    return 1;
  }
  const ExpertNetwork& n = net.ValueOrDie();
  ComponentInfo comps = ConnectedComponents(n.graph());
  DegreeStats degrees = ComputeDegreeStats(n.graph());
  std::printf("%s\n", n.DebugString().c_str());
  std::printf("components: %u (largest %u)\n", comps.num_components(),
              comps.sizes[comps.LargestComponent()]);
  std::printf("degree: min %zu / mean %.2f / max %zu, %zu isolated\n",
              degrees.min, degrees.mean, degrees.max, degrees.isolated);
  double min_auth = kInfDistance, max_auth = 0;
  uint32_t with_skills = 0;
  for (NodeId v = 0; v < n.num_experts(); ++v) {
    min_auth = std::min(min_auth, n.Authority(v));
    max_auth = std::max(max_auth, n.Authority(v));
    if (!n.expert(v).skills.empty()) ++with_skills;
  }
  std::printf("authority: min %.1f / max %.1f; %u experts hold skills\n",
              min_auth, max_auth, with_skills);
  return 0;
}

int CmdSkills(const Args& args) {
  if (int rc = CheckFlags(args, {{"min-holders", Flag::kUint}})) return rc;
  auto net = Load(args);
  if (!net.ok()) {
    std::fprintf(stderr, "%s\n", net.status().ToString().c_str());
    return 1;
  }
  const ExpertNetwork& n = net.ValueOrDie();
  uint64_t min_holders = args.GetUint("min-holders", 1);
  TablePrinter table({"skill", "holders"});
  for (SkillId s = 0; s < n.num_skills(); ++s) {
    size_t holders = n.ExpertsWithSkill(s).size();
    if (holders >= min_holders) {
      table.AddRow({n.skills().NameUnchecked(s), std::to_string(holders)});
    }
  }
  table.Print();
  return 0;
}

int CmdFind(const Args& args) {
  if (int rc = CheckFlags(args, {{"skills"},
                                 {"strategy"},
                                 {"gamma", Flag::kDouble},
                                 {"lambda", Flag::kDouble},
                                 {"top-k", Flag::kUint},
                                 {"oracle"}})) {
    return rc;
  }
  auto net = Load(args);
  if (!net.ok()) {
    std::fprintf(stderr, "%s\n", net.status().ToString().c_str());
    return 1;
  }
  const ExpertNetwork& n = net.ValueOrDie();
  auto project = ParseSkills(n, args);
  if (!project.ok()) {
    std::fprintf(stderr, "%s\n", project.status().ToString().c_str());
    return 1;
  }
  FinderOptions options;
  std::string strategy = args.Get("strategy", "sacacc");
  if (strategy == "cc") {
    options.strategy = RankingStrategy::kCC;
  } else if (strategy == "cacc") {
    options.strategy = RankingStrategy::kCACC;
  } else if (strategy == "sacacc") {
    options.strategy = RankingStrategy::kSACACC;
  } else {
    std::fprintf(stderr, "unknown strategy '%s'\n", strategy.c_str());
    return 2;
  }
  options.params.gamma = args.GetDouble("gamma", 0.6);
  options.params.lambda = args.GetDouble("lambda", 0.6);
  options.top_k = static_cast<uint32_t>(args.GetUint("top-k", 1));
  const std::string oracle = args.Get("oracle", "pll");
  if (oracle == "pll") {
    options.oracle = OracleKind::kPrunedLandmarkLabeling;
  } else if (oracle == "dijkstra") {
    options.oracle = OracleKind::kDijkstra;
  } else {
    std::fprintf(stderr, "unknown oracle '%s' (pll|dijkstra)\n",
                 oracle.c_str());
    return 2;
  }
  auto finder = GreedyTeamFinder::Make(n, options);
  if (!finder.ok()) {
    std::fprintf(stderr, "%s\n", finder.status().ToString().c_str());
    return 1;
  }
  auto teams = finder.ValueOrDie()->FindTeams(project.ValueOrDie());
  if (!teams.ok()) {
    std::fprintf(stderr, "%s\n", teams.status().ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < teams.ValueOrDie().size(); ++i) {
    const ScoredTeam& st = teams.ValueOrDie()[i];
    ObjectiveBreakdown b = ComputeBreakdown(n, st.team, options.params);
    std::printf("#%zu (objective %.4f)\n%s", i + 1, st.objective,
                st.team.Format(n).c_str());
    std::printf("   CC=%.3f CA=%.4f SA=%.4f CA-CC=%.4f SA-CA-CC=%.4f\n\n",
                b.cc, b.ca, b.sa, b.ca_cc, b.sa_ca_cc);
  }
  return 0;
}

int CmdPareto(const Args& args) {
  if (int rc = CheckFlags(args, {{"skills"}, {"grid", Flag::kUint}})) return rc;
  auto net = Load(args);
  if (!net.ok()) {
    std::fprintf(stderr, "%s\n", net.status().ToString().c_str());
    return 1;
  }
  const ExpertNetwork& n = net.ValueOrDie();
  auto project = ParseSkills(n, args);
  if (!project.ok()) {
    std::fprintf(stderr, "%s\n", project.status().ToString().c_str());
    return 1;
  }
  ParetoOptions options;
  options.grid_points = static_cast<uint32_t>(args.GetUint("grid", 5));
  auto front = DiscoverParetoTeams(n, project.ValueOrDie(), options);
  if (!front.ok()) {
    std::fprintf(stderr, "%s\n", front.status().ToString().c_str());
    return 1;
  }
  TablePrinter table({"rank", "CC", "CA", "SA", "members"});
  for (size_t i = 0; i < front.ValueOrDie().size(); ++i) {
    const ParetoTeam& t = front.ValueOrDie()[i];
    table.AddRow({std::to_string(i + 1), TablePrinter::Num(t.cc, 3),
                  TablePrinter::Num(t.ca, 3), TablePrinter::Num(t.sa, 3),
                  std::to_string(t.team.size())});
  }
  table.Print();
  return 0;
}

int CmdBuildIndex(const Args& args) {
  if (int rc = CheckFlags(
          args, {{"gammas"}, {"no-base"}, {"threads", Flag::kUint}})) {
    return rc;
  }
  if (args.positional.size() < 3) {
    std::fprintf(stderr, "usage: teamdisc_cli build-index <net> <snapshot-dir> "
                         "[--gammas=...] [--no-base] [--threads=N]\n");
    return 2;
  }
  auto net = LoadNetwork(args.positional[1]);
  if (!net.ok()) {
    std::fprintf(stderr, "%s\n", net.status().ToString().c_str());
    return 1;
  }
  BuildSnapshotOptions options;
  options.pll.num_threads = static_cast<size_t>(args.GetUint("threads", 0));
  options.include_base = args.flags.find("no-base") == args.flags.end();
  auto it = args.flags.find("gammas");
  if (it != args.flags.end()) {
    options.gammas.clear();
    for (std::string_view g : Split(it->second, ',')) {
      auto parsed = ParseDouble(StripWhitespace(g));
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad --gammas value '%s': %s\n",
                     std::string(g).c_str(),
                     parsed.status().ToString().c_str());
        return 2;
      }
      options.gammas.push_back(parsed.ValueOrDie());
    }
  }
  const std::string& dir = args.positional[2];
  auto manifest = BuildSnapshot(net.ValueOrDie(), dir, options);
  if (!manifest.ok()) {
    std::fprintf(stderr, "build-index failed: %s\n",
                 manifest.status().ToString().c_str());
    return 1;
  }
  std::printf("wrote snapshot %s: %zu index artifact(s), network fingerprint "
              "%016llx\n",
              dir.c_str(), manifest.ValueOrDie().entries.size(),
              static_cast<unsigned long long>(
                  manifest.ValueOrDie().network_fingerprint));
  for (const SnapshotIndexEntry& e : manifest.ValueOrDie().entries) {
    std::printf("  %s gamma_bp=%d kind=%s -> %s\n",
                e.transformed ? "transform" : "base", e.gamma_bp,
                std::string(OracleKindToString(e.kind)).c_str(),
                e.file.c_str());
  }
  return 0;
}

int CmdApplyUpdate(const Args& args) {
  if (int rc = CheckFlags(args, {{"threads", Flag::kUint}})) return rc;
  if (args.positional.size() < 3) {
    std::fprintf(stderr,
                 "usage: teamdisc_cli apply-update <snapshot-dir> <delta-file> "
                 "[--threads=N]\n");
    return 2;
  }
  auto delta = LoadDelta(args.positional[2]);
  if (!delta.ok()) {
    std::fprintf(stderr, "cannot load delta: %s\n",
                 delta.status().ToString().c_str());
    return 1;
  }
  SnapshotUpdateOptions options;
  options.pll.num_threads = static_cast<size_t>(args.GetUint("threads", 0));
  auto report =
      ApplySnapshotDelta(args.positional[1], delta.ValueOrDie(), options);
  if (!report.ok()) {
    std::fprintf(stderr, "apply-update failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  const SnapshotUpdateReport& r = report.ValueOrDie();
  std::printf("applied %s to %s: now generation %llu\n",
              delta.ValueOrDie().DebugString().c_str(),
              args.positional[1].c_str(),
              static_cast<unsigned long long>(r.generation));
  std::printf("network: %u experts, %zu edges\n", r.num_experts, r.num_edges);
  std::printf("indexes: %zu kept (search graph unchanged), %zu rebuilt\n",
              r.entries_kept, r.entries_rebuilt);
  return 0;
}

/// Parses --listen=HOST:PORT (":PORT" and bare "PORT" bind 127.0.0.1;
/// port 0 = ephemeral). Returns false and prints on malformed input.
bool ParseListenAddress(const std::string& listen, HttpServerOptions* opts) {
  std::string port_str = listen;
  const size_t colon = listen.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) opts->host = listen.substr(0, colon);
    port_str = listen.substr(colon + 1);
  }
  auto port = ParseUint64(port_str.empty() ? "0" : port_str);
  if (!port.ok() || port.ValueOrDie() > 65535) {
    std::fprintf(stderr, "--listen=%s: port must be 0..65535\n",
                 listen.c_str());
    return false;
  }
  opts->port = static_cast<uint16_t>(port.ValueOrDie());
  return true;
}

/// The HTTP server: the pipeline's epoll front-end over a snapshot, until
/// a signal drains it. Exit 0 means a clean drain: every in-flight request
/// was answered and flushed before the deadline.
int CmdServe(const Args& args) {
  if (int rc = CheckFlags(args, {{"listen"},
                                 {"workers", Flag::kUint},
                                 {"queue-cap", Flag::kUint},
                                 {"deadline-ms", Flag::kDouble},
                                 {"budget-mb", Flag::kUint},
                                 {"max-conns", Flag::kUint},
                                 {"idle-timeout-ms", Flag::kUint},
                                 {"request-timeout-ms", Flag::kUint},
                                 {"write-timeout-ms", Flag::kUint},
                                 {"drain-ms", Flag::kUint}})) {
    return rc;
  }
  const std::string listen = args.Get("listen", "");
  if (args.positional.size() < 2 || listen.empty()) {
    std::fprintf(stderr, "usage: teamdisc_cli serve <snapshot-dir> "
                         "--listen=HOST:PORT [flags]\n");
    return 2;
  }
  HttpServerOptions sopt;
  if (!ParseListenAddress(listen, &sopt)) return 2;
  sopt.max_connections = static_cast<size_t>(args.GetUint("max-conns", 0));
  sopt.idle_timeout_ms = args.GetUint("idle-timeout-ms", 0);
  sopt.request_timeout_ms = args.GetUint("request-timeout-ms", 0);
  sopt.write_timeout_ms = args.GetUint("write-timeout-ms", 0);
  sopt.drain_deadline_ms = args.GetUint("drain-ms", 0);

  ServiceOptions options;
  options.snapshot_dir = args.positional[1];
  options.cache_budget_bytes =
      static_cast<size_t>(args.GetUint("budget-mb", 0)) * (size_t{1} << 20);
  auto service = TeamDiscoveryService::Open(options);
  if (!service.ok()) {
    std::fprintf(stderr, "cannot open snapshot: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  TeamDiscoveryService& svc = *service.ValueOrDie();

  PipelineOptions popt;
  popt.workers = static_cast<size_t>(args.GetUint("workers", 0));
  popt.queue_capacity = static_cast<size_t>(args.GetUint("queue-cap", 0));
  popt.default_deadline_ms = args.GetDouble("deadline-ms", 0.0);
  auto started = RequestPipeline::Start(svc, popt);
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start pipeline: %s\n",
                 started.status().ToString().c_str());
    return 1;
  }
  RequestPipeline& pipeline = *started.ValueOrDie();

  auto server = HttpServer::Start(svc, pipeline, sopt);
  if (!server.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  if (Status s = server.ValueOrDie()->InstallSignalHandlers(); !s.ok()) {
    std::fprintf(stderr, "cannot install signal handlers: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::printf("listening on http://%s:%u (generation %llu); "
              "SIGTERM/SIGINT drains\n",
              sopt.host.c_str(), server.ValueOrDie()->port(),
              static_cast<unsigned long long>(svc.generation()));
  std::fflush(stdout);
  const Status served = server.ValueOrDie()->Serve();
  const HttpServerStats stats = server.ValueOrDie()->stats();
  pipeline.Shutdown();
  std::fprintf(stderr,
               "drained: %llu requests, %llu responses, %llu bad, "
               "%llu shed, %llu evicted, %llu force-closed\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.responses),
               static_cast<unsigned long long>(stats.bad_requests),
               static_cast<unsigned long long>(stats.shed),
               static_cast<unsigned long long>(stats.evicted_idle +
                                               stats.evicted_write),
               static_cast<unsigned long long>(stats.force_closed));
  if (!served.ok()) {
    std::fprintf(stderr, "server loop failed: %s\n",
                 served.ToString().c_str());
    return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const Args args = ParseArgs(argc, argv);
  const std::string command = argv[1];
  if (command == "generate") return CmdGenerate(args);
  if (command == "info") return CmdInfo(args);
  if (command == "skills") return CmdSkills(args);
  if (command == "find") return CmdFind(args);
  if (command == "pareto") return CmdPareto(args);
  if (command == "build-index") return CmdBuildIndex(args);
  if (command == "apply-update") return CmdApplyUpdate(args);
  if (command == "serve") return CmdServe(args);
  return Usage();
}

}  // namespace
}  // namespace teamdisc

int main(int argc, char** argv) { return teamdisc::Main(argc, argv); }
