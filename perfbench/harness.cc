#include <algorithm>
#include <atomic>
#include <cstdio>

#include "net/http_client.h"
#include "perfbench.h"

namespace perfbench {

using teamdisc::HttpClient;

std::unique_ptr<Server> Server::Start(
    const teamdisc::TeamDiscoveryService& service, std::string* error) {
  auto server = std::unique_ptr<Server>(new Server());
  teamdisc::PipelineOptions pipeline;
  pipeline.workers = kPipelineWorkers;
  pipeline.queue_capacity = kQueueCapacity;
  pipeline.default_deadline_ms = -1.0;  // no deadline: every request solves
  auto started = teamdisc::RequestPipeline::Start(service, pipeline);
  if (!started.ok()) {
    *error = started.status().ToString();
    return nullptr;
  }
  server->pipeline_ = std::move(started).ValueOrDie();
  teamdisc::HttpServerOptions http;
  http.backlog = 128;
  http.max_connections = 64;
  http.idle_timeout_ms = 60000;
  http.request_timeout_ms = 30000;
  http.write_timeout_ms = 10000;
  http.drain_deadline_ms = 5000;
  http.limits_from_env = false;
  auto listening = teamdisc::HttpServer::Start(service, *server->pipeline_, http);
  if (!listening.ok()) {
    *error = listening.status().ToString();
    return nullptr;
  }
  server->http_ = std::move(listening).ValueOrDie();
  server->loop_ = std::thread([http_server = server->http_.get()] {
    const teamdisc::Status served = http_server->Serve();
    if (!served.ok()) {
      std::fprintf(stderr, "perfbench: server loop failed: %s\n",
                   served.ToString().c_str());
    }
  });
  return server;
}

Server::~Server() {
  if (http_ != nullptr) http_->RequestDrain();
  if (loop_.joinable()) loop_.join();
  http_.reset();
  if (pipeline_ != nullptr) pipeline_->Shutdown();
}

std::vector<Reply> SendAll(uint16_t port, const std::vector<std::string>& targets,
                           size_t connections) {
  std::vector<Reply> replies(targets.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&] {
      auto client = HttpClient::Connect("127.0.0.1", port);
      for (size_t i = next++; i < targets.size(); i = next++) {
        Reply& reply = replies[i];
        if (!client.ok()) {
          reply.error = client.status().ToString();
          continue;
        }
        auto response = client->Get(targets[i]);
        if (!response.ok()) {
          reply.error = response.status().ToString();
          (void)client->Reconnect();
          continue;
        }
        reply.transport_ok = true;
        reply.status = response->status;
        reply.body = std::move(response->body);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return replies;
}

std::string CheckAnswer(const FindRequest& request, int http_status,
                        const std::string& body, Answer* answer) {
  auto trimmed = [&body] {
    return body.size() > 160 ? body.substr(0, 160) + "..." : body;
  };
  if (http_status != 200) {
    return "HTTP " + std::to_string(http_status) + ": " + trimmed();
  }
  const std::optional<Json> doc = ParseJson(body);
  const Json* status = doc ? doc->Find("status") : nullptr;
  if (status == nullptr) return "unparseable answer: " + trimmed();
  if (status->text == "infeasible") {
    answer->canonical = "infeasible";
    return "";
  }
  if (status->text != "ok") return "status " + status->text;
  const Json* teams = doc->Find("teams");
  const Json* generation = doc->Find("generation");
  const Json* queue_ms = doc->Find("queue_ms");
  const Json* solve_ms = doc->Find("solve_ms");
  if (teams == nullptr || teams->items.empty() || generation == nullptr ||
      queue_ms == nullptr || solve_ms == nullptr) {
    return "incomplete answer: " + trimmed();
  }
  const Json& team = teams->items.front();
  const Json* objective = team.Find("objective");
  const Json* members = team.Find("members");
  const Json* assignments = team.Find("assignments");
  if (objective == nullptr || members == nullptr || assignments == nullptr) {
    return "incomplete team: " + trimmed();
  }
  std::vector<std::string> ids;
  for (const Json& member : members->items) {
    const Json* id = member.Find("id");
    if (id == nullptr) return "member without id";
    ids.push_back(id->text);
  }
  std::string assigned;
  for (const std::string& skill : request.skills) {
    const Json* expert = nullptr;
    for (const Json& a : assignments->items) {
      const Json* name = a.Find("skill");
      if (name != nullptr && name->text == skill) expert = a.Find("expert");
    }
    if (expert == nullptr) return "skill '" + skill + "' is not assigned";
    if (std::find(ids.begin(), ids.end(), expert->text) == ids.end()) {
      return "skill '" + skill + "' assigned to non-member " + expert->text;
    }
  }
  std::string canonical = "objective=" + objective->text + " members=";
  for (const std::string& id : ids) canonical += id + ",";
  canonical += " assignments=";
  for (const Json& a : assignments->items) {
    const Json* name = a.Find("skill");
    const Json* expert = a.Find("expert");
    if (name == nullptr || expert == nullptr) return "malformed assignment";
    canonical += name->text + ":" + expert->text + ",";
  }
  answer->canonical = std::move(canonical);
  answer->generation = static_cast<uint64_t>(generation->number);
  answer->queue_ms = queue_ms->number;
  answer->solve_ms = solve_ms->number;
  return "";
}

std::string CanonicalTeam(const teamdisc::ExpertNetwork& net,
                          const teamdisc::ScoredTeam& team) {
  char objective[64];
  // The server prints objectives with %.6f; so must the comparison.
  std::snprintf(objective, sizeof(objective), "%.6f", team.objective);
  std::string canonical = std::string("objective=") + objective + " members=";
  for (const teamdisc::NodeId v : team.team.nodes) {
    canonical += std::to_string(v) + ",";
  }
  canonical += " assignments=";
  for (const teamdisc::SkillAssignment& a : team.team.assignments) {
    canonical += net.skills().NameUnchecked(a.skill) + ":" +
                 std::to_string(a.expert) + ",";
  }
  return canonical;
}

}  // namespace perfbench
