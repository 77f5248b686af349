// HttpServer end-to-end over real loopback sockets: endpoint routing,
// keep-alive, overload shedding (503 + Retry-After), slow-loris eviction,
// degraded-health reporting, connection caps, injected socket faults, and
// graceful drain with an in-flight request. Runs under the sanitizer jobs
// (labels: smoke, faults) so the event loop's cross-thread handoffs are
// raced on every CI run.
#include "net/http_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "../core/test_networks.h"
#include "common/fault_injection.h"
#include "net/http_client.h"
#include "net/socket_util.h"
#include "service/snapshot.h"

namespace teamdisc {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

/// Builds a snapshot of MediumNetwork (skills a/b/c/d) with gamma 0.6.
std::string MakeSnapshot(const std::string& name) {
  const std::string dir = FreshDir(name);
  BuildSnapshotOptions options;
  options.gammas = {0.6};
  ExpertNetwork net = MediumNetwork();
  TD_CHECK(BuildSnapshot(net, dir, options).ok());
  return dir;
}

/// Service + pipeline + server + loop thread, torn down in order.
struct Harness {
  std::unique_ptr<TeamDiscoveryService> svc;
  std::unique_ptr<RequestPipeline> pipeline;
  std::unique_ptr<HttpServer> server;
  std::thread loop;

  Harness() = default;
  Harness(Harness&&) = default;
  Harness& operator=(Harness&&) = default;

  ~Harness() { Stop(); }
  void Stop() {
    if (server != nullptr && loop.joinable()) {
      server->RequestDrain();
      loop.join();
    }
    if (pipeline != nullptr) pipeline->Shutdown();
  }
};

Harness StartHarness(const std::string& name, PipelineOptions popt = {},
                     HttpServerOptions sopt = {}) {
  Harness h;
  h.svc = TeamDiscoveryService::Open({.snapshot_dir = MakeSnapshot(name)})
              .ValueOrDie();
  if (popt.workers == 0) popt.workers = 2;
  if (popt.queue_capacity == 0) popt.queue_capacity = 16;
  h.pipeline = RequestPipeline::Start(*h.svc, popt).ValueOrDie();
  // Generous defaults so an unrelated slow sanitizer run never trips a
  // deadline; tests that exercise timeouts pass tighter ones explicitly.
  if (sopt.idle_timeout_ms == 0) sopt.idle_timeout_ms = 10000;
  if (sopt.request_timeout_ms == 0) sopt.request_timeout_ms = 10000;
  if (sopt.write_timeout_ms == 0) sopt.write_timeout_ms = 10000;
  if (sopt.drain_deadline_ms == 0) sopt.drain_deadline_ms = 5000;
  h.server = HttpServer::Start(*h.svc, *h.pipeline, sopt).ValueOrDie();
  h.loop = std::thread([s = h.server.get()] {
    const Status served = s->Serve();
    TD_CHECK(served.ok()) << served.ToString();
  });
  return h;
}

class HttpServerTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjection::Reset(); }
};

TEST_F(HttpServerTest, FindEndpointReturnsTeams) {
  Harness h = StartHarness("srv_find");
  auto client = HttpClient::Connect("127.0.0.1", h.server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto response = client.ValueOrDie().Get("/find?skills=a,d&top_k=2");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.ValueOrDie().status, 200);
  EXPECT_NE(response.ValueOrDie().body.find("\"status\":\"ok\""),
            std::string::npos);
  EXPECT_NE(response.ValueOrDie().body.find("\"teams\":["),
            std::string::npos);
  EXPECT_NE(response.ValueOrDie().body.find("\"members\""),
            std::string::npos);
}

TEST_F(HttpServerTest, PostFormBodyWorks) {
  Harness h = StartHarness("srv_post");
  auto client = HttpClient::Connect("127.0.0.1", h.server->port());
  ASSERT_TRUE(client.ok());
  auto response =
      client.ValueOrDie().Post("/find", "skills=a%2Cb&lambda=0.5&top_k=1");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.ValueOrDie().status, 200);
}

TEST_F(HttpServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  Harness h = StartHarness("srv_keepalive");
  auto client = HttpClient::Connect("127.0.0.1", h.server->port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 5; ++i) {
    auto response = client.ValueOrDie().Get("/find?skills=a,b");
    ASSERT_TRUE(response.ok()) << "request " << i << ": "
                               << response.status().ToString();
    EXPECT_EQ(response.ValueOrDie().status, 200);
  }
  EXPECT_EQ(h.server->stats().accepted, 1u)
      << "five requests must share the one keep-alive connection";
}

TEST_F(HttpServerTest, RoutingAndValidationErrors) {
  Harness h = StartHarness("srv_errors");
  auto client = HttpClient::Connect("127.0.0.1", h.server->port());
  ASSERT_TRUE(client.ok());
  HttpClient& c = client.ValueOrDie();

  // 33 skill names: one over the cap, rejected before any is resolved.
  std::string many_skills = "/find?skills=a";
  for (int i = 1; i < 33; ++i) many_skills += ",x" + std::to_string(i);

  struct Case {
    std::string target;
    int status;
    const char* body_has = "";
  };
  const Case cases[] = {
      {"/find", 400},                        // no skills
      {"/find?skills=a&gamma=oops", 400},    // malformed number
      {"/find?skills=a&nope=1", 400},        // unknown parameter
      {"/find?skills=a&strategy=bogus", 400},
      {"/find?skills=a&top_k=0", 400},
      {"/find?skills=a&oracle=dijkstra", 400},  // no client-chosen oracle
      {"/find?skills=a,d,a", 400, "skill 'a' is named twice"},
      {many_skills, 400, "at most 32 skills per request, got 33"},
      {"/nothing", 404},
      {"/metrics", 200},
      {"/healthz", 200},
  };
  for (const Case& expectation : cases) {
    auto response = c.Get(expectation.target);
    ASSERT_TRUE(response.ok()) << expectation.target << ": "
                               << response.status().ToString();
    EXPECT_EQ(response.ValueOrDie().status, expectation.status)
        << expectation.target;
    EXPECT_NE(response.ValueOrDie().body.find(expectation.body_has),
              std::string::npos)
        << expectation.target << ": " << response.ValueOrDie().body;
  }
  // Unknown method: 405 with Allow.
  auto put = c.Exchange("PUT /find HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put.ValueOrDie().status, 405);
  ASSERT_NE(put.ValueOrDie().FindHeader("allow"), nullptr);
}

TEST_F(HttpServerTest, MalformedBytesGet400AndConnectionCloses) {
  Harness h = StartHarness("srv_malformed");
  auto fd = ConnectTcp("127.0.0.1", h.server->port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(SetSocketTimeoutMs(fd.ValueOrDie(), 5000).ok());
  ASSERT_TRUE(WriteAll(fd.ValueOrDie(), "NOT-HTTP\n\n").ok());
  std::string got;
  char buf[4096];
  while (true) {
    auto r = ReadSome(fd.ValueOrDie(), buf, sizeof(buf));
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(r.ValueOrDie().would_block) << "server never answered";
    if (r.ValueOrDie().eof) break;
    got.append(buf, r.ValueOrDie().bytes);
  }
  CloseFd(fd.ValueOrDie());
  EXPECT_EQ(got.rfind("HTTP/1.1 400", 0), 0u) << got;
  EXPECT_NE(got.find("Connection: close"), std::string::npos);
  EXPECT_GE(h.server->stats().bad_requests, 1u);
}

TEST_F(HttpServerTest, OverloadShedsWith503RetryAfter) {
  PipelineOptions popt;
  popt.workers = 1;
  popt.queue_capacity = 1;
  // Hold each dispatched solve long enough that concurrent arrivals pile
  // into the 1-deep queue and shed.
  popt.pre_dispatch_hook = [](const TeamRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  };
  Harness h = StartHarness("srv_shed", popt);

  constexpr int kClients = 8;
  std::atomic<int> ok_count{0}, shed_count{0};
  std::atomic<bool> saw_retry_after{false};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      auto client = HttpClient::Connect("127.0.0.1", h.server->port());
      if (!client.ok()) return;
      auto response = client.ValueOrDie().Get("/find?skills=a,b");
      if (!response.ok()) return;
      if (response.ValueOrDie().status == 200) ok_count.fetch_add(1);
      if (response.ValueOrDie().status == 503) {
        shed_count.fetch_add(1);
        if (response.ValueOrDie().FindHeader("retry-after") != nullptr) {
          saw_retry_after.store(true);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_GE(ok_count.load(), 1) << "someone must still be served";
  EXPECT_GE(shed_count.load(), 1) << "the 1-deep queue must shed overload";
  EXPECT_TRUE(saw_retry_after.load());
  EXPECT_EQ(h.server->stats().shed,
            static_cast<uint64_t>(shed_count.load()));
}

TEST_F(HttpServerTest, SlowLorisIsEvictedWithoutStallingOthers) {
  HttpServerOptions sopt;
  sopt.idle_timeout_ms = 300;
  sopt.request_timeout_ms = 200;  // first byte -> parse complete
  Harness h = StartHarness("srv_loris", {}, sopt);

  // The loris: sends a request prefix, then trickles one byte every 50 ms —
  // each byte resets idle activity, but never the request deadline.
  auto loris = ConnectTcp("127.0.0.1", h.server->port());
  ASSERT_TRUE(loris.ok());
  ASSERT_TRUE(SetSocketTimeoutMs(loris.ValueOrDie(), 5000).ok());
  ASSERT_TRUE(WriteAll(loris.ValueOrDie(), "GET /find?sk").ok());

  std::atomic<bool> loris_dead{false};
  std::thread trickler([&] {
    char byte = 'i';
    while (!loris_dead.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (!WriteSome(loris.ValueOrDie(), &byte, 1).ok()) break;
    }
  });
  // No ASSERT until the trickler is joined below: a joinable std::thread
  // destroyed on an early return terminates the whole binary.

  // Meanwhile a well-behaved client gets served normally.
  auto client = HttpClient::Connect("127.0.0.1", h.server->port());
  Result<HttpClientResponse> response =
      client.ok() ? client.ValueOrDie().Get("/find?skills=a,b")
                  : Result<HttpClientResponse>(client.status());

  // The loris connection must be closed by the request deadline. The server
  // closes with trickled bytes still unread, so the loris may see an RST
  // (ECONNRESET -> IOError) instead of a FIN: both are the eviction.
  Status end = Status::OK();
  bool never_evicted = false;
  char buf[256];
  while (true) {
    auto r = ReadSome(loris.ValueOrDie(), buf, sizeof(buf));
    if (!r.ok()) {
      end = r.status();
      break;
    }
    if (r.ValueOrDie().would_block) {  // the 5 s socket timeout ran out
      never_evicted = true;
      break;
    }
    if (r.ValueOrDie().eof) break;
  }
  loris_dead.store(true);
  trickler.join();
  CloseFd(loris.ValueOrDie());

  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.ValueOrDie().status, 200);
  EXPECT_FALSE(never_evicted) << "loris was never evicted";
  EXPECT_TRUE(end.ok() || end.IsIOError()) << end.ToString();
  EXPECT_GE(h.server->stats().evicted_idle, 1u);
}

TEST_F(HttpServerTest, HealthzReports503WhenDegraded) {
  Harness h = StartHarness("srv_degraded");
  auto client = HttpClient::Connect("127.0.0.1", h.server->port());
  ASSERT_TRUE(client.ok());
  auto healthy = client.ValueOrDie().Get("/healthz");
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy.ValueOrDie().status, 200);
  // A swap refreshes only resident indexes: serve one so the update below
  // reaches its rebuild fault point.
  auto warm = client.ValueOrDie().Get("/find?skills=a,b");
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.ValueOrDie().status, 200);

  // Fail an ApplyDelta at the rebuild fault point: the service enters
  // DEGRADED (old epoch keeps serving) and /healthz must say so with 503.
  FaultSpec spec;
  spec.action = FaultAction::kFailOnce;
  FaultInjection::Arm("service.applydelta.rebuild", spec);
  ExpertNetworkDelta reweight;  // changes every search graph: rebuild path
  reweight.ReweightCollaboration(3, 7, 0.9);
  EXPECT_FALSE(h.svc->ApplyDelta(reweight).ok());
  ASSERT_EQ(h.svc->health().state, HealthState::kDegraded);

  auto degraded = client.ValueOrDie().Get("/healthz");
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded.ValueOrDie().status, 503);
  EXPECT_NE(degraded.ValueOrDie().body.find("degraded"), std::string::npos);

  // Serving keeps working while degraded — health is a signal, not a gate.
  auto find = client.ValueOrDie().Get("/find?skills=a,b");
  ASSERT_TRUE(find.ok());
  EXPECT_EQ(find.ValueOrDie().status, 200);
}

TEST_F(HttpServerTest, ConnectionCapAnswers503AndCloses) {
  HttpServerOptions sopt;
  sopt.max_connections = 1;
  Harness h = StartHarness("srv_conncap", {}, sopt);

  auto first = HttpClient::Connect("127.0.0.1", h.server->port());
  ASSERT_TRUE(first.ok());
  // A request pins the first connection open inside the server.
  ASSERT_TRUE(first.ValueOrDie().Get("/healthz").ok());

  auto second = ConnectTcp("127.0.0.1", h.server->port());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(SetSocketTimeoutMs(second.ValueOrDie(), 5000).ok());
  std::string got;
  char buf[4096];
  while (true) {
    auto r = ReadSome(second.ValueOrDie(), buf, sizeof(buf));
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(r.ValueOrDie().would_block) << "cap rejection never came";
    if (r.ValueOrDie().eof) break;
    got.append(buf, r.ValueOrDie().bytes);
  }
  CloseFd(second.ValueOrDie());
  EXPECT_EQ(got.rfind("HTTP/1.1 503", 0), 0u) << got;
  EXPECT_EQ(h.server->stats().rejected, 1u);
}

TEST_F(HttpServerTest, InjectedReadFaultDropsOneConnectionNotTheServer) {
  Harness h = StartHarness("srv_readfault");
  FaultSpec spec;
  spec.action = FaultAction::kFailOnce;
  FaultInjection::Arm("net.read", spec);

  // Drive the victim over a raw socket and do not read until the fault has
  // tripped server-side — the client's own reads share the process-global
  // fault point, and reading early could consume the fail_once itself.
  auto victim = ConnectTcp("127.0.0.1", h.server->port());
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(SetSocketTimeoutMs(victim.ValueOrDie(), 5000).ok());
  ASSERT_TRUE(
      WriteAll(victim.ValueOrDie(), "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
          .ok());
  for (int i = 0; i < 1000 && FaultInjection::trips("net.read") == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(FaultInjection::trips("net.read"), 1u);
  // The injected failure killed the connection. The server closes while the
  // request bytes sit unread in its kernel buffer, so the victim sees either
  // a FIN (eof) or an RST (ECONNRESET -> IOError) — never response bytes.
  char buf[256];
  auto end = ReadSome(victim.ValueOrDie(), buf, sizeof(buf));
  if (end.ok()) {
    EXPECT_TRUE(end.ValueOrDie().eof);
    EXPECT_EQ(end.ValueOrDie().bytes, 0u);
  } else {
    EXPECT_TRUE(end.status().IsIOError()) << end.status().ToString();
  }
  CloseFd(victim.ValueOrDie());

  // The server itself is fine: a fresh connection serves normally.
  auto next = HttpClient::Connect("127.0.0.1", h.server->port());
  ASSERT_TRUE(next.ok());
  auto response = next.ValueOrDie().Get("/healthz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.ValueOrDie().status, 200);
  EXPECT_GE(h.server->stats().io_errors, 1u);
}

TEST_F(HttpServerTest, DrainFinishesInFlightRequestThenStopsAccepting) {
  PipelineOptions popt;
  popt.workers = 1;
  std::atomic<bool> in_solve{false};
  popt.pre_dispatch_hook = [&in_solve](const TeamRequest&) {
    in_solve.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  };
  Harness h = StartHarness("srv_drain", popt);
  const uint16_t port = h.server->port();

  std::atomic<int> final_status{0};
  std::thread requester([&] {
    auto client = HttpClient::Connect("127.0.0.1", port);
    if (!client.ok()) return;
    auto response = client.ValueOrDie().Get("/find?skills=a,d");
    if (response.ok()) final_status.store(response.ValueOrDie().status);
  });
  while (!in_solve.load()) std::this_thread::yield();

  // Drain lands mid-solve: the in-flight request must still be answered.
  h.server->RequestDrain();
  h.loop.join();
  requester.join();
  EXPECT_EQ(final_status.load(), 200)
      << "in-flight request was not answered during drain";
  EXPECT_EQ(h.server->stats().force_closed, 0u);

  // And the listener is gone: new connections are refused.
  auto refused = ConnectTcp("127.0.0.1", port);
  EXPECT_FALSE(refused.ok());
  h.Stop();
}

TEST_F(HttpServerTest, HelperFunctionsRoundTrip) {
  EXPECT_EQ(UrlDecode("a%2Cb+c").ValueOrDie(), "a,b c");
  EXPECT_FALSE(UrlDecode("bad%2").ok());
  EXPECT_FALSE(UrlDecode("bad%zz").ok());
  auto params = ParseFormParams("skills=a%2Cb&top_k=3&flag").ValueOrDie();
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(params[0].first, "skills");
  EXPECT_EQ(params[0].second, "a,b");
  EXPECT_EQ(params[2].first, "flag");
  EXPECT_EQ(params[2].second, "");
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

}  // namespace
}  // namespace teamdisc
