#include "net/http_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>

#include "common/env.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace teamdisc {

namespace {

constexpr uint64_t kListenerId = 0;
constexpr uint64_t kWakeId = 1;
constexpr int kDefaultBacklog = 128;
constexpr size_t kDefaultMaxConnections = 1024;
constexpr uint64_t kDefaultIdleTimeoutMs = 60000;
constexpr uint64_t kDefaultRequestTimeoutMs = 30000;
constexpr uint64_t kDefaultWriteTimeoutMs = 10000;
constexpr uint64_t kDefaultDrainDeadlineMs = 5000;

std::string_view ReasonPhrase(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 414: return "URI Too Long";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    case 505: return "HTTP Version Not Supported";
    default:  return "Error";
  }
}

std::string BuildResponse(int code, bool keep_alive, std::string_view body,
                          std::string_view extra_headers) {
  std::string out = StrFormat(
      "HTTP/1.1 %d %s\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: %zu\r\n"
      "Connection: %s\r\n",
      code, std::string(ReasonPhrase(code)).c_str(), body.size(),
      keep_alive ? "keep-alive" : "close");
  out.append(extra_headers);
  out.append("\r\n");
  out.append(body);
  return out;
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

Result<std::string> UrlDecode(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  for (size_t i = 0; i < input.size(); ++i) {
    const char c = input[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%') {
      if (i + 2 >= input.size()) {
        return Status::InvalidArgument("truncated %-escape");
      }
      const int hi = HexValue(input[i + 1]);
      const int lo = HexValue(input[i + 2]);
      if (hi < 0 || lo < 0) return Status::InvalidArgument("bad %-escape");
      out.push_back(static_cast<char>(hi * 16 + lo));
      i += 2;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

Result<std::vector<std::pair<std::string, std::string>>> ParseFormParams(
    std::string_view query) {
  std::vector<std::pair<std::string, std::string>> params;
  if (query.empty()) return params;
  for (std::string_view pair : Split(query, '&')) {
    if (pair.empty()) continue;
    const size_t eq = pair.find('=');
    std::string_view raw_key =
        eq == std::string_view::npos ? pair : pair.substr(0, eq);
    std::string_view raw_value =
        eq == std::string_view::npos ? std::string_view() : pair.substr(eq + 1);
    TD_ASSIGN_OR_RETURN(std::string key, UrlDecode(raw_key));
    TD_ASSIGN_OR_RETURN(std::string value, UrlDecode(raw_value));
    params.emplace_back(std::move(key), std::move(value));
  }
  return params;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Signal plumbing. The handler does exactly two async-signal-safe things:
// an atomic load and (inside RequestDrain) an atomic store + write(2).
namespace {
std::atomic<HttpServer*> g_signal_server{nullptr};

extern "C" void TeamdiscDrainSignalHandler(int /*signo*/) {
  HttpServer* server = g_signal_server.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestDrain();
}
}  // namespace

Status HttpServer::InstallSignalHandlers() {
  HttpServer* expected = nullptr;
  if (!g_signal_server.compare_exchange_strong(expected, this) &&
      expected != this) {
    return Status::FailedPrecondition(
        "another HttpServer already owns the SIGTERM/SIGINT handlers");
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = TeamdiscDrainSignalHandler;
  sigemptyset(&sa.sa_mask);
  // No SA_RESTART: a signal should also kick a blocked epoll_wait, though
  // the eventfd write is the real wakeup.
  if (sigaction(SIGTERM, &sa, nullptr) != 0 ||
      sigaction(SIGINT, &sa, nullptr) != 0) {
    return Status::IOError(StrFormat("sigaction: %s", std::strerror(errno)));
  }
  return Status::OK();
}

void HttpServer::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  const int fd = wake_fd_;
  if (fd >= 0) {
    const uint64_t one = 1;
    // Async-signal-safe; failure (EAGAIN at counter overflow) is harmless —
    // the loop polls drain_requested_ on every wakeup anyway.
    [[maybe_unused]] ssize_t ignored = ::write(fd, &one, sizeof(one));
  }
}

// ---------------------------------------------------------------------------

Result<std::unique_ptr<HttpServer>> HttpServer::Start(
    const TeamDiscoveryService& service, RequestPipeline& pipeline,
    HttpServerOptions options) {
  if (options.backlog == 0) {
    options.backlog = static_cast<int>(
        GetEnvOr("TEAMDISC_LISTEN_BACKLOG", uint64_t{kDefaultBacklog}));
  }
  if (options.max_connections == 0) {
    options.max_connections = static_cast<size_t>(GetEnvOr(
        "TEAMDISC_LISTEN_MAX_CONNS", uint64_t{kDefaultMaxConnections}));
  }
  if (options.idle_timeout_ms == 0) {
    options.idle_timeout_ms =
        GetEnvOr("TEAMDISC_LISTEN_IDLE_TIMEOUT_MS", kDefaultIdleTimeoutMs);
  }
  if (options.request_timeout_ms == 0) {
    options.request_timeout_ms = GetEnvOr("TEAMDISC_LISTEN_REQUEST_TIMEOUT_MS",
                                          kDefaultRequestTimeoutMs);
  }
  if (options.write_timeout_ms == 0) {
    options.write_timeout_ms =
        GetEnvOr("TEAMDISC_LISTEN_WRITE_TIMEOUT_MS", kDefaultWriteTimeoutMs);
  }
  if (options.drain_deadline_ms == 0) {
    options.drain_deadline_ms =
        GetEnvOr("TEAMDISC_LISTEN_DRAIN_MS", kDefaultDrainDeadlineMs);
  }
  if (options.limits_from_env) options.limits = HttpLimits::FromEnv();

  TD_RETURN_IF_ERROR(IgnoreSigpipe());

  auto server = std::unique_ptr<HttpServer>(new HttpServer());
  server->service_ = &service;
  server->pipeline_ = &pipeline;
  server->options_ = std::move(options);

  TD_ASSIGN_OR_RETURN(
      server->listen_fd_,
      ListenTcp(server->options_.host, server->options_.port,
                server->options_.backlog));
  TD_ASSIGN_OR_RETURN(server->port_, LocalPort(server->listen_fd_));

  server->epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (server->epoll_fd_ < 0) {
    return Status::IOError(StrFormat("epoll_create1: %s", std::strerror(errno)));
  }
  server->wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (server->wake_fd_ < 0) {
    return Status::IOError(StrFormat("eventfd: %s", std::strerror(errno)));
  }

  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerId;
  if (::epoll_ctl(server->epoll_fd_, EPOLL_CTL_ADD, server->listen_fd_, &ev) !=
      0) {
    return Status::IOError(StrFormat("epoll_ctl(listener): %s",
                                     std::strerror(errno)));
  }
  ev.data.u64 = kWakeId;
  if (::epoll_ctl(server->epoll_fd_, EPOLL_CTL_ADD, server->wake_fd_, &ev) !=
      0) {
    return Status::IOError(StrFormat("epoll_ctl(wake): %s",
                                     std::strerror(errno)));
  }

  MetricsRegistry& m = pipeline.metrics();
  server->c_accepted_ = &m.counter("net.accepted");
  server->c_rejected_ = &m.counter("net.rejected_conns");
  server->c_accept_errors_ = &m.counter("net.accept_errors");
  server->c_requests_ = &m.counter("net.requests");
  server->c_responses_ = &m.counter("net.responses");
  server->c_bad_requests_ = &m.counter("net.bad_requests");
  server->c_shed_ = &m.counter("net.http_503");
  server->c_evicted_idle_ = &m.counter("net.evicted_idle");
  server->c_evicted_write_ = &m.counter("net.evicted_write");
  server->c_io_errors_ = &m.counter("net.io_errors");
  server->c_cancelled_by_peer_ = &m.counter("net.cancelled_by_peer");
  server->c_force_closed_ = &m.counter("net.force_closed");
  server->g_open_connections_ = &m.gauge("net.open_connections");
  server->g_draining_ = &m.gauge("net.draining");
  return server;
}

HttpServer::~HttpServer() {
  HttpServer* expected = this;
  g_signal_server.compare_exchange_strong(expected, nullptr);
  for (auto& [id, conn] : conns_) CloseFd(conn->fd);
  conns_.clear();
  CloseFd(listen_fd_);
  CloseFd(wake_fd_);
  CloseFd(epoll_fd_);
}

HttpServerStats HttpServer::stats() const {
  HttpServerStats s;
  s.accepted = c_accepted_->value();
  s.rejected = c_rejected_->value();
  s.accept_errors = c_accept_errors_->value();
  s.requests = c_requests_->value();
  s.responses = c_responses_->value();
  s.bad_requests = c_bad_requests_->value();
  s.shed = c_shed_->value();
  s.evicted_idle = c_evicted_idle_->value();
  s.evicted_write = c_evicted_write_->value();
  s.io_errors = c_io_errors_->value();
  s.cancelled_by_peer = c_cancelled_by_peer_->value();
  s.force_closed = c_force_closed_->value();
  s.open_connections = static_cast<uint64_t>(g_open_connections_->value());
  return s;
}

// ---------------------------------------------------------------------------
// Event loop.

Status HttpServer::Serve() {
  while (true) {
    if (drain_requested_.load(std::memory_order_acquire) && !drain_begun_) {
      BeginDrain();
    }
    if (drain_begun_ && DrainFinished()) break;
    TD_RETURN_IF_ERROR(LoopOnce(NextTimeoutMs()));
  }
  g_draining_->Set(0.0);
  return Status::OK();
}

Status HttpServer::LoopOnce(int timeout_ms) {
  epoll_event events[64];
  int n;
  do {
    n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    return Status::IOError(StrFormat("epoll_wait: %s", std::strerror(errno)));
  }
  for (int i = 0; i < n; ++i) {
    const uint64_t id = events[i].data.u64;
    if (id == kListenerId) {
      HandleAccept();
    } else if (id == kWakeId) {
      uint64_t drained;
      while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
      }
    } else {
      auto it = conns_.find(id);
      // The connection may have been closed by an earlier event in this
      // same batch; stale events are expected and dropped.
      if (it != conns_.end()) HandleConnEvent(it->second.get(), events[i].events);
    }
  }
  DrainCompletions();
  SweepDeadlines();
  return Status::OK();
}

int HttpServer::NextTimeoutMs() const {
  Clock::time_point next = Clock::time_point::max();
  const auto consider = [&next](Clock::time_point t) {
    if (t < next) next = t;
  };
  for (const auto& [id, conn] : conns_) {
    switch (conn->state) {
      case ConnState::kReading:
        consider(conn->last_activity +
                 std::chrono::milliseconds(options_.idle_timeout_ms));
        if (conn->request_in_progress) {
          consider(conn->request_started +
                   std::chrono::milliseconds(options_.request_timeout_ms));
        }
        break;
      case ConnState::kWriting:
        consider(conn->write_progress +
                 std::chrono::milliseconds(options_.write_timeout_ms));
        break;
      case ConnState::kDispatched:
        break;  // the pipeline deadline governs the solve
    }
  }
  if (drain_begun_) consider(drain_deadline_at_);
  if (next == Clock::time_point::max()) return 1000;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      next - Clock::now())
                      .count();
  return static_cast<int>(std::clamp<long long>(ms + 1, 1, 1000));
}

void HttpServer::HandleAccept() {
  while (true) {
    auto accepted = AcceptNonBlocking(listen_fd_);
    if (!accepted.ok()) {
      // One failed accept (fd pressure, peer reset, injected net.accept
      // fault) must not take the listener down: count it, keep serving.
      c_accept_errors_->Increment();
      TD_LOG(Warning) << "accept failed: " << accepted.status().ToString();
      return;
    }
    const int fd = accepted.ValueOrDie();
    if (fd < 0) return;  // no more pending connections
    c_accepted_->Increment();
    if (conns_.size() >= options_.max_connections) {
      // Count before the write/close: a peer that observes the rejection
      // (503 bytes then eof) must already see it in the counters.
      c_rejected_->Increment();
      // Best-effort 503 so the client sees shed-not-crash; the socket
      // buffer of a fresh connection always has room for these bytes.
      const std::string response =
          BuildResponse(503, /*keep_alive=*/false,
                        "{\"error\":\"connection limit reached\"}\n",
                        "Retry-After: 1\r\n");
      (void)WriteSome(fd, response.data(), response.size());
      CloseFd(fd);
      continue;
    }
    auto conn = std::make_unique<Connection>(options_.limits);
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->last_activity = Clock::now();

    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      CloseFd(fd);
      c_io_errors_->Increment();
      continue;
    }
    conn->epoll_mask = ev.events;
    conns_.emplace(conn->id, std::move(conn));
    g_open_connections_->Set(static_cast<double>(conns_.size()));
  }
}

void HttpServer::UpdateEpollMask(Connection* conn) {
  uint32_t want = EPOLLRDHUP;
  switch (conn->state) {
    case ConnState::kReading:
      want |= EPOLLIN;
      break;
    case ConnState::kDispatched:
      break;  // not reading: kernel buffer backpressures pipelined clients
    case ConnState::kWriting:
      want |= EPOLLOUT;
      break;
  }
  if (want == conn->epoll_mask) return;
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = want;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->epoll_mask = want;
  }
}

void HttpServer::CloseConnection(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  CloseFd(it->second->fd);
  conns_.erase(it);
  g_open_connections_->Set(static_cast<double>(conns_.size()));
}

void HttpServer::HandleConnEvent(Connection* conn, uint32_t events) {
  if (events & (EPOLLERR | EPOLLHUP)) {
    // Socket is dead. If a request is in flight its completion will find no
    // connection and be dropped; cancel so an undigested solve is skipped.
    if (conn->state == ConnState::kDispatched) {
      conn->token.Cancel();
      c_cancelled_by_peer_->Increment();
    }
    CloseConnection(conn->id);
    return;
  }
  if ((events & EPOLLRDHUP) && conn->state == ConnState::kDispatched) {
    // The client stopped sending (likely gave up). Cancel the in-flight
    // request so it is dropped at dispatch if it has not started; if the
    // solve already ran, the response write below will find out whether
    // anyone is still reading.
    if (!conn->peer_half_closed) {
      conn->peer_half_closed = true;
      conn->token.Cancel();
      c_cancelled_by_peer_->Increment();
    }
    return;
  }
  if ((events & (EPOLLIN | EPOLLRDHUP)) && conn->state == ConnState::kReading) {
    HandleReadable(conn);
    return;
  }
  if ((events & EPOLLOUT) && conn->state == ConnState::kWriting) {
    HandleWritable(conn);
  }
}

void HttpServer::HandleReadable(Connection* conn) {
  char buf[8192];
  auto read = ReadSome(conn->fd, buf, sizeof(buf));
  if (!read.ok()) {
    c_io_errors_->Increment();
    CloseConnection(conn->id);
    return;
  }
  const IoResult r = read.ValueOrDie();
  if (r.would_block) return;
  if (r.eof) {
    // Orderly close between requests, or mid-request abandonment — either
    // way there is nothing left to answer.
    CloseConnection(conn->id);
    return;
  }
  conn->last_activity = Clock::now();
  if (!conn->request_in_progress) {
    conn->request_in_progress = true;
    conn->request_started = conn->last_activity;
  }
  conn->inbuf.append(buf, r.bytes);
  PumpParser(conn);
}

void HttpServer::PumpParser(Connection* conn) {
  size_t consumed = 0;
  const HttpParser::State state =
      conn->parser.Feed(conn->inbuf.data(), conn->inbuf.size(), &consumed);
  conn->inbuf.erase(0, consumed);

  switch (state) {
    case HttpParser::State::kNeedMore:
      return;
    case HttpParser::State::kError: {
      c_bad_requests_->Increment();
      conn->keep_alive = false;
      EnqueueResponse(
          conn, conn->parser.http_status(),
          StrFormat("{\"error\":\"%s\"}\n",
                    JsonEscape(conn->parser.error().message()).c_str()));
      return;
    }
    case HttpParser::State::kComplete:
      conn->request_in_progress = false;
      RouteRequest(conn);
      return;
  }
}

void HttpServer::RouteRequest(Connection* conn) {
  const HttpRequest& request = conn->parser.request();
  conn->keep_alive = request.KeepAlive();
  c_requests_->Increment();

  if (drain_begun_) {
    // Connections that slip a request in during drain get an honest 503:
    // the process is going away, come back to a healthy replica.
    c_shed_->Increment();
    conn->keep_alive = false;
    EnqueueResponse(conn, 503, "{\"error\":\"server draining\"}\n",
                    "Retry-After: 1\r\n");
    return;
  }
  if (request.method != "GET" && request.method != "POST") {
    EnqueueResponse(conn, 405, "{\"error\":\"method not allowed\"}\n",
                    "Allow: GET, POST\r\n");
    return;
  }

  if (request.path == "/healthz") {
    const bool degraded =
        service_->health().state == HealthState::kDegraded;
    EnqueueResponse(conn, degraded ? 503 : 200, HealthJson());
    return;
  }
  if (request.path == "/metrics") {
    EnqueueResponse(conn, 200, pipeline_->MetricsJson() + "\n");
    return;
  }
  if (request.path == "/find") {
    SubmitFind(conn, request);
    return;
  }
  EnqueueResponse(conn, 404,
                  StrFormat("{\"error\":\"no such endpoint '%s'\"}\n",
                            JsonEscape(request.path).c_str()));
}

std::string HttpServer::HealthJson() const {
  const HealthStats health = service_->health();
  const bool degraded = health.state == HealthState::kDegraded;
  return StrFormat(
      "{\"status\":\"%s\",\"generation\":%llu,\"update_failures\":%llu,"
      "\"persist_failures\":%llu,\"consecutive_failures\":%llu,"
      "\"draining\":%s}\n",
      drain_begun_ ? "draining" : (degraded ? "degraded" : "healthy"),
      static_cast<unsigned long long>(service_->generation()),
      static_cast<unsigned long long>(health.update_failures),
      static_cast<unsigned long long>(health.persist_failures),
      static_cast<unsigned long long>(health.consecutive_failures),
      drain_begun_ ? "true" : "false");
}

void HttpServer::SubmitFind(Connection* conn, const HttpRequest& request) {
  // Parameters come from the query string and, for POST, the
  // form-urlencoded body; the body wins on duplicates (applied second).
  auto params = ParseFormParams(request.query);
  if (params.ok() && request.method == "POST" && !request.body.empty()) {
    auto body_params = ParseFormParams(request.body);
    if (!body_params.ok()) {
      params = body_params;
    } else {
      for (auto& p : body_params.ValueOrDie()) {
        params.ValueOrDie().push_back(std::move(p));
      }
    }
  }
  if (!params.ok()) {
    c_bad_requests_->Increment();
    EnqueueResponse(conn, 400,
                    StrFormat("{\"error\":\"%s\"}\n",
                              JsonEscape(params.status().message()).c_str()));
    return;
  }

  TeamRequest team_request;
  Status parse_error;
  for (const auto& [key, value] : params.ValueOrDie()) {
    if (key == "skills") {
      team_request.skills.clear();
      for (std::string_view skill : Split(value, ',')) {
        skill = StripWhitespace(skill);
        if (!skill.empty()) team_request.skills.emplace_back(skill);
      }
    } else if (key == "strategy") {
      if (value == "cc") {
        team_request.strategy = RankingStrategy::kCC;
      } else if (value == "cacc") {
        team_request.strategy = RankingStrategy::kCACC;
      } else if (value == "sacacc") {
        team_request.strategy = RankingStrategy::kSACACC;
      } else {
        parse_error = Status::InvalidArgument("unknown strategy '" + value +
                                              "' (cc|cacc|sacacc)");
      }
    } else if (key == "gamma" || key == "lambda") {
      auto parsed = ParseDouble(value);
      if (!parsed.ok()) {
        parse_error =
            Status::InvalidArgument("malformed " + key + " '" + value + "'");
      } else if (key == "gamma") {
        team_request.gamma = parsed.ValueOrDie();
      } else {
        team_request.lambda = parsed.ValueOrDie();
      }
    } else if (key == "top_k") {
      auto parsed = ParseUint64(value);
      if (!parsed.ok() || parsed.ValueOrDie() == 0 ||
          parsed.ValueOrDie() > 100) {
        parse_error = Status::InvalidArgument("top_k must be in [1, 100]");
      } else {
        team_request.top_k = static_cast<uint32_t>(parsed.ValueOrDie());
      }
    } else {
      // Same discipline as the CLI's CheckFlags: a typo'd parameter (or the
      // retired oracle=) fails loudly instead of silently running with
      // defaults.
      parse_error = Status::InvalidArgument("unknown parameter '" + key + "'");
    }
    if (!parse_error.ok()) break;
  }
  if (parse_error.ok() && team_request.skills.empty()) {
    parse_error = Status::InvalidArgument("skills=a,b,c is required");
  }
  // The sweep costs roots × Σ holders, so the skill count bounds the work a
  // request can buy. The paper's projects have 4–10 skills.
  constexpr size_t kMaxFindSkills = 32;
  if (parse_error.ok() && team_request.skills.size() > kMaxFindSkills) {
    parse_error = Status::InvalidArgument(
        StrFormat("at most %zu skills per request, got %zu", kMaxFindSkills,
                  team_request.skills.size()));
  }
  if (!parse_error.ok()) {
    c_bad_requests_->Increment();
    EnqueueResponse(conn, 400,
                    StrFormat("{\"error\":\"%s\"}\n",
                              JsonEscape(parse_error.message()).c_str()));
    return;
  }

  SubmitOptions submit;
  conn->token = CancellationToken();  // fresh token per request
  submit.token = conn->token;
  const uint64_t conn_id = conn->id;
  submit.on_complete = [this, conn_id](const ResponseHandle& handle) {
    OnPipelineComplete(conn_id, handle);
  };
  auto handle = pipeline_->Submit(std::move(team_request), submit);
  if (!handle.ok()) {
    if (handle.status().IsResourceExhausted()) {
      // The admission queue is the backpressure point; surface it as the
      // HTTP contract for overload.
      c_shed_->Increment();
      EnqueueResponse(conn, 503, "{\"error\":\"overloaded, request shed\"}\n",
                      "Retry-After: 1\r\n");
    } else {
      c_shed_->Increment();
      conn->keep_alive = false;
      EnqueueResponse(conn, 503, "{\"error\":\"pipeline shut down\"}\n");
    }
    return;
  }
  conn->state = ConnState::kDispatched;
  conn->peer_half_closed = false;
  UpdateEpollMask(conn);
}

void HttpServer::OnPipelineComplete(uint64_t conn_id,
                                    const ResponseHandle& handle) {
  // Runs on a pipeline dispatch worker: serialize the response here (the
  // expensive part), hand the bytes to the loop, wake it. Never touches the
  // Connection — it may already be gone.
  Completion completion;
  completion.conn_id = conn_id;
  const Result<std::vector<ScoredTeam>>& result = handle.Wait();  // done
  if (result.ok()) {
    // Render against the epoch that solved the request, not the current
    // one: an ApplyDelta landing since may have renumbered experts.
    const EpochRef epoch = handle.epoch();
    const ExpertNetwork* net = epoch.network.get();
    std::string teams_json;
    for (const ScoredTeam& team : result.ValueOrDie()) {
      if (!teams_json.empty()) teams_json += ",";
      std::string members;
      for (NodeId v : team.team.nodes) {
        if (!members.empty()) members += ",";
        members += StrFormat("{\"id\":%u,\"name\":\"%s\"}", v,
                             JsonEscape(net->expert(v).name).c_str());
      }
      std::string assignments;
      for (const SkillAssignment& a : team.team.assignments) {
        if (!assignments.empty()) assignments += ",";
        assignments += StrFormat(
            "{\"skill\":\"%s\",\"expert\":%u}",
            JsonEscape(net->skills().NameUnchecked(a.skill)).c_str(), a.expert);
      }
      teams_json += StrFormat(
          "{\"objective\":%.6f,\"members\":[%s],\"assignments\":[%s]}",
          team.objective, members.c_str(), assignments.c_str());
    }
    completion.http_status = 200;
    completion.body = StrFormat(
        "{\"status\":\"ok\",\"generation\":%llu,\"teams\":[%s],"
        "\"queue_ms\":%.3f,\"solve_ms\":%.3f}\n",
        static_cast<unsigned long long>(epoch.generation),
        teams_json.c_str(), handle.queue_ms(), handle.solve_ms());
  } else if (result.status().IsInfeasible()) {
    completion.http_status = 200;
    completion.body = StrFormat(
        "{\"status\":\"infeasible\",\"teams\":[],\"detail\":\"%s\"}\n",
        JsonEscape(result.status().message()).c_str());
  } else if (result.status().IsDeadlineExceeded()) {
    completion.http_status = 504;
    completion.body = StrFormat("{\"error\":\"%s\"}\n",
                                JsonEscape(result.status().message()).c_str());
  } else if (result.status().IsCancelled()) {
    // Cancelled means the peer went away; -1 tells the loop to close the
    // connection without writing.
    completion.http_status = -1;
  } else if (result.status().IsInvalidArgument() ||
             result.status().IsNotFound()) {
    completion.http_status = 400;
    completion.body = StrFormat("{\"error\":\"%s\"}\n",
                                JsonEscape(result.status().message()).c_str());
  } else {
    completion.http_status = 500;
    completion.body = StrFormat("{\"error\":\"%s\"}\n",
                                JsonEscape(result.status().message()).c_str());
  }
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(std::move(completion));
  }
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
}

void HttpServer::DrainCompletions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;  // connection died while solving
    Connection* conn = it->second.get();
    if (completion.http_status < 0) {
      CloseConnection(conn->id);
      continue;
    }
    EnqueueResponse(conn, completion.http_status, completion.body);
  }
}

void HttpServer::EnqueueResponse(Connection* conn, int status,
                                 std::string_view body,
                                 std::string_view extra_headers) {
  const bool keep = conn->keep_alive && !conn->close_after_write &&
                    !drain_begun_ && status != 408;
  conn->close_after_write = !keep;
  conn->outbuf = BuildResponse(status, keep, body, extra_headers);
  conn->outbuf_off = 0;
  conn->state = ConnState::kWriting;
  conn->write_progress = Clock::now();
  // Optimistic flush: most responses fit the socket buffer whole, saving an
  // epoll round trip per request. It may close (and free) the connection —
  // capture the id first and re-look it up before touching conn again.
  const uint64_t id = conn->id;
  HandleWritable(conn);
  auto it = conns_.find(id);
  if (it != conns_.end()) UpdateEpollMask(it->second.get());
}

void HttpServer::HandleWritable(Connection* conn) {
  while (conn->outbuf_off < conn->outbuf.size()) {
    auto wrote = WriteSome(conn->fd, conn->outbuf.data() + conn->outbuf_off,
                           conn->outbuf.size() - conn->outbuf_off);
    if (!wrote.ok()) {
      c_io_errors_->Increment();
      CloseConnection(conn->id);
      return;
    }
    if (wrote.ValueOrDie().would_block) return;
    conn->outbuf_off += wrote.ValueOrDie().bytes;
    conn->write_progress = Clock::now();
    conn->last_activity = conn->write_progress;
  }
  // Response fully flushed.
  c_responses_->Increment();
  conn->outbuf.clear();
  conn->outbuf_off = 0;
  if (conn->close_after_write) {
    CloseConnection(conn->id);
    return;
  }
  conn->state = ConnState::kReading;
  conn->parser.Reset();
  conn->request_in_progress = false;
  UpdateEpollMask(conn);
  // A pipelined next request may already be buffered; parse it now rather
  // than waiting for more bytes that may never come.
  if (!conn->inbuf.empty()) {
    conn->request_in_progress = true;
    conn->request_started = Clock::now();
    PumpParser(conn);
  }
}

void HttpServer::SweepDeadlines() {
  const Clock::time_point now = Clock::now();
  std::vector<uint64_t> evict_idle, evict_write;
  for (const auto& [id, conn] : conns_) {
    switch (conn->state) {
      case ConnState::kReading: {
        const bool request_overdue =
            conn->request_in_progress &&
            now - conn->request_started >
                std::chrono::milliseconds(options_.request_timeout_ms);
        const bool idle_overdue =
            now - conn->last_activity >
            std::chrono::milliseconds(options_.idle_timeout_ms);
        // request_overdue is the slow-loris bound: trickling a byte per
        // tick resets last_activity but never request_started.
        if (request_overdue || idle_overdue) evict_idle.push_back(id);
        break;
      }
      case ConnState::kWriting:
        if (now - conn->write_progress >
            std::chrono::milliseconds(options_.write_timeout_ms)) {
          evict_write.push_back(id);
        }
        break;
      case ConnState::kDispatched:
        break;
    }
  }
  for (uint64_t id : evict_idle) {
    c_evicted_idle_->Increment();
    CloseConnection(id);
  }
  for (uint64_t id : evict_write) {
    c_evicted_write_->Increment();
    CloseConnection(id);
  }
}

void HttpServer::BeginDrain() {
  drain_begun_ = true;
  drain_deadline_at_ =
      Clock::now() + std::chrono::milliseconds(options_.drain_deadline_ms);
  g_draining_->Set(1.0);
  // Stop accepting: close the listener (epoll forgets closed fds).
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  // Idle and mid-read connections have nothing owed to them; in-flight
  // (kDispatched) and flushing (kWriting) connections get the drain window.
  std::vector<uint64_t> closeable;
  for (const auto& [id, conn] : conns_) {
    if (conn->state == ConnState::kReading) closeable.push_back(id);
  }
  for (uint64_t id : closeable) CloseConnection(id);
  TD_LOG(Info) << "drain: stopped accepting, " << conns_.size()
               << " connection(s) in flight, deadline "
               << options_.drain_deadline_ms << " ms";
}

bool HttpServer::DrainFinished() {
  if (conns_.empty()) return true;
  if (Clock::now() < drain_deadline_at_) return false;
  // Deadline passed: whatever is still open gets cut. Solves still running
  // inside the pipeline are cancelled so they are dropped at dispatch.
  std::vector<uint64_t> remaining;
  for (const auto& [id, conn] : conns_) {
    conn->token.Cancel();
    remaining.push_back(id);
  }
  for (uint64_t id : remaining) {
    c_force_closed_->Increment();
    CloseConnection(id);
  }
  TD_LOG(Warning) << "drain deadline passed with " << remaining.size()
                  << " connection(s) still open; force-closed";
  return true;
}

}  // namespace teamdisc
