// Hand-rolled epoll HTTP/1.1 front-end for the serving pipeline.
//
// This is the process's network boundary, built so that every
// connection-lifecycle failure a real server meets is a first-class,
// observable, testable event rather than an accident:
//
//   shape:    single-threaded epoll event loop (the CPU-heavy work — the
//             solves — already runs on RequestPipeline's dispatch workers).
//             The loop owns every connection; pipeline completions re-enter
//             it through a mutex-guarded completion queue + eventfd wake, so
//             no socket is ever touched from two threads.
//
//   parsing:  strict incremental HttpParser per connection (hard caps on
//             request line / headers / body); malformed bytes get a typed
//             4xx/5xx and the connection is closed — never a crash, never
//             unbounded buffering.
//
//   slow clients: a per-connection idle deadline (no bytes at all) and a
//             request deadline (first byte of a request until it finishes
//             parsing) evict slow-loris clients that trickle one byte per
//             tick; a write-progress deadline evicts peers that stop
//             draining their receive window. One stuck client never stalls
//             the loop or other connections.
//
//   half-close: while a request is in flight on the pipeline, the loop
//             watches EPOLLRDHUP; a client that gives up cancels its own
//             request (CancellationToken), so abandoned work is dropped at
//             dispatch instead of burning a solve.
//
//   overload: RequestPipeline's bounded admission queue is the backpressure
//             point — a shed Submit becomes `503 Retry-After: 1`. The
//             connection count is itself bounded (accepts beyond the cap are
//             answered 503 and closed), and while a request is being
//             processed the loop stops reading that connection, so the
//             kernel socket buffer backpressures pipelined clients.
//
//   faults:   every accept/read/write funnels through the `net.accept` /
//             `net.read` / `net.write` fault points (socket_util), so
//             torture tests can fail any socket op and assert the server
//             keeps serving everyone else.
//
//   drain:    RequestDrain() — wired to SIGTERM/SIGINT by
//             InstallSignalHandlers() — stops accepting, closes idle
//             connections, lets in-flight requests complete and their
//             responses flush within a drain deadline, then force-closes
//             whatever remains. Serve() returns with the drain outcome; a
//             clean drain is exit-0 territory for the CLI.
//
// Endpoints:
//   GET/POST /find     team query (skills=a,b,c&gamma=&lambda=&top_k=&
//                      strategy=), JSON response; always the PLL index
//   GET      /healthz  200 healthy / 503 degraded-or-draining (+JSON)
//   GET      /metrics  the pipeline's full metrics registry as JSON
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/http_parser.h"
#include "net/socket_util.h"
#include "serving/request_pipeline.h"

namespace teamdisc {

/// \brief Server sizing / timeout knobs. Zeros resolve from the environment
/// (TEAMDISC_LISTEN_*), falling back to the documented defaults.
struct HttpServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;            ///< 0 = ephemeral (port() tells the result)
  int backlog = 0;              ///< TEAMDISC_LISTEN_BACKLOG, default 128
  size_t max_connections = 0;   ///< TEAMDISC_LISTEN_MAX_CONNS, default 1024
  /// Connection with no bytes moving in either direction gets closed.
  uint64_t idle_timeout_ms = 0;  ///< TEAMDISC_LISTEN_IDLE_TIMEOUT_MS, 60000
  /// First byte of a request until it finishes parsing (slow-loris bound —
  /// trickling one byte per tick does NOT reset it).
  uint64_t request_timeout_ms = 0;  ///< TEAMDISC_LISTEN_REQUEST_TIMEOUT_MS, 30000
  /// A blocked response write must make progress this often.
  uint64_t write_timeout_ms = 0;  ///< TEAMDISC_LISTEN_WRITE_TIMEOUT_MS, 10000
  /// Budget for graceful drain: in-flight solves + response flushes.
  uint64_t drain_deadline_ms = 0;  ///< TEAMDISC_LISTEN_DRAIN_MS, 5000
  /// Parser caps. When `limits_from_env` (the default) they are resolved
  /// with HttpLimits::FromEnv(); set it false to pass explicit limits.
  HttpLimits limits;
  bool limits_from_env = true;
};

/// \brief Monotonic serving counters, readable from any thread.
struct HttpServerStats {
  uint64_t accepted = 0;        ///< connections accepted
  uint64_t rejected = 0;        ///< accepts refused by the connection cap
  uint64_t accept_errors = 0;   ///< failed accept(2) (incl. injected faults)
  uint64_t requests = 0;        ///< well-formed requests routed
  uint64_t responses = 0;       ///< responses fully flushed
  uint64_t bad_requests = 0;    ///< parser rejections answered 4xx/5xx
  uint64_t shed = 0;            ///< 503s from pipeline admission / drain
  uint64_t evicted_idle = 0;    ///< idle / slow-loris eviction
  uint64_t evicted_write = 0;   ///< write-progress eviction
  uint64_t io_errors = 0;       ///< read/write failures (incl. injected)
  uint64_t cancelled_by_peer = 0;  ///< in-flight requests the client abandoned
  uint64_t force_closed = 0;    ///< connections cut at the drain deadline
  uint64_t open_connections = 0;  ///< gauge: currently open
};

/// \brief The wire front-end. Service and pipeline must outlive the server.
class HttpServer {
 public:
  /// Resolves options, binds + listens, sets up epoll and the wake eventfd,
  /// and ignores SIGPIPE process-wide. The loop does not run until Serve().
  static Result<std::unique_ptr<HttpServer>> Start(
      const TeamDiscoveryService& service, RequestPipeline& pipeline,
      HttpServerOptions options);

  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Runs the event loop on the calling thread until a drain completes (or
  /// its deadline force-closes the stragglers). Returns non-OK only on
  /// unrecoverable loop errors (epoll itself failing) — per-connection
  /// failures are handled and counted, never propagated.
  Status Serve();

  /// Requests graceful drain; safe from any thread AND from a signal
  /// handler (one atomic store + one write(2) to the wake eventfd).
  void RequestDrain();

  /// Installs SIGTERM + SIGINT handlers that RequestDrain() this server.
  /// At most one server per process can hold the handlers.
  Status InstallSignalHandlers();

  uint16_t port() const { return port_; }
  HttpServerStats stats() const;
  bool draining() const { return drain_requested_.load(std::memory_order_acquire); }

 private:
  using Clock = std::chrono::steady_clock;

  enum class ConnState {
    kReading,     ///< collecting request bytes
    kDispatched,  ///< request in flight on the pipeline
    kWriting,     ///< flushing the response
  };

  /// Everything the loop knows about one connection. Owned by the loop
  /// thread exclusively.
  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    ConnState state = ConnState::kReading;
    HttpParser parser;
    std::string inbuf;        ///< unparsed bytes (pipelined next request)
    std::string outbuf;       ///< response bytes not yet written
    size_t outbuf_off = 0;
    bool keep_alive = true;   ///< semantics of the current request
    bool close_after_write = false;
    bool peer_half_closed = false;
    CancellationToken token;  ///< cancels the in-flight request
    uint32_t epoll_mask = 0;  ///< currently registered interest
    Clock::time_point last_activity;      ///< any byte in or out
    Clock::time_point request_started;    ///< first byte of current request
    bool request_in_progress = false;     ///< request_started is meaningful
    Clock::time_point write_progress;     ///< last byte accepted by kernel

    explicit Connection(HttpLimits limits) : parser(limits) {}
  };

  /// A completed pipeline request re-entering the loop.
  struct Completion {
    uint64_t conn_id = 0;
    int http_status = 200;
    std::string body;  ///< JSON, already serialized off-loop
  };

  HttpServer() = default;

  // --- event-loop internals (loop thread only) ---
  Status LoopOnce(int timeout_ms);
  void HandleAccept();
  void HandleConnEvent(Connection* conn, uint32_t events);
  void HandleReadable(Connection* conn);
  void HandleWritable(Connection* conn);
  /// Parses as much of inbuf/fresh bytes as possible; routes a complete
  /// request or answers a parse error.
  void PumpParser(Connection* conn);
  void RouteRequest(Connection* conn);
  void SubmitFind(Connection* conn, const HttpRequest& request);
  /// Serializes `result` for conn (called on a pipeline worker thread —
  /// touches only immutable/epoch-pinned state, never the Connection).
  void OnPipelineComplete(uint64_t conn_id, const ResponseHandle& handle);
  void DrainCompletions();
  /// Queues an HTTP response and switches the connection to kWriting.
  void EnqueueResponse(Connection* conn, int status, std::string_view body,
                       std::string_view extra_headers = {});
  void UpdateEpollMask(Connection* conn);
  void CloseConnection(uint64_t conn_id);
  void SweepDeadlines();
  /// Epoll timeout until the next connection deadline (ms, [1, 1000]).
  int NextTimeoutMs() const;
  void BeginDrain();
  bool DrainFinished();
  std::string HealthJson() const;

  const TeamDiscoveryService* service_ = nullptr;
  RequestPipeline* pipeline_ = nullptr;
  HttpServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  uint64_t next_conn_id_ = 2;  ///< 0 = listener, 1 = wake eventfd
  std::map<uint64_t, std::unique_ptr<Connection>> conns_;

  std::mutex completions_mu_;
  std::deque<Completion> completions_;

  std::atomic<bool> drain_requested_{false};
  bool drain_begun_ = false;
  Clock::time_point drain_deadline_at_;

  // Counters live in the pipeline's metrics registry (net.* names) so
  // /metrics exposes them; these are resolved-once pointers.
  Counter* c_accepted_ = nullptr;
  Counter* c_rejected_ = nullptr;
  Counter* c_accept_errors_ = nullptr;
  Counter* c_requests_ = nullptr;
  Counter* c_responses_ = nullptr;
  Counter* c_bad_requests_ = nullptr;
  Counter* c_shed_ = nullptr;
  Counter* c_evicted_idle_ = nullptr;
  Counter* c_evicted_write_ = nullptr;
  Counter* c_io_errors_ = nullptr;
  Counter* c_cancelled_by_peer_ = nullptr;
  Counter* c_force_closed_ = nullptr;
  Gauge* g_open_connections_ = nullptr;
  Gauge* g_draining_ = nullptr;
};

/// Decodes %XX escapes and '+' (as space). InvalidArgument on truncated or
/// non-hex escapes.
Result<std::string> UrlDecode(std::string_view input);

/// Splits "k=v&k2=v2" into decoded pairs; keys without '=' get empty values.
Result<std::vector<std::pair<std::string, std::string>>> ParseFormParams(
    std::string_view query);

/// Escapes a string for embedding in a JSON string literal.
std::string JsonEscape(std::string_view s);

}  // namespace teamdisc
