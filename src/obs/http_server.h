#pragma once

/// \file http_server.h
/// \brief A small dependency-free blocking HTTP/1.1 server over POSIX
/// sockets: one accept thread plus a bounded pool of handler threads.
///
/// Scope is deliberately narrow — this is the transport for EvoScope Live's
/// introspection endpoints, not a general web server. GET/HEAD only, no
/// keep-alive (every response carries `Connection: close`), bounded request
/// size, and SO_RCVTIMEO/SO_SNDTIMEO guard against slow clients holding a
/// handler hostage. Port 0 binds an ephemeral port (the bound port is
/// readable after Start), which is what tests and the check.sh smoke step
/// use to avoid collisions.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace evo::obs {

/// \brief A parsed request (GET/HEAD line + query parameters).
struct HttpRequest {
  std::string method;
  std::string path;          ///< percent-decoded, no query string
  std::string query_string;  ///< raw text after '?'
  std::map<std::string, std::string> params;  ///< percent-decoded query params

  /// \brief Param value or `dflt` when absent.
  std::string Param(const std::string& name, const std::string& dflt = "") const {
    auto it = params.find(name);
    return it == params.end() ? dflt : it->second;
  }
  bool HasParam(const std::string& name) const {
    return params.find(name) != params.end();
  }
};

/// \brief A response; the server adds status line, length, and framing.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;

  static HttpResponse Json(std::string body) {
    return HttpResponse{200, "application/json", std::move(body)};
  }
  static HttpResponse Text(std::string body) {
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        std::move(body)};
  }
  static HttpResponse Error(int status, const std::string& message);
};

/// \brief Configuration for HttpServer (namespace scope so `= {}` default
/// arguments work across compilers).
struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; read the result via port().
  uint16_t port = 0;
  /// Per-socket read/write timeout (slow-client guard).
  int64_t io_timeout_ms = 5000;
};

/// \brief Blocking HTTP server with exact- and prefix-routed handlers.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  using Options = HttpServerOptions;

  /// Handler threads.
  static constexpr size_t kWorkerThreads = 2;
  /// A request whose headers do not end within this many bytes gets 413.
  static constexpr size_t kMaxRequestBytes = 16 * 1024;
  /// Accepted-but-unserved connections beyond this are answered 503.
  static constexpr size_t kMaxPendingConnections = 64;

  explicit HttpServer(Options options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// \brief Routes requests whose path equals `path` exactly.
  void HandleExact(std::string path, Handler handler);
  /// \brief Routes requests whose path starts with `prefix` (longest prefix
  /// wins; exact routes take precedence).
  void HandlePrefix(std::string prefix, Handler handler);

  /// \brief Binds, listens, and spawns the accept + worker threads.
  Status Start();
  /// \brief Stops accepting, drains workers, joins all threads. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// \brief The bound port (resolved after Start for port-0 binds).
  uint16_t port() const { return bound_port_.load(std::memory_order_acquire); }
  const std::string& bind_address() const { return options_.bind_address; }

  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  uint64_t requests_rejected() const {
    return requests_rejected_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);
  HttpResponse Dispatch(const HttpRequest& request) const;

  Options options_;
  std::map<std::string, Handler> exact_;
  std::map<std::string, Handler> prefix_;

  /// Opened by Start; closed by Stop after the accept thread has joined.
  int listen_fd_ = -1;
  std::atomic<uint16_t> bound_port_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  ///< accepted fds awaiting a worker

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> requests_rejected_{0};
};

/// \brief Percent-decodes an URL component ("%41" -> "A", "+" -> " ").
std::string UrlDecode(std::string_view s);

}  // namespace evo::obs
