#include "obs/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/logging.h"
#include "obs/exporters.h"

namespace evo::obs {

namespace {

/// Pause before retrying a failed accept(), so a persistent failure such as
/// descriptor exhaustion does not spin.
constexpr std::chrono::milliseconds kAcceptRetryPause{10};

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

/// Serializes a response with framing and writes it fully (best effort; the
/// socket may die under us — the client's problem, not ours).
void WriteResponse(int fd, const HttpResponse& response, bool head_only) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     StatusText(response.status) + "\r\nContent-Type: " +
                     response.content_type + "\r\nContent-Length: " +
                     std::to_string(response.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  std::string wire = head_only ? head : head + response.body;
  size_t sent = 0;
  while (sent < wire.size()) {
    ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // timeout or peer gone
    }
    sent += static_cast<size_t>(n);
  }
}

void SetIoTimeouts(int fd, int64_t timeout_ms) {
  if (timeout_ms <= 0) return;
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < s.size()) {
      auto hex = [](char h) -> int {
        if (h >= '0' && h <= '9') return h - '0';
        if (h >= 'a' && h <= 'f') return h - 'a' + 10;
        if (h >= 'A' && h <= 'F') return h - 'A' + 10;
        return -1;
      };
      int hi = hex(s[i + 1]);
      int lo = hex(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back(c);
      }
    } else {
      out.push_back(c);
    }
  }
  return out;
}

HttpResponse HttpResponse::Error(int status, const std::string& message) {
  return HttpResponse{status, "application/json",
                      "{\"error\": \"" + JsonEscape(message) + "\"}\n"};
}

HttpServer::HttpServer(Options options) : options_(std::move(options)) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::HandleExact(std::string path, Handler handler) {
  exact_[std::move(path)] = std::move(handler);
}

void HttpServer::HandlePrefix(std::string prefix, Handler handler) {
  prefix_[std::move(prefix)] = std::move(handler);
}

Status HttpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("http server already running");
  }
  stopping_.store(false, std::memory_order_release);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Status::IOError("bind " + options_.bind_address + ":" +
                                std::to_string(options_.port) + ": " +
                                std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 64) != 0) {
    Status st = Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port_.store(ntohs(bound.sin_port), std::memory_order_release);
  }

  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  for (size_t i = 0; i < kWorkerThreads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    // Set under the queue lock, so a worker between its predicate check and
    // its wait cannot miss the notify_all below.
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_.store(true, std::memory_order_release);
  }
  // Stop alone owns the listen fd: shutdown() fails the blocked accept(),
  // and the fd is closed only once the accept thread has exited, so its
  // number cannot be reused under a thread still using it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  std::lock_guard<std::mutex> lock(queue_mu_);
  for (int fd : pending_) ::close(fd);
  pending_.clear();
}

void HttpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // Only Stop ends the loop. Any other failure (EMFILE when the process
      // is out of descriptors, an aborted connection) is retried.
      if (errno != EINTR && !stopping_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(kAcceptRetryPause);
      }
      continue;
    }
    SetIoTimeouts(fd, options_.io_timeout_ms);
    bool rejected = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (pending_.size() >= kMaxPendingConnections) {
        rejected = true;
      } else {
        pending_.push_back(fd);
      }
    }
    if (rejected) {
      requests_rejected_.fetch_add(1, std::memory_order_relaxed);
      WriteResponse(fd, HttpResponse::Error(503, "server overloaded"), false);
      ::close(fd);
    } else {
      queue_cv_.notify_one();
    }
  }
}

void HttpServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] {
        return stopping_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (pending_.empty()) return;  // stopping with nothing left to serve
      fd = pending_.front();
      pending_.pop_front();
    }
    ServeConnection(fd);
    ::close(fd);
  }
}

void HttpServer::ServeConnection(int fd) {
  // Read until the end of headers, a timeout, or the size cap.
  std::string raw;
  char buf[2048];
  bool complete = false;
  while (raw.size() < kMaxRequestBytes) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // slow client timed out or closed early
    }
    raw.append(buf, static_cast<size_t>(n));
    if (raw.find("\r\n\r\n") != std::string::npos ||
        raw.find("\n\n") != std::string::npos) {
      complete = true;
      break;
    }
  }
  if (!complete) {
    requests_rejected_.fetch_add(1, std::memory_order_relaxed);
    int status = raw.size() >= kMaxRequestBytes ? 413 : 408;
    WriteResponse(fd, HttpResponse::Error(status, "incomplete request"), false);
    return;
  }

  // Parse the request line: METHOD SP target SP version.
  size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos) line_end = raw.find('\n');
  std::string line = raw.substr(0, line_end);
  size_t sp1 = line.find(' ');
  size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    requests_rejected_.fetch_add(1, std::memory_order_relaxed);
    WriteResponse(fd, HttpResponse::Error(400, "malformed request line"), false);
    return;
  }

  HttpRequest request;
  request.method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  size_t qmark = target.find('?');
  if (qmark != std::string::npos) {
    request.query_string = target.substr(qmark + 1);
    target = target.substr(0, qmark);
  }
  request.path = UrlDecode(target);
  // Parse query params (k=v joined by '&').
  std::string_view qs = request.query_string;
  while (!qs.empty()) {
    size_t amp = qs.find('&');
    std::string_view pair = qs.substr(0, amp);
    qs = amp == std::string_view::npos ? std::string_view{} : qs.substr(amp + 1);
    if (pair.empty()) continue;
    size_t eq = pair.find('=');
    std::string key = UrlDecode(pair.substr(0, eq));
    std::string value =
        eq == std::string_view::npos ? "" : UrlDecode(pair.substr(eq + 1));
    request.params[std::move(key)] = std::move(value);
  }

  if (request.method != "GET" && request.method != "HEAD") {
    requests_rejected_.fetch_add(1, std::memory_order_relaxed);
    WriteResponse(fd, HttpResponse::Error(405, "only GET is supported"), false);
    return;
  }

  HttpResponse response = Dispatch(request);
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  WriteResponse(fd, response, request.method == "HEAD");
}

HttpResponse HttpServer::Dispatch(const HttpRequest& request) const {
  auto it = exact_.find(request.path);
  if (it != exact_.end()) return it->second(request);
  // Longest matching prefix wins.
  const Handler* best = nullptr;
  size_t best_len = 0;
  for (const auto& [prefix, handler] : prefix_) {
    if (request.path.rfind(prefix, 0) == 0 && prefix.size() >= best_len) {
      best = &handler;
      best_len = prefix.size();
    }
  }
  if (best != nullptr) return (*best)(request);
  return HttpResponse::Error(404, "no handler for " + request.path);
}

}  // namespace evo::obs
