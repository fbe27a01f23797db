#pragma once

/// \file introspection.h
/// \brief EvoScope Live: the introspection endpoints over HttpServer.
///
/// Bridges the process's observability surfaces to HTTP so an operator can
/// inspect a *running* job — the Queryable State cell of the survey's
/// Table 1 plus the control-plane journal:
///
///   GET /                      endpoint index
///   GET /healthz               liveness
///   GET /metrics               Prometheus exposition of the registry
///   GET /metrics.json          same registry, JSON snapshot
///   GET /topology              job graph (vertices, parallelism, edges)
///   GET /spans                 drain of the ring tracer
///   GET /events?since=&limit=  structured event journal page
///   GET /state                 published queryable-state names
///   GET /state/<name>?key=K[&user_key=U]        point query
///   GET /state/<name>/scan?[key=K][&prefix=P][&limit=N]  scan
///
/// The server holds non-owning pointers; the owner (JobRunner) must Stop()
/// it before tearing down the attached structures. Queries against a stopped
/// job answer 503 via QueryableStateRegistry revocation, never a crash.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "obs/http_server.h"
#include "obs/journal.h"
#include "obs/tracing.h"
#include "state/queryable.h"

namespace evo::obs {

class IntrospectionServer {
 public:
  /// Cap on entries returned by a /state scan without an explicit limit.
  static constexpr uint64_t kDefaultScanLimit = 1000;

  explicit IntrospectionServer(HttpServerOptions options = {});
  ~IntrospectionServer();

  IntrospectionServer(const IntrospectionServer&) = delete;
  IntrospectionServer& operator=(const IntrospectionServer&) = delete;

  // --- attachment (all optional; unattached endpoints answer 503) ---

  /// \param pre_collect runs before each /metrics render (refresh poll
  /// gauges); may be null.
  void AttachMetrics(MetricsRegistry* registry,
                     std::function<void()> pre_collect = nullptr);
  void AttachTracer(Tracer* tracer);
  void AttachJournal(EventJournal* journal);
  void AttachQueryableState(state::QueryableStateRegistry* registry);
  /// \brief Supplies the /topology JSON body.
  void SetTopologyProvider(std::function<std::string()> provider);

  Status Start();
  void Stop();

  bool running() const { return http_.running(); }
  uint16_t port() const { return http_.port(); }
  const std::string& bind_address() const { return http_.bind_address(); }
  HttpServer* http() { return &http_; }

 private:
  void RegisterRoutes();
  HttpResponse ServeState(const HttpRequest& request) const;

  HttpServer http_;

  MetricsRegistry* metrics_ = nullptr;
  std::function<void()> pre_collect_;
  Tracer* tracer_ = nullptr;
  EventJournal* journal_ = nullptr;
  state::QueryableStateRegistry* queryable_ = nullptr;
  std::function<std::string()> topology_provider_;
};

}  // namespace evo::obs
