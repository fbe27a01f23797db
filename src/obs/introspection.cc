#include "obs/introspection.h"

#include <cstdlib>

#include "obs/exporters.h"

namespace evo::obs {

namespace {

/// Parses a decimal uint64; false on garbage (distinguishes "0" from junk).
/// Strict digits-only: strtoull would silently wrap "-1" to UINT64_MAX.
bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

/// Maps registry status codes onto HTTP responses.
HttpResponse StatusToHttp(const Status& st) {
  switch (st.code()) {
    case StatusCode::kNotFound:
      return HttpResponse::Error(404, st.message());
    case StatusCode::kUnavailable:
      return HttpResponse::Error(503, st.message());
    case StatusCode::kInvalidArgument:
      return HttpResponse::Error(400, st.message());
    default:
      return HttpResponse::Error(500, st.ToString());
  }
}

}  // namespace

IntrospectionServer::IntrospectionServer(HttpServerOptions options)
    : http_(std::move(options)) {
  RegisterRoutes();
}

IntrospectionServer::~IntrospectionServer() { Stop(); }

void IntrospectionServer::AttachMetrics(MetricsRegistry* registry,
                                        std::function<void()> pre_collect) {
  metrics_ = registry;
  pre_collect_ = std::move(pre_collect);
}

void IntrospectionServer::AttachTracer(Tracer* tracer) { tracer_ = tracer; }

void IntrospectionServer::AttachJournal(EventJournal* journal) {
  journal_ = journal;
}

void IntrospectionServer::AttachQueryableState(
    state::QueryableStateRegistry* registry) {
  queryable_ = registry;
}

void IntrospectionServer::SetTopologyProvider(
    std::function<std::string()> provider) {
  topology_provider_ = std::move(provider);
}

Status IntrospectionServer::Start() { return http_.Start(); }

void IntrospectionServer::Stop() { http_.Stop(); }

void IntrospectionServer::RegisterRoutes() {
  http_.HandleExact("/", [](const HttpRequest&) {
    return HttpResponse::Json(
        "{\"service\": \"EvoScope Live\", \"endpoints\": [\"/healthz\", "
        "\"/metrics\", \"/metrics.json\", \"/topology\", \"/spans\", "
        "\"/events?since=<seq>&limit=<n>\", \"/state\", "
        "\"/state/<name>?key=<k>&user_key=<u>\", "
        "\"/state/<name>/scan?prefix=<p>&limit=<n>\"]}\n");
  });

  http_.HandleExact("/healthz", [](const HttpRequest&) {
    return HttpResponse::Json("{\"status\": \"ok\"}\n");
  });

  http_.HandleExact("/metrics", [this](const HttpRequest&) {
    if (metrics_ == nullptr) {
      return HttpResponse::Error(503, "no metrics registry attached");
    }
    if (pre_collect_) pre_collect_();
    return HttpResponse::Text(ToPrometheusText(*metrics_));
  });

  http_.HandleExact("/metrics.json", [this](const HttpRequest&) {
    if (metrics_ == nullptr) {
      return HttpResponse::Error(503, "no metrics registry attached");
    }
    if (pre_collect_) pre_collect_();
    return HttpResponse::Json(ToJson(*metrics_));
  });

  http_.HandleExact("/topology", [this](const HttpRequest&) {
    if (!topology_provider_) {
      return HttpResponse::Error(503, "no topology attached");
    }
    return HttpResponse::Json(topology_provider_());
  });

  http_.HandleExact("/spans", [this](const HttpRequest&) {
    if (tracer_ == nullptr) {
      return HttpResponse::Error(503, "no tracer attached");
    }
    return HttpResponse::Json(
        "{\"total_recorded\": " + std::to_string(tracer_->TotalRecorded()) +
        ", \"spans\": " + tracer_->ToJson() + "}\n");
  });

  http_.HandleExact("/events", [this](const HttpRequest& request) {
    if (journal_ == nullptr) {
      return HttpResponse::Error(503, "no event journal attached");
    }
    uint64_t since = 0;
    if (request.HasParam("since") &&
        !ParseU64(request.Param("since"), &since)) {
      return HttpResponse::Error(400, "bad since= (want a sequence number)");
    }
    uint64_t limit = 0;
    if (request.HasParam("limit") &&
        !ParseU64(request.Param("limit"), &limit)) {
      return HttpResponse::Error(400, "bad limit=");
    }
    return HttpResponse::Json(
        journal_->ToJson(since, static_cast<size_t>(limit)));
  });

  http_.HandleExact("/state", [this](const HttpRequest&) {
    if (queryable_ == nullptr) {
      return HttpResponse::Error(503, "no queryable state registry attached");
    }
    std::string out = "{\"published\": [";
    bool first = true;
    for (const std::string& name : queryable_->PublishedNames()) {
      if (!first) out += ", ";
      first = false;
      out += "{\"name\": \"" + JsonEscape(name) + "\", \"available\": " +
             (queryable_->IsAvailable(name) ? "true" : "false") + "}";
    }
    out += "]}\n";
    return HttpResponse::Json(out);
  });

  http_.HandlePrefix("/state/", [this](const HttpRequest& request) {
    return ServeState(request);
  });
}

HttpResponse IntrospectionServer::ServeState(const HttpRequest& request) const {
  if (queryable_ == nullptr) {
    return HttpResponse::Error(503, "no queryable state registry attached");
  }
  // Path shapes: /state/<name> (point query) or /state/<name>/scan.
  std::string rest = request.path.substr(std::string("/state/").size());
  bool scan = false;
  const std::string kScanSuffix = "/scan";
  if (rest.size() > kScanSuffix.size() &&
      rest.compare(rest.size() - kScanSuffix.size(), kScanSuffix.size(),
                   kScanSuffix) == 0) {
    scan = true;
    rest = rest.substr(0, rest.size() - kScanSuffix.size());
  }
  if (rest.empty()) return HttpResponse::Error(400, "missing state name");
  const std::string& name = rest;

  if (!scan) {
    uint64_t key = 0;
    if (!ParseU64(request.Param("key"), &key)) {
      return HttpResponse::Error(400, "point query needs key=<uint64>");
    }
    std::string user_key = request.Param("user_key");
    auto result = queryable_->Query(name, key, user_key);
    if (!result.ok()) return StatusToHttp(result.status());
    std::string out = "{\"state\": \"" + JsonEscape(name) +
                      "\", \"key\": " + std::to_string(key);
    if (!user_key.empty()) {
      out += ", \"user_key\": \"" + JsonEscapeBinary(user_key) + "\"";
    }
    if (result.value().has_value()) {
      out += ", \"found\": true, \"value\": \"" +
             JsonEscapeBinary(*result.value()) + "\"";
    } else {
      out += ", \"found\": false, \"value\": null";
    }
    out += "}\n";
    return HttpResponse::Json(out);
  }

  // Scan: all keys (or one key=) filtered by user_key prefix, bounded.
  uint64_t limit = kDefaultScanLimit;
  if (request.HasParam("limit") && !ParseU64(request.Param("limit"), &limit)) {
    return HttpResponse::Error(400, "bad limit=");
  }
  std::string prefix = request.Param("prefix");
  std::string body;
  size_t matched = 0;
  bool truncated = false;
  auto append = [&](uint64_t key, std::string_view user_key,
                    std::string_view value) {
    if (!prefix.empty() &&
        (user_key.size() < prefix.size() ||
         user_key.compare(0, prefix.size(), prefix) != 0)) {
      return;
    }
    ++matched;
    if (limit > 0 && matched > limit) {
      truncated = true;
      return;
    }
    body += body.empty() ? "\n  " : ",\n  ";
    body += "{\"key\": " + std::to_string(key) + ", \"user_key\": \"" +
            JsonEscapeBinary(user_key) + "\", \"value\": \"" +
            JsonEscapeBinary(value) + "\"}";
  };

  Status st;
  if (request.HasParam("key")) {
    uint64_t key = 0;
    if (!ParseU64(request.Param("key"), &key)) {
      return HttpResponse::Error(400, "bad key=");
    }
    st = queryable_->QueryKey(name, key,
                              [&](std::string_view uk, std::string_view v) {
                                append(key, uk, v);
                              });
  } else {
    st = queryable_->QueryAll(name, append);
  }
  if (!st.ok()) return StatusToHttp(st);

  std::string out =
      "{\"state\": \"" + JsonEscape(name) +
      "\", \"matched\": " + std::to_string(matched) +
      ", \"truncated\": " + (truncated ? "true" : "false") + ", \"entries\": [" +
      body + (body.empty() ? "]}\n" : "\n]}\n");
  return HttpResponse::Json(out);
}

}  // namespace evo::obs
