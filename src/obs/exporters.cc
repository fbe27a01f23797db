#include "obs/exporters.h"

#include <cmath>
#include <cstdio>

namespace evo::obs {

namespace {

/// Formats a metric value the way Prometheus expects (shortest round-trip-ish
/// representation; integers stay integral).
std::string FormatValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::abs(v) < 1e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Splits a registry series name into (base, labelbody): for
/// `h{vertex="x"}` returns base `h` and labelbody `vertex="x"`.
void SplitName(const std::string& name, std::string* base,
               std::string* labelbody) {
  size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    labelbody->clear();
    return;
  }
  *base = name.substr(0, brace);
  size_t close = name.rfind('}');
  if (close == std::string::npos || close <= brace) close = name.size();
  *labelbody = name.substr(brace + 1, close - brace - 1);
}

/// Re-renders a series with an extra suffix on the base name and/or an extra
/// label — used for summary quantiles and _sum/_count.
std::string SeriesName(const std::string& base, const std::string& suffix,
                       const std::string& labelbody,
                       const std::string& extra_label) {
  std::string out = base + suffix;
  std::string labels = labelbody;
  if (!extra_label.empty()) {
    if (!labels.empty()) labels += ",";
    labels += extra_label;
  }
  if (!labels.empty()) out += "{" + labels + "}";
  return out;
}

void AppendTypeOnce(std::string* out, const std::string& base,
                    const char* type, std::string* last_base) {
  if (*last_base == base) return;
  *last_base = base;
  out->append("# TYPE ");
  out->append(base);
  out->push_back(' ');
  out->append(type);
  out->push_back('\n');
}

std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string MetricName(
    const std::string& base,
    std::initializer_list<std::pair<std::string, std::string>> labels) {
  if (labels.size() == 0) return base;
  std::string out = base;
  out.push_back('{');
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += k + "=\"" + EscapeLabelValue(v) + "\"";
  }
  out.push_back('}');
  return out;
}

std::string TaskMetricName(const std::string& base, const std::string& vertex,
                           uint32_t subtask) {
  return MetricName(base,
                    {{"subtask", std::to_string(subtask)}, {"vertex", vertex}});
}

std::string ToPrometheusText(const MetricsRegistry& registry) {
  std::string out;
  std::string base, labelbody, last_base;

  registry.ForEachCounter([&](const std::string& name, const Counter& c) {
    SplitName(name, &base, &labelbody);
    AppendTypeOnce(&out, base, "counter", &last_base);
    out += SeriesName(base, "", labelbody, "") + " " +
           std::to_string(c.Value()) + "\n";
  });
  last_base.clear();
  registry.ForEachGauge([&](const std::string& name, const Gauge& g) {
    SplitName(name, &base, &labelbody);
    AppendTypeOnce(&out, base, "gauge", &last_base);
    out += SeriesName(base, "", labelbody, "") + " " +
           FormatValue(g.Value()) + "\n";
  });
  last_base.clear();
  registry.ForEachHistogram([&](const std::string& name, const Histogram& h) {
    SplitName(name, &base, &labelbody);
    Histogram::Snapshot s = h.TakeSnapshot();
    AppendTypeOnce(&out, base, "summary", &last_base);
    out += SeriesName(base, "", labelbody, "quantile=\"0.5\"") + " " +
           FormatValue(s.p50) + "\n";
    out += SeriesName(base, "", labelbody, "quantile=\"0.9\"") + " " +
           FormatValue(s.p90) + "\n";
    out += SeriesName(base, "", labelbody, "quantile=\"0.99\"") + " " +
           FormatValue(s.p99) + "\n";
    out += SeriesName(base, "_sum", labelbody, "") + " " +
           FormatValue(s.sum) + "\n";
    out += SeriesName(base, "_count", labelbody, "") + " " +
           std::to_string(s.count) + "\n";
  });
  return out;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string JsonEscapeBinary(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    unsigned char b = static_cast<unsigned char>(c);
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (b < 0x20 || b >= 0x7f) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", b);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

/// JSON numbers may not be NaN/Inf; clamp to null-safe 0.
std::string JsonNumber(double v) {
  if (std::isnan(v) || std::isinf(v)) return "0";
  return FormatValue(v);
}

}  // namespace

std::string ToJson(const MetricsRegistry& registry) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  registry.ForEachCounter([&](const std::string& name, const Counter& c) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": " + std::to_string(c.Value());
  });
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  registry.ForEachGauge([&](const std::string& name, const Gauge& g) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": " + JsonNumber(g.Value());
  });
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  registry.ForEachHistogram([&](const std::string& name, const Histogram& h) {
    Histogram::Snapshot s = h.TakeSnapshot();
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": {\"count\": " +
           std::to_string(s.count) + ", \"sum\": " + JsonNumber(s.sum) +
           ", \"min\": " + JsonNumber(s.min) + ", \"max\": " +
           JsonNumber(s.max) + ", \"mean\": " + JsonNumber(s.mean) +
           ", \"p50\": " + JsonNumber(s.p50) + ", \"p90\": " +
           JsonNumber(s.p90) + ", \"p99\": " + JsonNumber(s.p99) + "}";
  });
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace evo::obs
