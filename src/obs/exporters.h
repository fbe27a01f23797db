#pragma once

/// \file exporters.h
/// \brief EvoScope exporters: render a MetricsRegistry as Prometheus text
/// exposition or as a JSON snapshot.
///
/// Metric names follow the registry convention `base{label="v",...}`; the
/// Prometheus writer groups series by base name (one `# TYPE` header per
/// base) and renders histograms as summaries with `quantile` labels plus
/// `_sum`/`_count` series. The JSON writer emits one object per metric kind
/// so benches and dashboards can consume the same figures machine-readably.

#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>

#include "common/metrics.h"

namespace evo::obs {

/// \brief Builds a registry series name `base{k1="v1",k2="v2"}`. Label
/// values are escaped for the exposition format (backslash, quote, newline).
std::string MetricName(
    const std::string& base,
    std::initializer_list<std::pair<std::string, std::string>> labels);

/// \brief Convenience for the ubiquitous (vertex, subtask) pair.
std::string TaskMetricName(const std::string& base, const std::string& vertex,
                           uint32_t subtask);

/// \brief Renders the whole registry in Prometheus text exposition format
/// (version 0.0.4). Deterministic: series are sorted by name.
std::string ToPrometheusText(const MetricsRegistry& registry);

/// \brief Renders the whole registry as a JSON object:
/// {"counters":{...},"gauges":{...},"histograms":{name:
/// {count,sum,min,max,mean,p50,p90,p99}}}.
std::string ToJson(const MetricsRegistry& registry);

/// \brief Escapes a string for embedding in a JSON string literal.
std::string JsonEscape(std::string_view s);

/// \brief Like JsonEscape, but safe for arbitrary binary bytes: DEL and
/// every byte >= 0x80 also become \u00XX (each byte maps to the Latin-1
/// code point of its value — no UTF-8 assumption). Used for raw state
/// values crossing the introspection endpoints.
std::string JsonEscapeBinary(std::string_view s);

}  // namespace evo::obs
