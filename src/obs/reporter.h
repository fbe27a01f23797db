#pragma once

/// \file reporter.h
/// \brief Background metrics reporting with pluggable sinks.
///
/// A MetricsReporter owns a thread that periodically (1) invokes an optional
/// pre-collect hook — the JobRunner uses it to refresh poll-based gauges
/// like channel depths — and (2) hands the registry to every sink. Sinks
/// render whichever exposition they want; the built-in file sink
/// rewrites a file atomically-enough for a scraper (`.json` paths get the
/// JSON snapshot, anything else Prometheus text).

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace evo::obs {

/// \brief Receives one reporting tick.
class ReportSink {
 public:
  virtual ~ReportSink() = default;
  virtual void Report(const MetricsRegistry& registry) = 0;
};

/// \brief Rewrites `path` with a fresh snapshot each tick. Paths ending in
/// `.json` get the JSON exposition; anything else gets Prometheus text.
class FileSink final : public ReportSink {
 public:
  explicit FileSink(std::string path) : path_(std::move(path)) {}
  void Report(const MetricsRegistry& registry) override;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// \brief Periodic reporter thread. Start/Stop are idempotent; Stop emits
/// one final report so short-lived jobs still surface their last state.
class MetricsReporter {
 public:
  struct Options {
    int64_t interval_ms = 1000;
    /// Emit a final report when Stop() is called.
    bool report_on_stop = true;
  };

  explicit MetricsReporter(MetricsRegistry* registry)
      : MetricsReporter(registry, Options()) {}
  MetricsReporter(MetricsRegistry* registry, Options options);
  ~MetricsReporter();

  MetricsReporter(const MetricsReporter&) = delete;
  MetricsReporter& operator=(const MetricsReporter&) = delete;

  /// \brief Runs before each report tick (refresh poll-based gauges).
  void SetPreCollect(std::function<void()> fn);
  void AddSink(std::unique_ptr<ReportSink> sink);

  void Start();
  void Stop();
  bool running() const;

  /// \brief One synchronous collect+report cycle (also usable unstarted).
  void ReportOnce();

  uint64_t TicksCompleted() const;

 private:
  void Loop();

  MetricsRegistry* registry_;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::function<void()> pre_collect_;
  std::vector<std::unique_ptr<ReportSink>> sinks_;
  std::thread thread_;
  bool running_ = false;
  bool stop_requested_ = false;
  uint64_t ticks_ = 0;
};

}  // namespace evo::obs
