#pragma once

/// \file metrics.h
/// \brief Lightweight metrics used by operators, the elasticity controller,
/// load shedders, and the benchmark harness: counters, gauges and
/// fixed-bucket latency histograms with quantile estimation.
///
/// A histogram is one bucket set under one mutex; its per-record writers
/// are single task threads, so the hot-path lock is uncontended. The
/// registry is the single namespace the EvoScope exporters (src/obs/) walk
/// to render Prometheus/JSON views.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace evo {

/// \brief Monotonic event counter.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// \brief Reservoir-free histogram over log-spaced buckets; supports
/// approximate quantiles good enough for latency reporting.
///
/// One bucket set under one mutex: each per-record writer (a task's
/// process time, a backend's get/put latency) is a single thread, so the
/// lock is uncontended on the hot path. Quantiles interpolate linearly
/// inside the hit bucket and are clamped to the observed [min, max].
class Histogram {
 public:
  Histogram() = default;

  /// \brief Records a non-negative sample (e.g. latency in microseconds).
  void Record(double v) {
    std::lock_guard<std::mutex> lock(mu_);
    ++data_.count;
    data_.sum += v;
    data_.max = std::max(data_.max, v);
    data_.min = data_.count == 1 ? v : std::min(data_.min, v);
    ++data_.buckets[BucketOf(v)];
  }

  uint64_t Count() const { return Copy().count; }
  double Mean() const {
    Data d = Copy();
    return d.count ? d.sum / static_cast<double>(d.count) : 0;
  }
  double Max() const { return Copy().max; }
  double Min() const { return Copy().min; }
  double Sum() const { return Copy().sum; }

  /// \brief Approximate quantile (q in [0,1]) with linear interpolation
  /// inside the log2 bucket containing the target rank.
  double Quantile(double q) const { return QuantileOf(Copy(), q); }

  /// \brief Point-in-time view for exporters: every figure comes from one
  /// copy taken under the lock, so they agree with each other.
  struct Snapshot {
    uint64_t count = 0;
    double sum = 0, min = 0, max = 0, mean = 0;
    double p50 = 0, p90 = 0, p99 = 0;
  };
  Snapshot TakeSnapshot() const {
    Data d = Copy();
    Snapshot s;
    s.count = d.count;
    s.sum = d.sum;
    s.min = d.min;
    s.max = d.max;
    s.mean = d.count ? d.sum / static_cast<double>(d.count) : 0;
    s.p50 = QuantileOf(d, 0.50);
    s.p90 = QuantileOf(d, 0.90);
    s.p99 = QuantileOf(d, 0.99);
    return s;
  }

 private:
  // Buckets: [0,1), [1,2), [2,4), ... log2-spaced up to ~2^62.
  static constexpr size_t kNumBuckets = 64;

  struct Data {
    uint64_t count = 0;
    double sum = 0;
    double max = 0;
    double min = 0;
    std::array<uint64_t, kNumBuckets> buckets{};
  };

  Data Copy() const {
    std::lock_guard<std::mutex> lock(mu_);
    return data_;
  }

  static double QuantileOf(const Data& d, double q) {
    if (d.count == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    // The extreme quantiles are known exactly.
    if (q == 0.0) return d.min;
    if (q == 1.0) return d.max;
    // Target rank in [0, count-1]; the bucket holding it bounds the value.
    double rank = q * static_cast<double>(d.count - 1);
    uint64_t before = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      uint64_t in_bucket = d.buckets[i];
      if (in_bucket == 0) continue;
      if (rank < static_cast<double>(before + in_bucket)) {
        // Interpolate position within [lower, upper) by rank fraction
        // instead of snapping to the bucket's upper bound.
        double lower = BucketLowerBound(i);
        double upper = BucketUpperBound(i);
        double frac = (rank - static_cast<double>(before) + 0.5) /
                      static_cast<double>(in_bucket);
        double v = lower + frac * (upper - lower);
        return std::clamp(v, d.min, d.max);
      }
      before += in_bucket;
    }
    return d.max;
  }

  static size_t BucketOf(double v) {
    if (v < 1.0) return 0;
    size_t b = static_cast<size_t>(std::log2(v)) + 1;
    return std::min(b, kNumBuckets - 1);
  }
  static double BucketLowerBound(size_t b) {
    if (b == 0) return 0.0;
    return std::pow(2.0, static_cast<double>(b - 1));
  }
  static double BucketUpperBound(size_t b) {
    if (b == 0) return 1.0;
    return std::pow(2.0, static_cast<double>(b));
  }

  mutable std::mutex mu_;
  Data data_;
};

/// \brief Named registry so tasks/operators can publish metrics the
/// controllers (elasticity, shedding), exporters, and benches read.
///
/// Naming convention: metric names follow Prometheus exposition syntax,
/// optionally with inline labels — e.g.
/// `task_records_in_total{vertex="join",subtask="0"}`. The obs/ exporters
/// group series by the base name before the '{'.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>();
    return slot.get();
  }
  Gauge* GetGauge(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = gauges_[name];
    if (!slot) slot = std::make_unique<Gauge>();
    return slot.get();
  }
  Histogram* GetHistogram(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = histograms_[name];
    if (!slot) slot = std::make_unique<Histogram>();
    return slot.get();
  }

  // Enumeration for exporters. Callbacks run under the registry lock with
  // stable metric pointers (metrics are never removed); names arrive in
  // sorted order (std::map), so exports are deterministic.
  void ForEachCounter(
      const std::function<void(const std::string&, const Counter&)>& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, m] : counters_) fn(name, *m);
  }
  void ForEachGauge(
      const std::function<void(const std::string&, const Gauge&)>& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, m] : gauges_) fn(name, *m);
  }
  void ForEachHistogram(
      const std::function<void(const std::string&, const Histogram&)>& fn)
      const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, m] : histograms_) fn(name, *m);
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace evo
