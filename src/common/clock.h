#pragma once

/// \file clock.h
/// \brief Clock abstraction separating event time, processing time, and test
/// time.
///
/// All engine components take a Clock* so that tests and benchmarks can run
/// on a deterministic ManualClock while production paths use SystemClock.
/// Times are milliseconds since the epoch, matching the event-time domain of
/// the record model.

#include <atomic>
#include <chrono>
#include <cstdint>

namespace evo {

/// \brief Milliseconds since the Unix epoch; the engine-wide time unit.
using TimeMs = int64_t;

/// \brief Sentinel meaning "no timestamp" on a record.
inline constexpr TimeMs kNoTimestamp = INT64_MIN;
/// \brief Watermark value signalling end of stream (all timestamps complete).
inline constexpr TimeMs kMaxWatermark = INT64_MAX;
/// \brief Lowest possible watermark (nothing is complete yet).
inline constexpr TimeMs kMinWatermark = INT64_MIN;

/// \brief Source of processing time.
class Clock {
 public:
  virtual ~Clock() = default;
  /// \brief Current processing time in ms since epoch.
  virtual TimeMs NowMs() const = 0;
};

/// \brief Wall-clock backed by std::chrono::system_clock.
class SystemClock final : public Clock {
 public:
  /// \brief Shared process-wide instance.
  static SystemClock* Instance() {
    static SystemClock clock;
    return &clock;
  }

  TimeMs NowMs() const override {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
  }
};

/// \brief Deterministic, manually advanced clock for tests and simulation.
///
/// Thread-safe: concurrent readers observe a monotonic time.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(TimeMs start = 0) : now_(start) {}

  TimeMs NowMs() const override { return now_.load(std::memory_order_acquire); }

  void AdvanceMs(int64_t ms) { now_.fetch_add(ms, std::memory_order_acq_rel); }
  void SetMs(TimeMs t) { now_.store(t, std::memory_order_release); }

 private:
  std::atomic<TimeMs> now_;
};

/// \brief Monotonic nanosecond stopwatch for measuring elapsed intervals.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  double ElapsedMillis() const { return ElapsedNanos() / 1e6; }
  double ElapsedSeconds() const { return ElapsedNanos() / 1e9; }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace evo
