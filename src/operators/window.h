#pragma once

/// \file window.h
/// \brief Event-time windowing for the dataflow engine: assigners
/// (tumbling/sliding/session/count/global), triggers (event-time with
/// optional early firing, count), and the keyed WindowOperator with allowed
/// lateness and late-data side output — the Dataflow-model [4] machinery the
/// survey identifies as the 2nd-generation baseline.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "dataflow/operator.h"
#include "event/value.h"
#include "state/state_api.h"

namespace evo::op {

/// \brief A time window [start, end).
struct Window {
  TimeMs start = 0;
  TimeMs end = 0;
  friend auto operator<=>(const Window&, const Window&) = default;
};

/// \brief Assigns each record to zero or more windows.
class WindowAssigner {
 public:
  virtual ~WindowAssigner() = default;
  virtual std::vector<Window> Assign(TimeMs ts) const = 0;
  /// \brief True for session windows (windows merge when they touch).
  virtual bool IsMerging() const { return false; }
  /// \brief Merge gap for session windows.
  virtual int64_t SessionGap() const { return 0; }
};

/// \brief Fixed, non-overlapping windows of `size` ms.
class TumblingWindows final : public WindowAssigner {
 public:
  explicit TumblingWindows(int64_t size) : size_(size) {}
  std::vector<Window> Assign(TimeMs ts) const override {
    TimeMs start = (ts / size_) * size_;
    return {Window{start, start + size_}};
  }

 private:
  int64_t size_;
};

/// \brief Overlapping windows of `size` every `slide` ms.
class SlidingWindows final : public WindowAssigner {
 public:
  SlidingWindows(int64_t size, int64_t slide) : size_(size), slide_(slide) {}
  std::vector<Window> Assign(TimeMs ts) const override {
    std::vector<Window> windows;
    TimeMs last_start = (ts / slide_) * slide_;
    for (TimeMs start = last_start; start > ts - size_; start -= slide_) {
      windows.push_back(Window{start, start + size_});
      if (start < slide_) break;  // don't go below window start 0
    }
    return windows;
  }

 private:
  int64_t size_, slide_;
};

/// \brief Session windows: each record opens [ts, ts+gap); touching windows
/// merge (handled by the operator).
class SessionWindows final : public WindowAssigner {
 public:
  explicit SessionWindows(int64_t gap) : gap_(gap) {}
  std::vector<Window> Assign(TimeMs ts) const override {
    return {Window{ts, ts + gap_}};
  }
  bool IsMerging() const override { return true; }
  int64_t SessionGap() const override { return gap_; }

 private:
  int64_t gap_;
};

/// \brief One global window; use with a count trigger.
class GlobalWindows final : public WindowAssigner {
 public:
  std::vector<Window> Assign(TimeMs) const override {
    return {Window{0, kMaxWatermark}};
  }
};

/// \brief When a window's contents are emitted.
class Trigger {
 public:
  virtual ~Trigger() = default;
  /// \brief Called per element; return true to fire now (early firing /
  /// count triggers).
  virtual bool OnElement(const Window& w, TimeMs ts, uint64_t count_in_window) {
    (void)w;
    (void)ts;
    (void)count_in_window;
    return false;
  }
  /// \brief Whether passing the window end watermark fires it (event-time
  /// trigger); count-only triggers return false.
  virtual bool FiresOnEventTime() const { return true; }
  /// \brief Whether an OnElement firing also purges the window contents
  /// (tumbling count windows) or leaves them for later firings (early
  /// firing / accumulating mode).
  virtual bool PurgeOnFire() const { return false; }
};

/// \brief Default: fire exactly when the watermark passes the window end.
class EventTimeTrigger final : public Trigger {};

/// \brief Fire every `n` elements in addition to (or instead of) the
/// event-time firing — the early-firing / speculative pattern.
class CountTrigger final : public Trigger {
 public:
  explicit CountTrigger(uint64_t n, bool also_on_event_time = false,
                        bool purge_on_fire = false)
      : n_(n),
        also_event_time_(also_on_event_time),
        purge_on_fire_(purge_on_fire) {}
  bool OnElement(const Window&, TimeMs, uint64_t count) override {
    return count % n_ == 0;
  }
  bool FiresOnEventTime() const override { return also_event_time_; }
  bool PurgeOnFire() const override { return purge_on_fire_; }

 private:
  uint64_t n_;
  bool also_event_time_;
  bool purge_on_fire_;
};

/// \brief Window result assembly: receives the buffered payloads of the
/// fired window and produces the output payload.
using WindowFunction = std::function<Value(
    uint64_t key, const Window& window, const std::vector<Value>& contents)>;

/// \brief Pre-baked window functions for numeric payloads (payload or
/// payload field index treated as double).
struct WindowFunctions {
  /// Sums field `idx` of tuple payloads (or the payload itself if idx<0).
  static WindowFunction SumField(int idx) {
    return [idx](uint64_t, const Window&, const std::vector<Value>& contents) {
      double sum = 0;
      for (const Value& v : contents) {
        sum += idx < 0 ? v.ToDouble()
                       : v.AsList()[static_cast<size_t>(idx)].ToDouble();
      }
      return Value(sum);
    };
  }
  static WindowFunction Count() {
    return [](uint64_t, const Window&, const std::vector<Value>& contents) {
      return Value(static_cast<int64_t>(contents.size()));
    };
  }
  static WindowFunction MaxField(int idx) {
    return [idx](uint64_t, const Window&, const std::vector<Value>& contents) {
      double best = -1.7976931348623157e308;
      for (const Value& v : contents) {
        best = std::max(best, idx < 0
                                  ? v.ToDouble()
                                  : v.AsList()[static_cast<size_t>(idx)]
                                        .ToDouble());
      }
      return Value(best);
    };
  }
};

/// \brief Options for the window operator.
struct WindowOperatorOptions {
  /// Keep windows open for late data up to this long past the watermark;
  /// late firings re-emit updated results (Dataflow-model accumulating mode).
  int64_t allowed_lateness_ms = 0;
  /// Side-output tag for records later than watermark + allowed lateness.
  std::string late_tag = "late";
};

/// \brief Keyed windowing operator: buffers per (key, window) in ListState,
/// fires on trigger/watermark, merges session windows, routes too-late
/// records to a side output.
///
/// Output records carry payload (window_start, window_end, result) with the
/// record key preserved and event_time = window_end - 1 (so downstream
/// windows nest correctly).
class WindowOperator final : public dataflow::Operator {
 public:
  WindowOperator(std::shared_ptr<WindowAssigner> assigner,
                 WindowFunction window_fn,
                 std::shared_ptr<Trigger> trigger = nullptr,
                 WindowOperatorOptions options = {})
      : assigner_(std::move(assigner)),
        window_fn_(std::move(window_fn)),
        trigger_(trigger ? std::move(trigger)
                         : std::make_shared<EventTimeTrigger>()),
        options_(options) {}

  Status Open(dataflow::OperatorContext* ctx) override {
    EVO_RETURN_IF_ERROR(Operator::Open(ctx));
    // Window contents: MapState window-start -> serialized payload list.
    windows_ = std::make_unique<state::MapState<std::string, std::string>>(
        ctx->state(), "window.buffers");
    return Status::OK();
  }

  Status ProcessRecord(Record& record, dataflow::Collector* out) override {
    TimeMs watermark = ctx_->CurrentWatermark();
    if (record.event_time != kNoTimestamp &&
        record.event_time + options_.allowed_lateness_ms <= watermark &&
        watermark != kMinWatermark) {
      out->EmitSide(options_.late_tag, record);
      return Status::OK();
    }

    std::vector<Window> assigned = assigner_->Assign(record.event_time);
    for (Window w : assigned) {
      if (assigner_->IsMerging()) {
        EVO_ASSIGN_OR_RETURN(w, MergeSessions(w, record.key));
      }
      EVO_ASSIGN_OR_RETURN(uint64_t count, AppendToWindow(w, record.payload));
      if (trigger_->OnElement(w, record.event_time, count)) {
        EVO_RETURN_IF_ERROR(
            FireWindow(record.key, w, out, trigger_->PurgeOnFire()));
      }
      if (trigger_->FiresOnEventTime() && w.end != kMaxWatermark) {
        ctx_->timers()->event_timers().Register(
            w.end - 1 + options_.allowed_lateness_ms, record.key,
            static_cast<uint64_t>(w.start));
      }
    }
    return Status::OK();
  }

  Status OnTimer(const time::Timer& timer, dataflow::Collector* out) override {
    Window w;
    w.start = static_cast<TimeMs>(timer.tag);
    // End is recovered from stored window metadata (sessions can have moved
    // their end; fixed windows recompute it on fire).
    return FireStoredWindow(timer.key, w.start, out);
  }

  Status Close(dataflow::Collector* out) override {
    (void)out;
    return Status::OK();  // unfired windows fire via the final MAX watermark
  }

 private:
  static std::string WindowKey(TimeMs start) {
    std::string k;
    state::StateKey::AppendU64BE(&k, static_cast<uint64_t>(start));
    return k;
  }

  /// Appends a payload to the (current key, window) buffer; returns count.
  Result<uint64_t> AppendToWindow(const Window& w, const Value& payload) {
    EVO_ASSIGN_OR_RETURN(auto buffered, windows_->Get(WindowKey(w.start)));
    BinaryWriter writer;
    uint64_t count = 0;
    if (buffered.has_value()) {
      // Stored form: end | count | payloads...
      BinaryReader r(*buffered);
      TimeMs end = 0;
      EVO_RETURN_IF_ERROR(r.ReadI64(&end));
      EVO_RETURN_IF_ERROR(r.ReadFixed(&count));
      writer.WriteI64(std::max(end, w.end));
      writer.WriteFixed(count + 1);
      writer.WriteRaw(buffered->data() + r.position(),
                      buffered->size() - r.position());
    } else {
      writer.WriteI64(w.end);
      writer.WriteFixed(uint64_t{1});
    }
    payload.EncodeTo(&writer);
    EVO_RETURN_IF_ERROR(windows_->Put(WindowKey(w.start), writer.buffer()));
    return count + 1;
  }

  /// For session windows: finds stored windows for this key overlapping
  /// [w.start - gap, w.end + gap) and merges them into one.
  Result<Window> MergeSessions(Window w, uint64_t key) {
    (void)key;  // state context is already scoped to the key
    std::vector<std::pair<TimeMs, std::string>> to_merge;
    Status inner = Status::OK();
    EVO_RETURN_IF_ERROR(windows_->ForEach(
        [&](const std::string& start_key, const std::string& blob) {
          if (!inner.ok()) return;
          TimeMs start =
              static_cast<TimeMs>(state::StateKey::ReadU64BE(start_key));
          BinaryReader r(blob);
          TimeMs end = 0;
          inner = r.ReadI64(&end);
          if (!inner.ok()) return;
          // Sessions merge when ranges touch.
          if (end >= w.start && start <= w.end) {
            to_merge.emplace_back(start, blob);
          }
        }));
    EVO_RETURN_IF_ERROR(inner);
    if (to_merge.empty()) return w;

    // Merged extent.
    Window merged = w;
    for (const auto& [start, blob] : to_merge) {
      BinaryReader r(blob);
      TimeMs end = 0;
      EVO_RETURN_IF_ERROR(r.ReadI64(&end));
      merged.start = std::min(merged.start, start);
      merged.end = std::max(merged.end, end);
    }
    // Rewrite contents under the merged start.
    BinaryWriter writer;
    writer.WriteI64(merged.end);
    uint64_t total = 0;
    BinaryWriter payloads;
    for (const auto& [start, blob] : to_merge) {
      BinaryReader r(blob);
      TimeMs end = 0;
      uint64_t count = 0;
      EVO_RETURN_IF_ERROR(r.ReadI64(&end));
      EVO_RETURN_IF_ERROR(r.ReadFixed(&count));
      total += count;
      payloads.WriteRaw(blob.data() + r.position(), blob.size() - r.position());
      if (start != merged.start) {
        EVO_RETURN_IF_ERROR(windows_->Remove(WindowKey(start)));
      }
      // Old timers for absorbed windows become no-ops (no stored window).
    }
    writer.WriteFixed(total);
    writer.WriteRaw(payloads.buffer().data(), payloads.size());
    EVO_RETURN_IF_ERROR(windows_->Put(WindowKey(merged.start), writer.buffer()));
    return merged;
  }

  Status FireStoredWindow(uint64_t key, TimeMs start, dataflow::Collector* out) {
    EVO_ASSIGN_OR_RETURN(auto buffered, windows_->Get(WindowKey(start)));
    if (!buffered.has_value()) return Status::OK();  // merged away or purged
    Window w;
    w.start = start;
    BinaryReader r(*buffered);
    EVO_RETURN_IF_ERROR(r.ReadI64(&w.end));
    if (assigner_->IsMerging() &&
        w.end - 1 + options_.allowed_lateness_ms >
            ctx_->CurrentWatermark()) {
      // The session grew since the timer was set; re-arm at the new end.
      ctx_->timers()->event_timers().Register(
          w.end - 1 + options_.allowed_lateness_ms, key,
          static_cast<uint64_t>(w.start));
      return Status::OK();
    }
    EVO_RETURN_IF_ERROR(EmitWindow(key, w, *buffered, out));
    return windows_->Remove(WindowKey(start));
  }

  Status FireWindow(uint64_t key, const Window& w, dataflow::Collector* out,
                    bool purge) {
    EVO_ASSIGN_OR_RETURN(auto buffered, windows_->Get(WindowKey(w.start)));
    if (!buffered.has_value()) return Status::OK();
    EVO_RETURN_IF_ERROR(EmitWindow(key, w, *buffered, out));
    if (purge) return windows_->Remove(WindowKey(w.start));
    return Status::OK();
  }

  Status EmitWindow(uint64_t key, const Window& w, const std::string& blob,
                    dataflow::Collector* out) {
    BinaryReader r(blob);
    Window stored = w;
    uint64_t count = 0;
    EVO_RETURN_IF_ERROR(r.ReadI64(&stored.end));
    EVO_RETURN_IF_ERROR(r.ReadFixed(&count));
    std::vector<Value> contents;
    contents.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      Value v;
      EVO_RETURN_IF_ERROR(Value::DecodeFrom(&r, &v));
      contents.push_back(std::move(v));
    }
    Value result = window_fn_(key, stored, contents);
    out->Emit(Record(stored.end - 1, key,
                     Value::Tuple(stored.start, stored.end, std::move(result))));
    return Status::OK();
  }

  std::shared_ptr<WindowAssigner> assigner_;
  WindowFunction window_fn_;
  std::shared_ptr<Trigger> trigger_;
  WindowOperatorOptions options_;
  std::unique_ptr<state::MapState<std::string, std::string>> windows_;
};

}  // namespace evo::op
