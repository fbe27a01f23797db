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
#include <numeric>
#include <string>
#include <vector>

#include "common/clock.h"
#include "dataflow/operator.h"
#include "event/value.h"
#include "operators/slice_store.h"

namespace evo::op {

/// \brief A time window [start, end).
struct Window {
  TimeMs start = 0;
  TimeMs end = 0;
  friend auto operator<=>(const Window&, const Window&) = default;
};

/// \brief Assigns each record to zero or more windows. Windows start at 0
/// or later, so a negative event time (or none) is in no window.
class WindowAssigner {
 public:
  virtual ~WindowAssigner() = default;
  virtual std::vector<Window> Assign(TimeMs ts) const = 0;
  /// \brief True for session windows (windows merge when they touch).
  virtual bool IsMerging() const { return false; }
  /// \brief Merge gap for session windows.
  virtual int64_t SessionGap() const { return 0; }
  /// \brief Fixed windows are `Size()` ms long and start at every multiple
  /// of `Slide()` from 0; merging assigners return 0 for both.
  virtual int64_t Size() const { return 0; }
  virtual int64_t Slide() const { return 0; }
};

/// \brief Fixed, non-overlapping windows of `size` ms.
class TumblingWindows final : public WindowAssigner {
 public:
  explicit TumblingWindows(int64_t size) : size_(size) {}
  std::vector<Window> Assign(TimeMs ts) const override {
    if (ts < 0) return {};
    TimeMs start = (ts / size_) * size_;
    return {Window{start, start + size_}};
  }
  int64_t Size() const override { return size_; }
  int64_t Slide() const override { return size_; }

 private:
  int64_t size_;
};

/// \brief Overlapping windows of `size` every `slide` ms.
class SlidingWindows final : public WindowAssigner {
 public:
  SlidingWindows(int64_t size, int64_t slide) : size_(size), slide_(slide) {}
  std::vector<Window> Assign(TimeMs ts) const override {
    std::vector<Window> windows;
    if (ts < 0) return windows;
    TimeMs last_start = (ts / slide_) * slide_;
    for (TimeMs start = last_start; start > ts - size_; start -= slide_) {
      windows.push_back(Window{start, start + size_});
      if (start < slide_) break;  // don't go below window start 0
    }
    return windows;
  }
  int64_t Size() const override { return size_; }
  int64_t Slide() const override { return slide_; }

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

/// \brief One global window [0, MAX); use with a count trigger.
class GlobalWindows final : public WindowAssigner {
 public:
  std::vector<Window> Assign(TimeMs ts) const override {
    if (ts < 0) return {};
    return {Window{0, kMaxWatermark}};
  }
  int64_t Size() const override { return kMaxWatermark; }
  int64_t Slide() const override { return kMaxWatermark; }
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
  /// Keep windows open for late data up to this long past the watermark: a
  /// window fires once the watermark passes end - 1 + allowed lateness.
  int64_t allowed_lateness_ms = 0;
  /// Side-output tag for records later than watermark + allowed lateness,
  /// and for records with no event time or a negative one.
  std::string late_tag = "late";
};

/// \brief Keyed windowing operator: stores each record once, in its slice of
/// a SliceStore, fires on trigger/watermark, merges session windows, routes
/// too-late records to a side output.
///
/// Slices. Fixed windows (tumbling, sliding, global) are cut into panes of
/// gcd(size, slide) ms. A pane lies wholly inside or outside each window,
/// so a window is the run of panes it covers and a record is never copied
/// into the several windows that share it. A session is one slice; merging
/// sessions re-keys the absorbed sessions' records under the merged start,
/// the only place records move. The WindowFunction receives a window's
/// records in slice order, then arrival order.
///
/// Timers. Fixed windows chain their event-time timers per key instead of
/// keeping one per (key, window): a new pane arms only the earliest window
/// containing it, and firing a window deletes the panes no later window
/// needs and arms the next window that holds a pane. Chains from different
/// panes meet in TimerQueue's (when, key, tag) dedup. A key's windows thus
/// fire in end order, each once, and a key has at most one pending timer
/// per non-empty pane: a single one when its records share a pane, where
/// per-window timers need size/slide. Sessions keep one timer per session.
///
/// Triggers. The plain EventTimeTrigger never reads counts; other triggers
/// get each window's count from the slice metas. A purging trigger is
/// rejected on overlapping windows, whose panes neighbouring windows share.
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
        options_(options),
        counts_(dynamic_cast<EventTimeTrigger*>(trigger_.get()) == nullptr) {}

  Status Open(dataflow::OperatorContext* ctx) override {
    EVO_RETURN_IF_ERROR(Operator::Open(ctx));
    merging_ = assigner_->IsMerging();
    size_ = assigner_->Size();
    slide_ = assigner_->Slide();
    if (!merging_ && (size_ <= 0 || slide_ <= 0)) {
      return Status::InvalidArgument("window assigner has no size and slide");
    }
    if (!merging_ && slide_ < size_ && trigger_->PurgeOnFire()) {
      return Status::InvalidArgument(
          "a purging trigger on overlapping windows would delete records "
          "that neighbouring windows share");
    }
    pane_ = merging_ ? 0 : std::gcd(size_, slide_);
    slices_ = std::make_unique<SliceStore>(ctx->state(), "window");
    return Status::OK();
  }

  Status ProcessRecord(Record& record, dataflow::Collector* out) override {
    const TimeMs ts = record.event_time;
    const TimeMs watermark = ctx_->CurrentWatermark();
    // Windows start at 0, so no window holds a negative event time (or
    // kNoTimestamp); such records are late for every window.
    if (ts < 0 || (watermark != kMinWatermark &&
                   ts + options_.allowed_lateness_ms <= watermark)) {
      out->EmitSide(options_.late_tag, record);
      return Status::OK();
    }
    return merging_ ? AddToSession(record, out) : AddToPane(record, out);
  }

  Status OnTimer(const time::Timer& timer, dataflow::Collector* out) override {
    return merging_ ? FireSession(timer, out) : FirePanes(timer, out);
  }

  Status Close(dataflow::Collector* out) override {
    (void)out;
    return Status::OK();  // unfired windows fire via the final MAX watermark
  }

 private:
  /// Registers the event-time timer that fires `w` under tag `w.start`.
  void Arm(uint64_t key, const Window& w) {
    if (!trigger_->FiresOnEventTime() || w.end == kMaxWatermark) return;
    ctx_->timers()->event_timers().Register(
        w.end - 1 + options_.allowed_lateness_ms, key,
        static_cast<uint64_t>(w.start));
  }

  void Emit(uint64_t key, const Window& w, const std::vector<Value>& contents,
            dataflow::Collector* out) {
    Value result = window_fn_(key, w, contents);
    out->Emit(Record(w.end - 1, key,
                     Value::Tuple(w.start, w.end, std::move(result))));
  }

  Status AddToPane(const Record& record, dataflow::Collector* out) {
    const TimeMs ts = record.event_time;
    if (ts % slide_ >= size_) return Status::OK();  // between hopping windows
    // A pane is inside the same windows as its start, which Assign lists
    // from the latest to the earliest.
    const TimeMs pane = ts - ts % pane_;
    EVO_ASSIGN_OR_RETURN(
        SliceStore::Meta meta,
        slices_->Append(static_cast<uint64_t>(pane), record.payload));
    if (meta.count == 1) Arm(record.key, assigner_->Assign(pane).back());
    if (!counts_) return Status::OK();

    EVO_ASSIGN_OR_RETURN(auto slices, slices_->Slices());
    for (const Window& w : assigner_->Assign(pane)) {
      uint64_t count = 0;
      for (const auto& [slice, m] : slices) {
        const auto s = static_cast<TimeMs>(slice);
        if (s >= w.start && s < w.end) count += m.count;
      }
      if (!trigger_->OnElement(w, record.event_time, count)) continue;
      EVO_ASSIGN_OR_RETURN(auto contents, slices_->Read(
          static_cast<uint64_t>(w.start), static_cast<uint64_t>(w.end)));
      Emit(record.key, w, contents, out);
      if (!trigger_->PurgeOnFire()) continue;
      for (const auto& [slice, m] : slices) {  // no other window shares them
        const auto s = static_cast<TimeMs>(slice);
        if (s >= w.start && s < w.end) {
          EVO_RETURN_IF_ERROR(slices_->Remove(slice, m.count));
        }
      }
    }
    return Status::OK();
  }

  /// Fires the window the timer names, deletes the panes no later window
  /// needs, and arms the next window that holds a pane.
  Status FirePanes(const time::Timer& timer, dataflow::Collector* out) {
    const auto start = static_cast<TimeMs>(timer.tag);
    const Window w{start, start + size_};
    EVO_ASSIGN_OR_RETURN(auto contents, slices_->Read(
        timer.tag, static_cast<uint64_t>(w.end)));
    if (!contents.empty()) Emit(timer.key, w, contents, out);
    EVO_ASSIGN_OR_RETURN(auto slices, slices_->Slices());
    const TimeMs later = start + slide_;  // where every later window starts
    for (const auto& [slice, meta] : slices) {
      const auto pane = static_cast<TimeMs>(slice);
      if (pane >= later) {
        const TimeMs next = std::max(assigner_->Assign(pane).back().start,
                                     later);
        Arm(timer.key, Window{next, next + size_});
        break;
      }
      EVO_RETURN_IF_ERROR(slices_->Remove(slice, meta.count));
    }
    return Status::OK();
  }

  /// Adds the record as a session [ts, ts + gap), merged with every stored
  /// session it touches. The merged session keeps its records in session
  /// order, then the new record.
  Status AddToSession(const Record& record, dataflow::Collector* out) {
    Window merged{record.event_time,
                  record.event_time + assigner_->SessionGap()};
    EVO_ASSIGN_OR_RETURN(auto sessions, slices_->Slices());
    std::vector<std::pair<uint64_t, SliceStore::Meta>> touching;
    for (const auto& [start, meta] : sessions) {
      if (meta.end >= merged.start &&
          static_cast<TimeMs>(start) <= merged.end) {
        touching.emplace_back(start, meta);
        merged.start = std::min(merged.start, static_cast<TimeMs>(start));
        merged.end = std::max(merged.end, meta.end);
      }
    }
    const auto slice = static_cast<uint64_t>(merged.start);
    uint64_t count = 0;
    for (const auto& [start, meta] : touching) {
      if (start != slice) {
        EVO_RETURN_IF_ERROR(slices_->Move(start, slice, count));
      }
      count += meta.count;
    }
    EVO_RETURN_IF_ERROR(slices_->PutEntry(slice, count, record.payload));
    ++count;
    EVO_RETURN_IF_ERROR(slices_->PutMeta(slice, {count, merged.end}));
    Arm(record.key, merged);
    if (!counts_ || !trigger_->OnElement(merged, record.event_time, count)) {
      return Status::OK();
    }
    EVO_ASSIGN_OR_RETURN(auto contents, slices_->Read(slice, slice + 1));
    Emit(record.key, merged, contents, out);
    if (trigger_->PurgeOnFire()) return slices_->Remove(slice, count);
    return Status::OK();
  }

  Status FireSession(const time::Timer& timer, dataflow::Collector* out) {
    EVO_ASSIGN_OR_RETURN(auto meta, slices_->GetMeta(timer.tag));
    if (!meta.has_value()) return Status::OK();  // merged away or purged
    const Window w{static_cast<TimeMs>(timer.tag), meta->end};
    if (w.end - 1 + options_.allowed_lateness_ms > ctx_->CurrentWatermark()) {
      Arm(timer.key, w);  // the session grew since the timer was set
      return Status::OK();
    }
    EVO_ASSIGN_OR_RETURN(auto contents,
                         slices_->Read(timer.tag, timer.tag + 1));
    Emit(timer.key, w, contents, out);
    return slices_->Remove(timer.tag, meta->count);
  }

  std::shared_ptr<WindowAssigner> assigner_;
  WindowFunction window_fn_;
  std::shared_ptr<Trigger> trigger_;
  WindowOperatorOptions options_;
  /// False for the plain EventTimeTrigger, which never reads window counts.
  bool counts_;
  bool merging_ = false;
  int64_t size_ = 0, slide_ = 0, pane_ = 0;
  std::unique_ptr<SliceStore> slices_;
};

}  // namespace evo::op
