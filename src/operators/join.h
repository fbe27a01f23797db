#pragma once

/// \file join.h
/// \brief Stream joins: the windowed equi-join (symmetric hash join per
/// window, the DSMS-era classic) and the interval join (each left record
/// pairs with right records within a relative time interval).
///
/// Both are two-input keyed operators: connect both upstream keyed streams
/// to the same vertex with Partitioning::kHash so matching keys co-locate.

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>

#include "common/clock.h"
#include "dataflow/operator.h"
#include "operators/slice_store.h"

namespace evo::op {

/// \brief Combines a matched pair into the output payload.
using JoinFunction = std::function<Value(const Value& left, const Value& right)>;

/// \brief Tumbling-window equi-join: each side stores its records once, per
/// (key, window), in a SliceStore whose slice is the window start; when the
/// watermark closes a window, the cross product of the two sides is emitted
/// and both slices deleted. Records with no event time or a negative one
/// are in no window and go to the "late" side output.
class WindowJoinOperator final : public dataflow::Operator {
 public:
  WindowJoinOperator(int64_t window_size, JoinFunction join_fn)
      : window_size_(window_size), join_fn_(std::move(join_fn)) {}

  Status Open(dataflow::OperatorContext* ctx) override {
    EVO_RETURN_IF_ERROR(Operator::Open(ctx));
    sides_[0] = std::make_unique<SliceStore>(ctx->state(), "join.left");
    sides_[1] = std::make_unique<SliceStore>(ctx->state(), "join.right");
    return Status::OK();
  }

  Status ProcessRecord(Record& record, dataflow::Collector* out) override {
    return ProcessRecordFrom(0, record, out);
  }

  Status ProcessRecordFrom(size_t input, Record& record,
                           dataflow::Collector* out) override {
    if (input > 1) return Status::InvalidArgument("join has two inputs");
    if (record.event_time < 0) {
      out->EmitSide("late", record);
      return Status::OK();
    }
    TimeMs start = record.event_time - record.event_time % window_size_;
    EVO_RETURN_IF_ERROR(
        sides_[input]->Append(static_cast<uint64_t>(start), record.payload)
            .status());
    ctx_->timers()->event_timers().Register(start + window_size_ - 1,
                                            record.key,
                                            static_cast<uint64_t>(start));
    return Status::OK();
  }

  Status OnTimer(const time::Timer& timer, dataflow::Collector* out) override {
    const uint64_t start = timer.tag;
    EVO_ASSIGN_OR_RETURN(auto left, sides_[0]->Read(start, start + 1));
    EVO_ASSIGN_OR_RETURN(auto right, sides_[1]->Read(start, start + 1));
    for (const Value& l : left) {
      for (const Value& r : right) {
        out->Emit(Record(static_cast<TimeMs>(start) + window_size_ - 1,
                         timer.key, join_fn_(l, r)));
      }
    }
    EVO_RETURN_IF_ERROR(sides_[0]->Remove(start, left.size()));
    return sides_[1]->Remove(start, right.size());
  }

 private:
  int64_t window_size_;
  JoinFunction join_fn_;
  std::unique_ptr<SliceStore> sides_[2];
};

/// \brief Interval join: for each left record at time t, emit pairs with
/// right records in [t + lower, t + upper]. Each side stores its records once,
/// per key, in a SliceStore whose slice is the event time; cleanup timers
/// evict expired slices (bounded state despite unbounded streams). Records
/// with no event time or a negative one go to the "late" side output.
class IntervalJoinOperator final : public dataflow::Operator {
 public:
  IntervalJoinOperator(int64_t lower_ms, int64_t upper_ms, JoinFunction join_fn)
      : lower_(lower_ms), upper_(upper_ms), join_fn_(std::move(join_fn)) {}

  Status Open(dataflow::OperatorContext* ctx) override {
    EVO_RETURN_IF_ERROR(Operator::Open(ctx));
    sides_[0] = std::make_unique<SliceStore>(ctx->state(), "ijoin.left");
    sides_[1] = std::make_unique<SliceStore>(ctx->state(), "ijoin.right");
    return Status::OK();
  }

  Status ProcessRecord(Record& record, dataflow::Collector* out) override {
    return ProcessRecordFrom(0, record, out);
  }

  Status ProcessRecordFrom(size_t input, Record& record,
                           dataflow::Collector* out) override {
    if (input > 1) return Status::InvalidArgument("join has two inputs");
    const TimeMs t = record.event_time;
    if (t < 0) {
      out->EmitSide("late", record);
      return Status::OK();
    }
    EVO_RETURN_IF_ERROR(
        sides_[input]->Append(static_cast<uint64_t>(t), record.payload)
            .status());

    // Match against the other side within the interval. For a left record at
    // t the window is [t+lower, t+upper]; for a right record at t it is the
    // mirrored [t-upper, t-lower]. No stored time is below 0.
    const TimeMs lo = std::max<TimeMs>(
        0, input == 0 ? Offset(t, lower_) : Offset(t, -upper_));
    const TimeMs hi = input == 0 ? Offset(t, upper_) : Offset(t, -lower_);
    if (hi >= lo) {
      EVO_RETURN_IF_ERROR(sides_[1 - input]->ForEach(
          static_cast<uint64_t>(lo), static_cast<uint64_t>(hi) + 1,
          [&](uint64_t other_ts, Value&& other) {
            Value joined = input == 0 ? join_fn_(record.payload, other)
                                      : join_fn_(other, record.payload);
            out->Emit(Record(std::max(t, static_cast<TimeMs>(other_ts)),
                             record.key, std::move(joined)));
          }));
    }

    // Schedule eviction once no future record could match it: a buffered
    // record at time t is dead when the watermark passes t + horizon.
    ctx_->timers()->event_timers().Register(Offset(t, Horizon()), record.key,
                                            kCleanupTag);
    return Status::OK();
  }

  Status OnTimer(const time::Timer& timer, dataflow::Collector*) override {
    if (timer.tag != kCleanupTag) return Status::OK();
    const TimeMs cutoff = timer.when - Horizon();
    for (const auto& side : sides_) {
      EVO_ASSIGN_OR_RETURN(auto slices, side->Slices());
      for (const auto& [slice, meta] : slices) {
        if (static_cast<TimeMs>(slice) > cutoff) break;  // slice order
        EVO_RETURN_IF_ERROR(side->Remove(slice, meta.count));
      }
    }
    return Status::OK();
  }

 private:
  static constexpr uint64_t kCleanupTag = 0xC1EA;

  int64_t Horizon() const {
    return std::max(std::abs(lower_), std::abs(upper_));
  }

  /// t + d held inside the TimeMs range: event times come from outside, and
  /// one near the end of time would overflow.
  static TimeMs Offset(TimeMs t, int64_t d) {
    TimeMs out = 0;
    if (!__builtin_add_overflow(t, d, &out)) return out;
    return d > 0 ? std::numeric_limits<TimeMs>::max()
                 : std::numeric_limits<TimeMs>::min();
  }

  int64_t lower_, upper_;
  JoinFunction join_fn_;
  std::unique_ptr<SliceStore> sides_[2];
};

}  // namespace evo::op
