#pragma once

/// \file join.h
/// \brief Stream joins: the windowed equi-join (symmetric hash join per
/// window, the DSMS-era classic) and the interval join (each left record
/// pairs with right records within a relative time interval).
///
/// Both are two-input keyed operators: connect both upstream keyed streams
/// to the same vertex with Partitioning::kHash so matching keys co-locate.

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "dataflow/operator.h"
#include "operators/slice_store.h"
#include "state/state_api.h"

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
/// right records in [t + lower, t + upper]. Both sides buffer; cleanup
/// timers evict expired entries (bounded state despite unbounded streams).
class IntervalJoinOperator final : public dataflow::Operator {
 public:
  IntervalJoinOperator(int64_t lower_ms, int64_t upper_ms, JoinFunction join_fn)
      : lower_(lower_ms), upper_(upper_ms), join_fn_(std::move(join_fn)) {}

  Status Open(dataflow::OperatorContext* ctx) override {
    EVO_RETURN_IF_ERROR(Operator::Open(ctx));
    left_ = std::make_unique<state::MapState<std::string, std::string>>(
        ctx->state(), "ijoin.left");
    right_ = std::make_unique<state::MapState<std::string, std::string>>(
        ctx->state(), "ijoin.right");
    return Status::OK();
  }

  Status ProcessRecord(Record& record, dataflow::Collector* out) override {
    return ProcessRecordFrom(0, record, out);
  }

  Status ProcessRecordFrom(size_t input, Record& record,
                           dataflow::Collector* out) override {
    auto* mine = input == 0 ? left_.get() : right_.get();
    auto* theirs = input == 0 ? right_.get() : left_.get();

    // Buffer under (ts, n), n = this side's records already buffered for the
    // key at ts. Read from keyed state, so unique across restore and rescale.
    std::string ts_key;
    for (uint64_t seq = 0;; ++seq) {
      ts_key = TsKey(record.event_time, seq);
      EVO_ASSIGN_OR_RETURN(auto taken, mine->Get(ts_key));
      if (!taken.has_value()) break;
    }
    EVO_RETURN_IF_ERROR(mine->Put(ts_key, SerializeToString(record.payload)));

    // Match against the other side within the interval. For a left record at
    // t the window is [t+lower, t+upper]; for a right record at t it is the
    // mirrored [t-upper, t-lower].
    TimeMs lo = input == 0 ? record.event_time + lower_
                           : record.event_time - upper_;
    TimeMs hi = input == 0 ? record.event_time + upper_
                           : record.event_time - lower_;
    Status inner = Status::OK();
    EVO_RETURN_IF_ERROR(theirs->ForEach(
        [&](const std::string& other_key, const std::string& other_blob) {
          if (!inner.ok()) return;
          TimeMs other_ts =
              static_cast<TimeMs>(state::StateKey::ReadU64BE(other_key));
          if (other_ts < lo || other_ts > hi) return;
          auto other = DeserializeFromString<Value>(other_blob);
          if (!other.ok()) {
            inner = other.status();
            return;
          }
          TimeMs out_ts = std::max(record.event_time, other_ts);
          Value joined = input == 0 ? join_fn_(record.payload, other.value())
                                    : join_fn_(other.value(), record.payload);
          out->Emit(Record(out_ts, record.key, std::move(joined)));
        }));
    EVO_RETURN_IF_ERROR(inner);

    // Schedule eviction once no future record could match it: a buffered
    // record at time t is dead when the watermark passes t + max(|lower|,
    // |upper|).
    int64_t horizon = std::max(std::abs(lower_), std::abs(upper_));
    ctx_->timers()->event_timers().Register(record.event_time + horizon,
                                            record.key, kCleanupTag);
    return Status::OK();
  }

  Status OnTimer(const time::Timer& timer, dataflow::Collector*) override {
    if (timer.tag != kCleanupTag) return Status::OK();
    int64_t horizon = std::max(std::abs(lower_), std::abs(upper_));
    TimeMs cutoff = timer.when - horizon;
    for (auto* side : {left_.get(), right_.get()}) {
      std::vector<std::string> dead;
      EVO_RETURN_IF_ERROR(side->ForEach(
          [&](const std::string& ts_key, const std::string&) {
            auto ts = static_cast<TimeMs>(state::StateKey::ReadU64BE(ts_key));
            if (ts <= cutoff) dead.push_back(ts_key);
          }));
      for (const std::string& k : dead) EVO_RETURN_IF_ERROR(side->Remove(k));
    }
    return Status::OK();
  }

 private:
  static constexpr uint64_t kCleanupTag = 0xC1EA;

  static std::string TsKey(TimeMs ts, uint64_t seq) {
    std::string k;
    state::StateKey::AppendU64BE(&k, static_cast<uint64_t>(ts));
    state::StateKey::AppendU64BE(&k, seq);
    return k;
  }

  int64_t lower_, upper_;
  JoinFunction join_fn_;
  std::unique_ptr<state::MapState<std::string, std::string>> left_;
  std::unique_ptr<state::MapState<std::string, std::string>> right_;
};

}  // namespace evo::op
