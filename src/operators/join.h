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
#include "state/state_api.h"

namespace evo::op {

/// \brief Combines a matched pair into the output payload.
using JoinFunction = std::function<Value(const Value& left, const Value& right)>;

/// \brief Tumbling-window equi-join: records of both inputs are buffered per
/// (key, window); when the watermark closes a window, the cross product of
/// the two sides is emitted and the buffers purged.
class WindowJoinOperator final : public dataflow::Operator {
 public:
  WindowJoinOperator(int64_t window_size, JoinFunction join_fn)
      : window_size_(window_size), join_fn_(std::move(join_fn)) {}

  Status Open(dataflow::OperatorContext* ctx) override {
    EVO_RETURN_IF_ERROR(Operator::Open(ctx));
    buffers_ = std::make_unique<state::MapState<std::string, std::string>>(
        ctx->state(), "join.buffers");
    return Status::OK();
  }

  Status ProcessRecord(Record& record, dataflow::Collector* out) override {
    return ProcessRecordFrom(0, record, out);
  }

  Status ProcessRecordFrom(size_t input, Record& record,
                           dataflow::Collector* out) override {
    (void)out;
    if (input > 1) return Status::InvalidArgument("join has two inputs");
    TimeMs start = (record.event_time / window_size_) * window_size_;
    std::string buffer_key = BufferKey(start, input);
    EVO_ASSIGN_OR_RETURN(auto blob, buffers_->Get(buffer_key));
    BinaryWriter w;
    if (blob.has_value()) w.WriteRaw(blob->data(), blob->size());
    record.payload.EncodeTo(&w);
    EVO_RETURN_IF_ERROR(buffers_->Put(buffer_key, w.buffer()));
    ctx_->timers()->event_timers().Register(start + window_size_ - 1,
                                            record.key,
                                            static_cast<uint64_t>(start));
    return Status::OK();
  }

  Status OnTimer(const time::Timer& timer, dataflow::Collector* out) override {
    TimeMs start = static_cast<TimeMs>(timer.tag);
    EVO_ASSIGN_OR_RETURN(auto left_blob, buffers_->Get(BufferKey(start, 0)));
    EVO_ASSIGN_OR_RETURN(auto right_blob, buffers_->Get(BufferKey(start, 1)));
    if (left_blob.has_value() && right_blob.has_value()) {
      EVO_ASSIGN_OR_RETURN(auto left, DecodeAll(*left_blob));
      EVO_ASSIGN_OR_RETURN(auto right, DecodeAll(*right_blob));
      for (const Value& l : left) {
        for (const Value& r : right) {
          out->Emit(Record(start + window_size_ - 1, timer.key, join_fn_(l, r)));
        }
      }
    }
    EVO_RETURN_IF_ERROR(buffers_->Remove(BufferKey(start, 0)));
    return buffers_->Remove(BufferKey(start, 1));
  }

 private:
  static std::string BufferKey(TimeMs start, size_t side) {
    std::string k;
    state::StateKey::AppendU64BE(&k, static_cast<uint64_t>(start));
    k.push_back(static_cast<char>(side));
    return k;
  }

  static Result<std::vector<Value>> DecodeAll(const std::string& blob) {
    std::vector<Value> values;
    BinaryReader r(blob);
    while (!r.AtEnd()) {
      Value v;
      EVO_RETURN_IF_ERROR(Value::DecodeFrom(&r, &v));
      values.push_back(std::move(v));
    }
    return values;
  }

  int64_t window_size_;
  JoinFunction join_fn_;
  std::unique_ptr<state::MapState<std::string, std::string>> buffers_;
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
