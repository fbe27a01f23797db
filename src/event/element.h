#pragma once

/// \file element.h
/// \brief The stream element model: data records interleaved in-band with
/// control elements.
///
/// Following the dataflow tradition (Millwheel/Flink/Naiad), a channel does
/// not carry only data: watermarks, punctuations, checkpoint barriers,
/// latency markers and end-of-stream signals flow *in-band* between records,
/// so control information is totally ordered with respect to the data it
/// describes. This file defines that tagged element; a channel encodes it
/// into its ring slots (dataflow/channel.h). A Record alone also serializes
/// (Serde<Record>), for the state and transaction logs that hold records.

#include <cstdint>
#include <string>
#include <utility>

#include "common/clock.h"
#include "common/serde.h"
#include "event/value.h"

namespace evo {

/// \brief A timestamped, keyed data record.
struct Record {
  /// Event time in ms since epoch; kNoTimestamp if the source did not assign.
  TimeMs event_time = kNoTimestamp;
  /// Precomputed key hash; assigned by keyBy. 0 for unkeyed records.
  uint64_t key = 0;
  /// The payload.
  Value payload;

  Record() = default;
  Record(TimeMs ts, Value v) : event_time(ts), payload(std::move(v)) {}
  Record(TimeMs ts, uint64_t k, Value v)
      : event_time(ts), key(k), payload(std::move(v)) {}

  bool operator==(const Record& o) const {
    return event_time == o.event_time && key == o.key && payload == o.payload;
  }
};

/// \brief Kinds of in-band elements.
enum class ElementKind : uint8_t {
  kRecord = 0,
  /// Low-watermark: "no record with event time <= ts will arrive" (Dataflow
  /// model [4]; generalization of punctuations [49] / heartbeats [45]).
  kWatermark = 1,
  /// Punctuation: a predicate asserting no future record matches it. We
  /// support the most useful family: "no more records for key K" and
  /// "no more records with ts <= T for key K" (Tucker et al. [49]).
  kPunctuation = 2,
  /// Checkpoint barrier for aligned snapshots (ABS / Chandy-Lamport).
  kCheckpointBarrier = 3,
  /// Latency marker stamped at sources; operators forward it so sinks can
  /// measure end-to-end pipeline latency without touching data records.
  kLatencyMarker = 4,
  /// End of stream: the upstream is done; flush and finish.
  kEndOfStream = 5,
};

/// \brief Checkpointing mode carried by a barrier.
enum class CheckpointMode : uint8_t {
  /// Exactly-once: tasks align barriers from all inputs before snapshotting.
  kAligned = 0,
  /// At-least-once / unaligned: no alignment; in-flight data is part of the
  /// snapshot or may be replayed.
  kUnaligned = 1,
};

/// \brief A data or control element flowing through a channel.
///
/// Implemented as a flat struct with a kind tag rather than std::variant: the
/// hot path (records) avoids variant dispatch, and control fields are cheap.
struct StreamElement {
  ElementKind kind = ElementKind::kRecord;
  Record record;  ///< valid iff kind == kRecord

  /// Watermark timestamp (kWatermark), punctuation bound (kPunctuation) or
  /// source emission time (kLatencyMarker).
  TimeMs time = kNoTimestamp;
  /// Punctuation key (kPunctuation, key_scoped) or checkpoint id (barrier).
  uint64_t tag = 0;
  /// Punctuation: if true the punctuation is scoped to key `tag`; otherwise
  /// it asserts completeness for all keys up to `time`.
  bool key_scoped = false;
  /// Barrier checkpoint mode.
  CheckpointMode mode = CheckpointMode::kAligned;

  static StreamElement OfRecord(Record r) {
    StreamElement e;
    e.kind = ElementKind::kRecord;
    e.record = std::move(r);
    return e;
  }
  static StreamElement OfRecord(TimeMs ts, Value v) {
    return OfRecord(Record(ts, std::move(v)));
  }
  static StreamElement Watermark(TimeMs ts) {
    StreamElement e;
    e.kind = ElementKind::kWatermark;
    e.time = ts;
    return e;
  }
  static StreamElement Punctuation(TimeMs ts, uint64_t key, bool key_scoped) {
    StreamElement e;
    e.kind = ElementKind::kPunctuation;
    e.time = ts;
    e.tag = key;
    e.key_scoped = key_scoped;
    return e;
  }
  static StreamElement Barrier(uint64_t checkpoint_id,
                               CheckpointMode mode = CheckpointMode::kAligned) {
    StreamElement e;
    e.kind = ElementKind::kCheckpointBarrier;
    e.tag = checkpoint_id;
    e.mode = mode;
    return e;
  }
  static StreamElement LatencyMarker(TimeMs emitted_at) {
    StreamElement e;
    e.kind = ElementKind::kLatencyMarker;
    e.time = emitted_at;
    return e;
  }
  static StreamElement EndOfStream() {
    StreamElement e;
    e.kind = ElementKind::kEndOfStream;
    return e;
  }

  bool is_record() const { return kind == ElementKind::kRecord; }
  bool is_watermark() const { return kind == ElementKind::kWatermark; }
  bool is_barrier() const { return kind == ElementKind::kCheckpointBarrier; }
  bool is_end() const { return kind == ElementKind::kEndOfStream; }
};

template <>
struct Serde<Record> {
  static void Encode(const Record& rec, BinaryWriter* w) {
    w->WriteI64(rec.event_time);
    w->WriteU64(rec.key);
    rec.payload.EncodeTo(w);
  }
  static Status Decode(BinaryReader* r, Record* out) {
    EVO_RETURN_IF_ERROR(r->ReadI64(&out->event_time));
    EVO_RETURN_IF_ERROR(r->ReadU64(&out->key));
    return Value::DecodeFrom(r, &out->payload);
  }
};

}  // namespace evo
