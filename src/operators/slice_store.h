#pragma once

/// \file slice_store.h
/// \brief Append-only keyed storage for windowed operators: each record is
/// stored once, in its slice, and never rewritten ("No pane, no gain",
/// Li et al.). A slice is a run of event time that windows are built from:
/// a pane of gcd(size, slide) for fixed windows, a whole session, a window
/// of a windowed join, or one event time of an interval join.
///
/// Layout, per key of the state context:
///   - `<name>.slices`: user key (slice BE, seq BE) -> encoded payload, one
///     entry per record; seq counts the slice's records from 0;
///   - `<name>.meta`:   user key (slice BE) -> varint count | varint end, one
///     entry per non-empty slice (end is the session end, else 0).
/// Big-endian user keys make every backend visit a key's entries in (slice,
/// seq) order, i.e. slice order, then arrival order.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/serde.h"
#include "event/value.h"
#include "state/state_api.h"

namespace evo::op {

class SliceStore {
 public:
  /// \brief Per-(key, slice) bookkeeping.
  struct Meta {
    uint64_t count = 0;  ///< records in the slice
    TimeMs end = 0;      ///< session end; 0 for fixed slices
  };

  SliceStore(state::StateContext* ctx, const std::string& name)
      : ctx_(ctx),
        slices_ns_(ctx->RegisterState(name + ".slices")),
        meta_ns_(ctx->RegisterState(name + ".meta")) {}

  Result<std::optional<Meta>> GetMeta(uint64_t slice) const {
    EVO_ASSIGN_OR_RETURN(auto raw, backend()->Get(meta_ns_, key(),
                                                  MetaKey(slice)));
    if (!raw.has_value()) return std::optional<Meta>{};
    EVO_ASSIGN_OR_RETURN(Meta meta, DecodeMeta(*raw));
    return std::optional<Meta>(meta);
  }

  Status PutMeta(uint64_t slice, const Meta& meta) {
    BinaryWriter w;
    w.WriteVarU64(meta.count);
    w.WriteVarU64(static_cast<uint64_t>(meta.end));
    return backend()->Put(meta_ns_, key(), MetaKey(slice), w.buffer());
  }

  /// \brief Stores `payload` as record `seq` of `slice`.
  Status PutEntry(uint64_t slice, uint64_t seq, const Value& payload) {
    BinaryWriter w;
    payload.EncodeTo(&w);
    return backend()->Put(slices_ns_, key(), EntryKey(slice, seq), w.buffer());
  }

  /// \brief Appends `payload` to `slice`: one Get and two Puts, no read of
  /// other slices. Returns the slice's meta after the append (count 1: the
  /// slice is new).
  Result<Meta> Append(uint64_t slice, const Value& payload) {
    EVO_ASSIGN_OR_RETURN(auto meta, GetMeta(slice));
    Meta next = meta.value_or(Meta{});
    EVO_RETURN_IF_ERROR(PutEntry(slice, next.count, payload));
    ++next.count;
    EVO_RETURN_IF_ERROR(PutMeta(slice, next));
    return next;
  }

  /// \brief The current key's non-empty slices, in slice order.
  Result<std::vector<std::pair<uint64_t, Meta>>> Slices() const {
    std::vector<std::pair<uint64_t, Meta>> out;
    Status inner = Status::OK();
    EVO_RETURN_IF_ERROR(backend()->IterateKey(
        meta_ns_, key(), [&](std::string_view uk, std::string_view value) {
          if (!inner.ok()) return;
          auto meta = DecodeMeta(value);
          if (!meta.ok()) {
            inner = meta.status();
            return;
          }
          out.emplace_back(state::StateKey::ReadU64BE(uk), meta.value());
        }));
    EVO_RETURN_IF_ERROR(inner);
    return out;
  }

  /// \brief Visits the payloads of the slices in [from, to) with their
  /// slice: slice order, then arrival order. One IterateKey over the key's
  /// entries.
  Status ForEach(uint64_t from, uint64_t to,
                 const std::function<void(uint64_t slice, Value&& payload)>&
                     fn) const {
    Status inner = Status::OK();
    EVO_RETURN_IF_ERROR(backend()->IterateKey(
        slices_ns_, key(), [&](std::string_view uk, std::string_view value) {
          const uint64_t slice = state::StateKey::ReadU64BE(uk);
          if (!inner.ok() || slice < from || slice >= to) return;
          BinaryReader r(value);
          Value v;
          inner = Value::DecodeFrom(&r, &v);
          if (inner.ok()) fn(slice, std::move(v));
        }));
    return inner;
  }

  /// \brief Payloads of the slices in [from, to), in ForEach's order.
  Result<std::vector<Value>> Read(uint64_t from, uint64_t to) const {
    std::vector<Value> out;
    EVO_RETURN_IF_ERROR(ForEach(
        from, to, [&](uint64_t, Value&& v) { out.push_back(std::move(v)); }));
    return out;
  }

  /// \brief Deletes a slice's `count` entries and its meta.
  Status Remove(uint64_t slice, uint64_t count) {
    for (uint64_t seq = 0; seq < count; ++seq) {
      EVO_RETURN_IF_ERROR(
          backend()->Remove(slices_ns_, key(), EntryKey(slice, seq)));
    }
    return backend()->Remove(meta_ns_, key(), MetaKey(slice));
  }

  /// \brief Re-keys slice `from`'s records as records `base`, `base + 1`,
  /// ... of slice `to`, and deletes `from` (session merges; the caller
  /// writes `to`'s meta).
  Status Move(uint64_t from, uint64_t to, uint64_t base) {
    EVO_ASSIGN_OR_RETURN(auto values, Read(from, from + 1));
    for (uint64_t i = 0; i < values.size(); ++i) {
      EVO_RETURN_IF_ERROR(PutEntry(to, base + i, values[i]));
    }
    return Remove(from, values.size());
  }

 private:
  static std::string MetaKey(uint64_t slice) {
    std::string k;
    state::StateKey::AppendU64BE(&k, slice);
    return k;
  }
  static std::string EntryKey(uint64_t slice, uint64_t seq) {
    std::string k;
    k.reserve(16);
    state::StateKey::AppendU64BE(&k, slice);
    state::StateKey::AppendU64BE(&k, seq);
    return k;
  }
  static Result<Meta> DecodeMeta(std::string_view raw) {
    BinaryReader r(raw);
    Meta meta;
    uint64_t end = 0;
    EVO_RETURN_IF_ERROR(r.ReadVarU64(&meta.count));
    EVO_RETURN_IF_ERROR(r.ReadVarU64(&end));
    meta.end = static_cast<TimeMs>(end);
    return meta;
  }

  state::KeyedStateBackend* backend() const { return ctx_->backend(); }
  uint64_t key() const { return ctx_->current_key(); }

  state::StateContext* ctx_;
  state::StateNamespace slices_ns_;
  state::StateNamespace meta_ns_;
};

}  // namespace evo::op
