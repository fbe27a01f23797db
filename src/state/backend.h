#pragma once

/// \file backend.h
/// \brief The keyed state backend abstraction (§3.1): partitioned state that
/// the system — not the programmer — owns, snapshots, restores, and migrates.
///
/// State is addressed by (namespace, key, user_key):
///   - namespace: one per declared state ("counts", "window-buffers", ...)
///   - key:       the record key hash set by keyBy; determines the key group
///   - user_key:  sub-addressing within a key (map entries, list indices)
///
/// The key group is derived from the key (hash % max_parallelism). Snapshots
/// are taken per key-group range, in one wire format (SnapshotEncoder) that
/// every backend shares whatever its storage layout. That is what makes
/// rescaling and state migration possible without splitting any key's state
/// (Flink-style).

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/hash.h"
#include "common/metrics.h"
#include "common/serde.h"
#include "common/status.h"

namespace evo::state {

/// \brief Identifies a declared piece of state within an operator.
using StateNamespace = uint32_t;

/// \brief Big-endian fixed-width user keys: the encoding sorts numerically
/// in the byte order every backend visits user keys in (list indices, window
/// starts, join timestamps).
struct StateKey {
  static void AppendU64BE(std::string* out, uint64_t v) {
    for (int i = 7; i >= 0; --i) {
      out->push_back(static_cast<char>(v >> (8 * i)));
    }
  }
  /// Reads the big-endian u64 at byte `off` of `s`.
  static uint64_t ReadU64BE(std::string_view s, size_t off = 0) {
    uint64_t v = 0;
    for (size_t i = 0; i < 8; ++i) {
      v = (v << 8) | static_cast<unsigned char>(s[off + i]);
    }
    return v;
  }
};

/// \brief Abstract partitioned state store.
class KeyedStateBackend {
 public:
  explicit KeyedStateBackend(
      uint32_t max_parallelism = KeyGroup::kDefaultMaxParallelism)
      : max_parallelism_(max_parallelism) {}
  virtual ~KeyedStateBackend() = default;

  virtual Status Put(StateNamespace ns, uint64_t key, std::string_view user_key,
                     std::string_view value) = 0;
  virtual Result<std::optional<std::string>> Get(StateNamespace ns, uint64_t key,
                                                 std::string_view user_key) = 0;
  virtual Status Remove(StateNamespace ns, uint64_t key,
                        std::string_view user_key) = 0;

  /// \brief Visits all (user_key, value) entries under (ns, key) in user_key
  /// order.
  virtual Status IterateKey(
      StateNamespace ns, uint64_t key,
      const std::function<void(std::string_view user_key,
                               std::string_view value)>& fn) = 0;

  /// \brief Visits every entry in a namespace (all keys), in key order. Used
  /// by full-state operations (queryable state scans, broadcast state).
  virtual Status IterateNamespace(
      StateNamespace ns,
      const std::function<void(uint64_t key, std::string_view user_key,
                               std::string_view value)>& fn) = 0;

  /// \brief Serializes all state for key groups in [from, to) — the unit of
  /// checkpointing and migration — in the wire format of SnapshotEncoder.
  virtual Result<std::string> SnapshotKeyGroups(uint32_t from, uint32_t to) = 0;

  /// \brief A snapshot of key groups [from, to) fixed at the moment it was
  /// pinned and serialized in bounded steps, so that a task can go on
  /// writing state between steps: the asynchronous half of a checkpoint.
  class PendingSnapshot {
   public:
    virtual ~PendingSnapshot() = default;
    /// \brief Serializes about `max_entries` more entries; true once the
    /// snapshot is complete. An error leaves the snapshot unusable.
    virtual Result<bool> Advance(size_t max_entries) = 0;
    /// \brief The snapshot in SnapshotKeyGroups' wire format, byte for byte;
    /// call once, after Advance returned true.
    virtual std::string Take() = 0;
  };

  /// \brief Pins the state of key groups [from, to) as it is now; writes
  /// made afterwards are not part of the snapshot. The default serializes
  /// at once (SnapshotKeyGroups) and is complete before the first Advance;
  /// a backend that can hold a consistent view cheaply overrides it.
  virtual std::unique_ptr<PendingSnapshot> PinKeyGroups(uint32_t from,
                                                        uint32_t to) {
    return std::make_unique<ReadySnapshot>(SnapshotKeyGroups(from, to));
  }

  /// \brief Merges a snapshot produced by SnapshotKeyGroups (from any backend
  /// implementation) into this backend.
  virtual Status RestoreSnapshot(std::string_view snapshot) {
    return ForEachSnapshotEntry(snapshot, [this](auto ns, auto key, auto uk,
                                                 auto value) {
      return Put(ns, key, uk, value);
    });
  }

  /// \brief Drops all state for key groups in [from, to); used after
  /// migrating those groups away.
  virtual Status DropKeyGroups(uint32_t from, uint32_t to) {
    EVO_ASSIGN_OR_RETURN(std::string doomed, SnapshotKeyGroups(from, to));
    return ForEachSnapshotEntry(doomed, [this](auto ns, auto key, auto uk,
                                               auto /*value*/) {
      return Remove(ns, key, uk);
    });
  }

  virtual Status Clear() { return DropKeyGroups(0, max_parallelism_); }
  virtual uint64_t ApproxEntryCount() const = 0;

  /// \brief Attaches EvoScope instruments. `scope` labels every series this
  /// backend emits (the runtime passes "vertex.subtask"). The base resolves
  /// an approximate entry-count gauge; implementations add their own
  /// instruments (latency histograms, flush/compaction counters, ...).
  virtual void AttachMetrics(MetricsRegistry* registry,
                             const std::string& scope) {
    if (registry == nullptr) return;
    gauge_entries_ =
        registry->GetGauge("state_entries{scope=\"" + scope + "\"}");
  }

  /// \brief Pushes poll-style internal statistics into attached instruments.
  /// Called from the reporter's pre-collect hook; a no-op when detached.
  virtual void PublishMetrics() {
    if (gauge_entries_ != nullptr) {
      gauge_entries_->Set(static_cast<double>(ApproxEntryCount()));
    }
  }

  uint32_t max_parallelism() const { return max_parallelism_; }
  uint32_t KeyGroupOf(uint64_t key) const {
    return KeyGroup::OfHash(key, max_parallelism_);
  }

  /// \brief Full snapshot (all key groups).
  Result<std::string> SnapshotAll() {
    return SnapshotKeyGroups(0, max_parallelism_);
  }

 protected:
  /// \brief Builds a snapshot in the shared wire format,
  /// u64 count | (u32 ns, u64 key, bytes user_key, bytes value)*,
  /// in a single buffer.
  class SnapshotEncoder {
   public:
    SnapshotEncoder() { w_.WriteU64(0); }  // the count, set by Finish

    void Add(StateNamespace ns, uint64_t key, std::string_view user_key,
             std::string_view value) {
      w_.WriteU32(ns);
      w_.WriteU64(key);
      w_.WriteBytes(user_key);
      w_.WriteBytes(value);
      ++count_;
    }

    std::string Finish() {
      std::string out = w_.Take();
      std::memcpy(out.data(), &count_, sizeof(count_));  // as WriteU64 does
      return out;
    }

   private:
    BinaryWriter w_;
    uint64_t count_ = 0;
  };

  /// \brief A snapshot serialized before it was handed out.
  class ReadySnapshot final : public PendingSnapshot {
   public:
    explicit ReadySnapshot(Result<std::string> snapshot)
        : snapshot_(std::move(snapshot)) {}
    Result<bool> Advance(size_t /*max_entries*/) override {
      if (!snapshot_.ok()) return snapshot_.status();
      return true;
    }
    std::string Take() override { return std::move(*snapshot_); }

   private:
    Result<std::string> snapshot_;
  };

  /// \brief Calls `fn(ns, key, user_key, value)` for each entry of a
  /// snapshot, stopping at the first error.
  template <typename Fn>
  static Status ForEachSnapshotEntry(std::string_view snapshot, Fn&& fn) {
    BinaryReader r(snapshot);
    uint64_t count = 0;
    EVO_RETURN_IF_ERROR(r.ReadU64(&count));
    for (uint64_t i = 0; i < count; ++i) {
      uint32_t ns = 0;
      uint64_t key = 0;
      std::string_view user_key, value;
      EVO_RETURN_IF_ERROR(r.ReadU32(&ns));
      EVO_RETURN_IF_ERROR(r.ReadU64(&key));
      EVO_RETURN_IF_ERROR(r.ReadBytes(&user_key));
      EVO_RETURN_IF_ERROR(r.ReadBytes(&value));
      EVO_RETURN_IF_ERROR(fn(ns, key, user_key, value));
    }
    return Status::OK();
  }

  uint32_t max_parallelism_;
  Gauge* gauge_entries_ = nullptr;  // null until AttachMetrics
};

}  // namespace evo::state
