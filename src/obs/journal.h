#pragma once

/// \file journal.h
/// \brief Structured event journal: a bounded, monotonically-sequenced
/// in-memory ring of typed control-plane lifecycle events, with an optional
/// JSONL file sink.
///
/// The journal is the durable-enough record of *what the runtime decided*:
/// job start/stop, checkpoint triggered/completed/failed, watermark stalls,
/// backpressure transitions per channel, shed-planner decisions, elasticity
/// rescale verdicts, task failures, and (via the logging hook) WARN/ERROR
/// log lines. Consumers read it through EventJournal::Since (the HTTP
/// `/events?since=<seq>` endpoint) or tail the JSONL file.
///
/// Concurrency: one mutex guards the ring. Emit assigns the sequence
/// number, writes the JSONL line and stores the event under it, so sequence
/// order, ring order and file order are the same, and a reader that pages
/// with the last sequence it saw as its cursor sees every retained event
/// exactly once. The traffic is a few events per second, so the lock is
/// uncontended. The ring keeps the most recent `capacity` events; older
/// ones are overwritten (Since reports how many were dropped before the
/// requested cursor).

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"

namespace evo::obs {

/// \brief Typed control-plane event kinds.
enum class EventType : uint8_t {
  kJobStart = 0,
  kJobStop,
  kCheckpointTriggered,
  kCheckpointCompleted,
  kCheckpointFailed,
  kBackpressureOn,
  kBackpressureOff,
  kShedDecision,
  kRescaleVerdict,
  kTaskFailed,
  kStatePublished,
  kStateRevoked,
  kFaultInjected,
  kLog,
};

const char* EventTypeName(EventType type);

/// \brief One key/value attachment on an event. Numeric fields render as
/// bare JSON numbers; string fields are escaped.
struct EventField {
  std::string key;
  std::string value;
  bool numeric = false;
};

EventField F(std::string key, std::string value);
EventField F(std::string key, const char* value);
EventField F(std::string key, int64_t value);
EventField F(std::string key, uint64_t value);
EventField F(std::string key, double value);

/// \brief One journal entry.
struct Event {
  uint64_t seq = 0;   ///< assigned by the journal; strictly increasing from 1
  TimeMs ts_ms = 0;   ///< wall-clock (journal clock) at emission
  EventType type = EventType::kLog;
  std::string scope;    ///< "job", "task:windows[1]", "channel:a->b[0->1]", ...
  std::string message;  ///< human-readable one-liner
  std::vector<EventField> fields;

  /// One JSON object, single line (JSONL-compatible).
  std::string ToJson() const;
};

/// \brief Configuration for EventJournal (namespace scope so `= {}` default
/// arguments work across compilers).
struct JournalOptions {
  /// Most recent events retained.
  size_t capacity = 4096;
  /// When non-empty, every event is also appended to this JSONL file.
  std::string jsonl_path;
  Clock* clock = SystemClock::Instance();
};

/// \brief Bounded event ring under one lock + optional JSONL file sink.
class EventJournal {
 public:
  using Options = JournalOptions;

  explicit EventJournal(Options options = {});
  ~EventJournal();

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// \brief Appends one event; thread-safe. Returns the assigned sequence.
  uint64_t Emit(EventType type, std::string scope, std::string message,
                std::vector<EventField> fields = {});

  /// \brief Events with seq > since_seq, ascending; at most `limit` when
  /// limit > 0. Events already overwritten by the ring are silently absent
  /// (use DroppedBefore to detect the gap).
  std::vector<Event> Since(uint64_t since_seq, size_t limit = 0) const;

  /// \brief Total events ever emitted (== the latest sequence number).
  uint64_t TotalEmitted() const;

  /// \brief Smallest sequence still retained in the ring (0 when empty).
  uint64_t OldestRetained() const;

  /// \brief Events overwritten before `since_seq + 1` — the reader's gap when
  /// paging with a stale cursor.
  uint64_t DroppedBefore(uint64_t since_seq) const;

  /// \brief JSON for the `/events` endpoint:
  /// {"next_since":N,"dropped":D,"events":[...]}. `next_since` is the cursor
  /// for the follow-up request.
  std::string ToJson(uint64_t since_seq = 0, size_t limit = 0) const;

  /// \brief Routes WARN/ERROR (configurable) log lines into this journal as
  /// kLog events via the process-wide hook in common/logging.h. The hook is
  /// removed on destruction (or by RemoveLogHook) — only one journal can hold
  /// it at a time; installing steals it.
  void InstallLogHook(LogLevel min_level = LogLevel::kWarn);
  void RemoveLogHook();

 private:
  uint64_t OldestRetainedLocked() const;
  std::vector<Event> SinceLocked(uint64_t since_seq, size_t limit) const;

  Options options_;
  mutable std::mutex mu_;
  std::vector<Event> ring_;  ///< event `seq` lives at (seq - 1) % capacity
  uint64_t last_seq_ = 0;    ///< latest sequence assigned; guarded by mu_
  std::FILE* jsonl_file_ = nullptr;
  bool log_hook_installed_ = false;
};

}  // namespace evo::obs
