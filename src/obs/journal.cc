#include "obs/journal.h"

#include <algorithm>
#include <atomic>

#include "obs/exporters.h"

namespace evo::obs {

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kJobStart: return "job_start";
    case EventType::kJobStop: return "job_stop";
    case EventType::kCheckpointTriggered: return "checkpoint_triggered";
    case EventType::kCheckpointCompleted: return "checkpoint_completed";
    case EventType::kCheckpointFailed: return "checkpoint_failed";
    case EventType::kBackpressureOn: return "backpressure_on";
    case EventType::kBackpressureOff: return "backpressure_off";
    case EventType::kShedDecision: return "shed_decision";
    case EventType::kRescaleVerdict: return "rescale_verdict";
    case EventType::kTaskFailed: return "task_failed";
    case EventType::kStatePublished: return "state_published";
    case EventType::kStateRevoked: return "state_revoked";
    case EventType::kFaultInjected: return "fault_injected";
    case EventType::kLog: return "log";
  }
  return "unknown";
}

EventField F(std::string key, std::string value) {
  return EventField{std::move(key), std::move(value), /*numeric=*/false};
}
EventField F(std::string key, const char* value) {
  return EventField{std::move(key), value, /*numeric=*/false};
}
EventField F(std::string key, int64_t value) {
  return EventField{std::move(key), std::to_string(value), /*numeric=*/true};
}
EventField F(std::string key, uint64_t value) {
  return EventField{std::move(key), std::to_string(value), /*numeric=*/true};
}
EventField F(std::string key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return EventField{std::move(key), buf, /*numeric=*/true};
}

std::string Event::ToJson() const {
  std::string out = "{\"seq\": " + std::to_string(seq) +
                    ", \"ts_ms\": " + std::to_string(ts_ms) + ", \"type\": \"" +
                    EventTypeName(type) + "\", \"scope\": \"" +
                    JsonEscape(scope) + "\", \"message\": \"" +
                    JsonEscape(message) + "\"";
  for (const EventField& f : fields) {
    out += ", \"" + JsonEscape(f.key) + "\": ";
    if (f.numeric) {
      out += f.value.empty() ? "0" : f.value;
    } else {
      out += "\"" + JsonEscape(f.value) + "\"";
    }
  }
  out += "}";
  return out;
}

EventJournal::EventJournal(Options options) : options_(options) {
  options_.capacity = std::max<size_t>(options_.capacity, 1);
  ring_.reserve(options_.capacity);
  if (!options_.jsonl_path.empty()) {
    jsonl_file_ = std::fopen(options_.jsonl_path.c_str(), "a");
    if (jsonl_file_ == nullptr) {
      EVO_LOG_WARN << "journal: cannot open JSONL sink "
                   << options_.jsonl_path;
    }
  }
}

EventJournal::~EventJournal() {
  RemoveLogHook();
  if (jsonl_file_ != nullptr) std::fclose(jsonl_file_);
}

uint64_t EventJournal::Emit(EventType type, std::string scope,
                            std::string message,
                            std::vector<EventField> fields) {
  Event e;
  e.type = type;
  e.scope = std::move(scope);
  e.message = std::move(message);
  e.fields = std::move(fields);

  std::lock_guard<std::mutex> lock(mu_);
  e.seq = ++last_seq_;
  e.ts_ms = options_.clock->NowMs();
  if (jsonl_file_ != nullptr) {
    std::string line = e.ToJson();
    std::fwrite(line.data(), 1, line.size(), jsonl_file_);
    std::fputc('\n', jsonl_file_);
    std::fflush(jsonl_file_);
  }
  if (ring_.size() < options_.capacity) {
    ring_.push_back(std::move(e));
  } else {
    ring_[(last_seq_ - 1) % options_.capacity] = std::move(e);
  }
  return last_seq_;
}

std::vector<Event> EventJournal::SinceLocked(uint64_t since_seq,
                                             size_t limit) const {
  std::vector<Event> out;
  uint64_t first = std::max(since_seq + 1, OldestRetainedLocked());
  if (first > last_seq_) return out;
  uint64_t n = last_seq_ - first + 1;
  if (limit > 0) n = std::min<uint64_t>(n, limit);
  out.reserve(n);
  for (uint64_t seq = first; seq < first + n; ++seq) {
    out.push_back(ring_[(seq - 1) % options_.capacity]);
  }
  return out;
}

std::vector<Event> EventJournal::Since(uint64_t since_seq, size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  return SinceLocked(since_seq, limit);
}

uint64_t EventJournal::TotalEmitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_seq_;
}

uint64_t EventJournal::OldestRetainedLocked() const {
  if (last_seq_ == 0) return 0;
  return last_seq_ > ring_.size() ? last_seq_ - ring_.size() + 1 : 1;
}

uint64_t EventJournal::OldestRetained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return OldestRetainedLocked();
}

namespace {
/// Events in (since_seq, oldest) were emitted but already overwritten; an
/// empty ring (oldest 0) has dropped nothing measurable.
uint64_t Gap(uint64_t oldest, uint64_t since_seq) {
  return oldest > since_seq + 1 ? oldest - since_seq - 1 : 0;
}
}  // namespace

uint64_t EventJournal::DroppedBefore(uint64_t since_seq) const {
  return Gap(OldestRetained(), since_seq);
}

std::string EventJournal::ToJson(uint64_t since_seq, size_t limit) const {
  std::vector<Event> events;
  uint64_t total = 0;
  uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events = SinceLocked(since_seq, limit);
    total = last_seq_;
    dropped = Gap(OldestRetainedLocked(), since_seq);
  }
  uint64_t next_since = events.empty() ? total : events.back().seq;
  std::string out = "{\"next_since\": " + std::to_string(next_since) +
                    ", \"dropped\": " + std::to_string(dropped) +
                    ", \"total_emitted\": " + std::to_string(total) +
                    ", \"events\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    out += i == 0 ? "\n  " : ",\n  ";
    out += events[i].ToJson();
  }
  out += events.empty() ? "]}\n" : "\n]}\n";
  return out;
}

namespace {
/// Token of the hook installed by InstallLogHook, for targeted removal.
std::atomic<uint64_t> g_journal_hook_token{0};
}  // namespace

void EventJournal::InstallLogHook(LogLevel min_level) {
  EventJournal* self = this;
  uint64_t token = SetLogHook(
      [self, min_level](LogLevel level, const char* file, int line,
                        const std::string& msg) {
        if (static_cast<int>(level) < static_cast<int>(min_level)) return;
        const char* names[] = {"DEBUG", "INFO", "WARN", "ERROR"};
        self->Emit(EventType::kLog, "log", msg,
                   {F("level", names[static_cast<int>(level)]), F("file", file),
                    F("line", static_cast<int64_t>(line))});
      });
  g_journal_hook_token.store(token, std::memory_order_release);
  log_hook_installed_ = true;
}

void EventJournal::RemoveLogHook() {
  if (!log_hook_installed_) return;
  ClearLogHook(g_journal_hook_token.load(std::memory_order_acquire));
  log_hook_installed_ = false;
}

}  // namespace evo::obs
