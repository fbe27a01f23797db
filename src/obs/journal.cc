#include "obs/journal.h"

#include <algorithm>

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
  options_.stripes = std::max<size_t>(options_.stripes, 1);
  options_.capacity = std::max<size_t>(options_.capacity, options_.stripes);
  per_stripe_ = options_.capacity / options_.stripes;
  stripes_.reserve(options_.stripes);
  for (size_t i = 0; i < options_.stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
    stripes_.back()->ring.reserve(per_stripe_);
  }
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
  e.seq = next_seq_.fetch_add(1, std::memory_order_acq_rel) + 1;
  e.ts_ms = options_.clock->NowMs();
  e.type = type;
  e.scope = std::move(scope);
  e.message = std::move(message);
  e.fields = std::move(fields);

  if (jsonl_file_ != nullptr) {
    std::string line = e.ToJson();
    std::lock_guard<std::mutex> lock(file_mu_);
    std::fwrite(line.data(), 1, line.size(), jsonl_file_);
    std::fputc('\n', jsonl_file_);
    std::fflush(jsonl_file_);
  }

  Stripe& stripe = *stripes_[(e.seq - 1) % stripes_.size()];
  uint64_t slot = ((e.seq - 1) / stripes_.size()) % per_stripe_;
  uint64_t seq = e.seq;
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    if (stripe.ring.size() <= slot) {
      stripe.ring.resize(slot + 1);
    }
    // A writer delayed a full ring-lap behind could otherwise clobber the
    // newer occupant of its slot.
    if (stripe.ring[slot].seq < e.seq) stripe.ring[slot] = std::move(e);
  }
  return seq;
}

std::vector<Event> EventJournal::Since(uint64_t since_seq, size_t limit) const {
  std::vector<Event> out;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    for (const Event& e : stripe->ring) {
      if (e.seq > since_seq) out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  if (limit > 0 && out.size() > limit) out.resize(limit);
  return out;
}

uint64_t EventJournal::OldestRetained() const {
  uint64_t total = TotalEmitted();
  if (total == 0) return 0;
  uint64_t oldest = UINT64_MAX;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    for (const Event& e : stripe->ring) {
      if (e.seq != 0) oldest = std::min(oldest, e.seq);
    }
  }
  return oldest == UINT64_MAX ? 0 : oldest;
}

uint64_t EventJournal::DroppedBefore(uint64_t since_seq) const {
  uint64_t oldest = OldestRetained();
  if (oldest == 0) return 0;  // nothing retained, nothing measurably dropped
  // Events in (since_seq, oldest) were emitted but already overwritten.
  if (oldest <= since_seq + 1) return 0;
  return oldest - since_seq - 1;
}

std::string EventJournal::ToJson(uint64_t since_seq, size_t limit) const {
  std::vector<Event> events = Since(since_seq, limit);
  uint64_t next_since = since_seq;
  for (const Event& e : events) next_since = std::max(next_since, e.seq);
  if (events.empty()) next_since = TotalEmitted();
  std::string out = "{\"next_since\": " + std::to_string(next_since) +
                    ", \"dropped\": " + std::to_string(DroppedBefore(since_seq)) +
                    ", \"total_emitted\": " + std::to_string(TotalEmitted()) +
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
