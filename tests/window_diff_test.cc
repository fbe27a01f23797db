// Differential test of WindowOperator: seeded random disordered streams run
// through the operator and through a brute-force reference model, and the
// two must agree on the multiset of fired windows (key, start, end, sorted
// contents) and on the late side output.
//
// The operator is driven directly and single-threaded, as a task would:
// MemBackend + StateContext + TimerService, a collecting Collector, and
// watermarks that fire due event-time timers before OnWatermark. Each stream
// runs three ways:
//   - plain: one subtask from start to end;
//   - restored: two subtasks, snapshotted mid-stream (SnapshotKeyGroups +
//     TimerService::EncodeTo) and restored into two fresh operators;
//   - rescaled: the same snapshots split across three fresh operators, each
//     dropping the key groups it does not own (DropKeyGroups,
//     TimerService::Filter).
//
// Replay one seed: window_diff_test --gtest_filter='*/<seed>'.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "common/rng.h"
#include "dataflow/operator.h"
#include "operators/window.h"
#include "state/mem_backend.h"
#include "time/timer_service.h"

namespace evo::op {
namespace {

// Few key groups, so the 2 -> 3 split moves keys between subtasks.
constexpr uint32_t kMaxParallelism = 8;
constexpr int kRecords = 500;
constexpr int kKeys = 7;

enum class Kind { kTumbling, kSliding, kSession, kGlobalCount };

struct Config {
  const char* name;
  Kind kind;
  int64_t size;  // window size, or the session gap
  int64_t slide;
  int64_t lateness;
  uint64_t count_n = 0;  // CountTrigger period (global windows)
  bool purge = false;
};

const Config kConfigs[] = {
    {"tumbling", Kind::kTumbling, 100, 100, 0},
    {"tumbling_late", Kind::kTumbling, 100, 100, 50},
    {"sliding", Kind::kSliding, 100, 25, 0},
    {"sliding_100_30_late", Kind::kSliding, 100, 30, 40},
    {"session", Kind::kSession, 40, 0, 0},
    {"session_late", Kind::kSession, 40, 0, 30},
    {"global_count_purge", Kind::kGlobalCount, 0, 0, 0, 5, true},
    {"global_count", Kind::kGlobalCount, 0, 0, 0, 4, false},
};

struct Event {
  bool watermark = false;
  TimeMs ts = 0;  // event time, or the watermark
  uint64_t key = 0;
  int64_t id = 0;
};

// One fired window; ids sorted so contents order does not matter.
using Fired = std::tuple<uint64_t, TimeMs, TimeMs, std::vector<int64_t>>;

struct Outcome {
  std::multiset<Fired> fired;
  std::multiset<int64_t> late;
  uint64_t leftover = 0;  // state entries + timers after the stream ends
};

// A disordered stream: mostly within 30 ms of the frontier, 5% up to 400 ms
// behind it; a bounded-disorder watermark (frontier - 20 ms) every few
// records; a final MAX watermark, as an ended input sends.
std::vector<Event> MakeStream(uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> keys;
  for (int k = 0; k < kKeys; ++k) keys.push_back(rng.NextU64());
  std::vector<Event> events;
  TimeMs frontier = 0, wm = kMinWatermark;
  int next_wm = 1;
  for (int i = 0; i < kRecords; ++i) {
    frontier += rng.NextInt(0, 4);
    const int64_t behind =
        rng.NextBool(0.05) ? rng.NextInt(0, 400) : rng.NextInt(0, 30);
    Event e;
    e.ts = std::max<TimeMs>(0, frontier - behind);
    // Skewed keys: key 0 takes about a third of the records.
    e.key = keys[rng.NextBool(0.33) ? 0 : rng.NextBounded(kKeys)];
    e.id = i;
    events.push_back(e);
    if (--next_wm == 0) {
      next_wm = static_cast<int>(rng.NextInt(1, 12));
      if (frontier - 20 > wm) {
        wm = frontier - 20;
        events.push_back(Event{true, wm});
      }
    }
  }
  events.push_back(Event{true, kMaxWatermark});
  return events;
}

// --- Reference model --------------------------------------------------------

bool IsLate(const Config& c, TimeMs ts, TimeMs wm) {
  return wm != kMinWatermark && ts + c.lateness <= wm;
}

Outcome Reference(const Config& c, const std::vector<Event>& events) {
  Outcome out;
  TimeMs wm = kMinWatermark;
  // Fixed windows: every window holding an accepted record fires once.
  std::map<std::tuple<uint64_t, TimeMs, TimeMs>, std::vector<int64_t>> fixed;
  // Sessions: open sessions per key as (start, end, ids).
  struct Session {
    TimeMs start, end;
    std::vector<int64_t> ids;
  };
  std::map<uint64_t, std::vector<Session>> sessions;
  // Global windows: ids since the last purge, in arrival order.
  std::map<uint64_t, std::vector<int64_t>> global;

  auto fire = [&](uint64_t key, TimeMs start, TimeMs end,
                  std::vector<int64_t> ids) {
    std::sort(ids.begin(), ids.end());
    out.fired.insert(Fired{key, start, end, std::move(ids)});
  };

  for (const Event& e : events) {
    if (e.watermark) {
      wm = e.ts;
      for (auto& [key, list] : sessions) {
        for (auto it = list.begin(); it != list.end();) {
          if (it->end - 1 + c.lateness <= wm) {
            fire(key, it->start, it->end, it->ids);
            it = list.erase(it);
          } else {
            ++it;
          }
        }
      }
      continue;
    }
    if (IsLate(c, e.ts, wm)) {
      out.late.insert(e.id);
      continue;
    }
    switch (c.kind) {
      case Kind::kTumbling:
      case Kind::kSliding:
        for (TimeMs s = 0; s <= e.ts; s += c.slide) {
          if (s + c.size > e.ts) {
            fixed[{e.key, s, s + c.size}].push_back(e.id);
          }
        }
        break;
      case Kind::kSession: {
        Session merged{e.ts, e.ts + c.size, {e.id}};
        auto& list = sessions[e.key];
        for (auto it = list.begin(); it != list.end();) {
          if (it->end >= merged.start && it->start <= merged.end) {
            merged.start = std::min(merged.start, it->start);
            merged.end = std::max(merged.end, it->end);
            merged.ids.insert(merged.ids.end(), it->ids.begin(),
                              it->ids.end());
            it = list.erase(it);
          } else {
            ++it;
          }
        }
        list.push_back(std::move(merged));
        break;
      }
      case Kind::kGlobalCount: {
        auto& ids = global[e.key];
        ids.push_back(e.id);
        if (ids.size() % c.count_n == 0) {
          fire(e.key, 0, kMaxWatermark, ids);
          if (c.purge) ids.clear();
        }
        break;
      }
    }
  }
  for (auto& [w, ids] : fixed) {
    fire(std::get<0>(w), std::get<1>(w), std::get<2>(w), ids);
  }
  return out;
}

// --- The operator under test --------------------------------------------------

std::unique_ptr<WindowOperator> MakeOperator(const Config& c) {
  std::shared_ptr<WindowAssigner> assigner;
  std::shared_ptr<Trigger> trigger;
  switch (c.kind) {
    case Kind::kTumbling:
      assigner = std::make_shared<TumblingWindows>(c.size);
      break;
    case Kind::kSliding:
      assigner = std::make_shared<SlidingWindows>(c.size, c.slide);
      break;
    case Kind::kSession:
      assigner = std::make_shared<SessionWindows>(c.size);
      break;
    case Kind::kGlobalCount:
      assigner = std::make_shared<GlobalWindows>();
      trigger = std::make_shared<CountTrigger>(
          c.count_n, /*also_on_event_time=*/false, c.purge);
      break;
  }
  WindowOperatorOptions options;
  options.allowed_lateness_ms = c.lateness;
  // The result is the window's contents, so the test sees exactly what the
  // window function was handed.
  auto fn = [](uint64_t, const Window&, const std::vector<Value>& contents) {
    return Value(ValueList(contents));
  };
  return std::make_unique<WindowOperator>(assigner, fn, trigger, options);
}

class OutcomeCollector final : public dataflow::Collector {
 public:
  explicit OutcomeCollector(Outcome* out) : out_(out) {}
  void Emit(Record record) override {
    const ValueList& f = record.payload.AsList();
    const TimeMs start = f[0].AsInt(), end = f[1].AsInt();
    EXPECT_EQ(record.event_time, end - 1);
    std::vector<int64_t> ids;
    for (const Value& v : f[2].AsList()) ids.push_back(v.AsInt());
    std::sort(ids.begin(), ids.end());
    out_->fired.insert(Fired{record.key, start, end, std::move(ids)});
  }
  void EmitSide(const std::string& tag, Record record) override {
    EXPECT_EQ(tag, "late");
    out_->late.insert(record.payload.AsInt());
  }

 private:
  Outcome* out_;
};

// One parallel instance of the window vertex, hosted as a task hosts it.
class Subtask {
 public:
  Subtask(const Config& c, uint32_t index, uint32_t parallelism)
      : backend_(kMaxParallelism),
        state_(&backend_),
        timers_(&clock_),
        ctx_(&state_, &timers_, nullptr, index, parallelism, &clock_),
        op_(MakeOperator(c)),
        from_(KeyGroup::RangeStart(index, kMaxParallelism, parallelism)),
        to_(KeyGroup::RangeEnd(index, kMaxParallelism, parallelism)) {
    EXPECT_TRUE(op_->Open(&ctx_).ok());
  }

  bool Owns(uint64_t key) const {
    const uint32_t kg = KeyGroup::OfHash(key, kMaxParallelism);
    return kg >= from_ && kg < to_;
  }

  void Process(const Event& e, dataflow::Collector* out) {
    if (e.watermark) {
      Status st = Status::OK();
      timers_.OnWatermark(e.ts, [&](const time::Timer& t) {
        if (!st.ok()) return;
        state_.SetCurrentKey(t.key);
        st = op_->OnTimer(t, out);
      });
      ASSERT_TRUE(st.ok()) << st.ToString();
      ASSERT_TRUE(op_->OnWatermark(e.ts, out).ok());
      return;
    }
    Record r(e.ts, e.key, Value(e.id));
    state_.SetCurrentKey(e.key);
    Status st = op_->ProcessRecord(r, out);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  uint64_t Leftover() {
    return backend_.ApproxEntryCount() + timers_.event_timers().size();
  }

  // A task snapshot's keyed sections: (timers, backend).
  std::pair<std::string, std::string> Snapshot() {
    BinaryWriter w;
    timers_.EncodeTo(&w);
    auto backend = backend_.SnapshotKeyGroups(0, kMaxParallelism);
    EXPECT_TRUE(backend.ok());
    return {w.Take(), backend.value()};
  }

  // Restores the snapshots whose old range overlaps this subtask's, then
  // keeps only its own key groups when the parallelism changed.
  void Restore(const std::vector<std::pair<std::string, std::string>>& snaps,
               bool rescaled) {
    const auto old_p = static_cast<uint32_t>(snaps.size());
    bool merged_any = false;
    for (uint32_t i = 0; i < old_p; ++i) {
      if (KeyGroup::RangeStart(i, kMaxParallelism, old_p) >= to_ ||
          KeyGroup::RangeEnd(i, kMaxParallelism, old_p) <= from_) {
        continue;
      }
      BinaryReader r(snaps[i].first);
      ASSERT_TRUE(timers_.DecodeFrom(&r, merged_any).ok());
      ASSERT_TRUE(backend_.RestoreSnapshot(snaps[i].second).ok());
      merged_any = true;
    }
    if (!rescaled) return;
    ASSERT_TRUE(backend_.DropKeyGroups(0, from_).ok());
    ASSERT_TRUE(backend_.DropKeyGroups(to_, kMaxParallelism).ok());
    timers_.Filter([&](const time::Timer& t) { return Owns(t.key); });
  }

 private:
  ManualClock clock_;
  state::MemBackend backend_;
  state::StateContext state_;
  time::TimerService timers_;
  dataflow::OperatorContext ctx_;
  std::unique_ptr<WindowOperator> op_;
  uint32_t from_, to_;
};

using Vertex = std::vector<std::unique_ptr<Subtask>>;

Vertex MakeVertex(const Config& c, uint32_t parallelism) {
  Vertex v;
  for (uint32_t i = 0; i < parallelism; ++i) {
    v.push_back(std::make_unique<Subtask>(c, i, parallelism));
  }
  return v;
}

// Records go to the subtask owning their key group; watermarks to all.
void Feed(Vertex& vertex, const std::vector<Event>& events, size_t from,
          size_t to, dataflow::Collector* out) {
  for (size_t i = from; i < to; ++i) {
    for (auto& subtask : vertex) {
      if (events[i].watermark || subtask->Owns(events[i].key)) {
        subtask->Process(events[i], out);
      }
    }
  }
}

// Runs the stream on `before` subtasks up to `cut`, restores into `after`
// fresh subtasks, and runs the rest (after == 0: no restore).
Outcome RunOperator(const Config& c, const std::vector<Event>& events,
                    uint32_t before, uint32_t after, size_t cut) {
  Outcome out;
  OutcomeCollector collector(&out);
  Vertex vertex = MakeVertex(c, before);
  if (after == 0) {
    Feed(vertex, events, 0, events.size(), &collector);
  } else {
    Feed(vertex, events, 0, cut, &collector);
    std::vector<std::pair<std::string, std::string>> snaps;
    for (auto& subtask : vertex) snaps.push_back(subtask->Snapshot());
    vertex = MakeVertex(c, after);
    for (auto& subtask : vertex) subtask->Restore(snaps, before != after);
    Feed(vertex, events, cut, events.size(), &collector);
  }
  for (auto& subtask : vertex) out.leftover += subtask->Leftover();
  return out;
}

std::string Describe(const Outcome& o) {
  std::string s = std::to_string(o.fired.size()) + " windows:";
  for (const auto& [key, start, end, ids] : o.fired) {
    s += " (" + std::to_string(key % 1000) + "," + std::to_string(start) +
         "," + std::to_string(end) + ",n=" + std::to_string(ids.size()) + ")";
  }
  s += "; " + std::to_string(o.late.size()) + " late";
  return s;
}

class WindowDiffTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WindowDiffTest, OperatorMatchesReference) {
  const uint64_t seed = GetParam();
  const std::vector<Event> events = MakeStream(seed);
  Rng rng(seed ^ 0x5eed);
  for (const Config& c : kConfigs) {
    SCOPED_TRACE(c.name);
    const Outcome want = Reference(c, events);
    ASSERT_FALSE(want.fired.empty());
    const size_t cut = static_cast<size_t>(
        rng.NextInt(static_cast<int64_t>(events.size() / 3),
                    static_cast<int64_t>(2 * events.size() / 3)));
    const struct {
      const char* mode;
      uint32_t before, after;
    } runs[] = {{"plain", 1, 0}, {"restored 2->2", 2, 2},
                {"rescaled 2->3", 2, 3}};
    for (const auto& run : runs) {
      SCOPED_TRACE(run.mode);
      const Outcome got = RunOperator(c, events, run.before, run.after, cut);
      EXPECT_TRUE(got.fired == want.fired)
          << "got  " << Describe(got) << "\nwant " << Describe(want);
      EXPECT_EQ(got.late, want.late);
      // Once the MAX watermark fired every window, event-time windows leave
      // no state and no timer behind (global windows keep their contents).
      if (c.kind != Kind::kGlobalCount) {
        EXPECT_EQ(got.leftover, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowDiffTest,
                         ::testing::Values(1, 2, 3, 7, 11, 99, 1234, 2024,
                                           424242),
                         [](const auto& info) {
                           return std::to_string(info.param);
                         });

}  // namespace
}  // namespace evo::op
