// Tests for the operators module: sliding-window aggregation algorithms
// (property: every algorithm agrees with the naive baseline across a
// parameter sweep), window assigners, the WindowOperator end-to-end through
// the dataflow engine (tumbling/sliding/session/count/late-data), the
// WindowOperator's slice store and timers driven directly, joins, and the
// vectorized kernels.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "dataflow/job.h"
#include "dataflow/topology.h"
#include "operators/aggregators.h"
#include "operators/join.h"
#include "operators/sliding_algorithms.h"
#include "operators/vectorized.h"
#include "operators/window.h"
#include "state/mem_backend.h"
#include "time/timer_service.h"

namespace evo::op {
namespace {

// ---------------------------------------------------------------------------
// Sliding algorithms: agreement sweep
// ---------------------------------------------------------------------------

using WindowResults = std::map<std::pair<TimeMs, TimeMs>, double>;

template <typename Algo>
WindowResults RunAlgo(int64_t size, int64_t slide,
                      const std::vector<std::pair<TimeMs, double>>& events) {
  Algo algo(size, slide);
  WindowResults results;
  auto emit = [&](TimeMs s, TimeMs e, double v) { results[{s, e}] = v; };
  for (const auto& [ts, v] : events) algo.Add(ts, v, emit);
  algo.Flush(emit);
  return results;
}

std::vector<std::pair<TimeMs, double>> MakeEvents(int n, TimeMs span,
                                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<TimeMs, double>> events;
  events.reserve(n);
  TimeMs ts = 0;
  for (int i = 0; i < n; ++i) {
    ts += rng.NextBounded(static_cast<uint64_t>(span) / n * 2 + 1);
    events.emplace_back(ts, rng.NextDouble() * 100 - 50);
  }
  return events;
}

void ExpectResultsNear(const WindowResults& got, const WindowResults& want,
                       const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (const auto& [window, value] : want) {
    auto it = got.find(window);
    ASSERT_NE(it, got.end())
        << label << " missing window [" << window.first << ","
        << window.second << ")";
    EXPECT_NEAR(it->second, value, 1e-6)
        << label << " window [" << window.first << "," << window.second << ")";
  }
}

class SlidingSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(SlidingSweep, AllAlgorithmsAgreeOnSum) {
  auto [size, slide] = GetParam();
  auto events = MakeEvents(2000, 10000, size * 1000 + slide);
  auto naive = RunAlgo<NaiveSlidingAgg<SumAggregator>>(size, slide, events);
  ExpectResultsNear(
      RunAlgo<SubtractOnEvictAgg<SumAggregator>>(size, slide, events), naive,
      "subtract-on-evict");
  ExpectResultsNear(
      RunAlgo<TwoStacksSlidingAgg<SumAggregator>>(size, slide, events), naive,
      "two-stacks");
  ExpectResultsNear(RunAlgo<PaneSlidingAgg<SumAggregator>>(size, slide, events),
                    naive, "panes");
  ExpectResultsNear(
      RunAlgo<FlatFatSlidingAgg<SumAggregator>>(size, slide, events), naive,
      "flatfat");
}

TEST_P(SlidingSweep, NonInvertibleAlgorithmsAgreeOnMax) {
  auto [size, slide] = GetParam();
  auto events = MakeEvents(2000, 10000, size * 7 + slide);
  auto naive = RunAlgo<NaiveSlidingAgg<MaxAggregator>>(size, slide, events);
  ExpectResultsNear(
      RunAlgo<TwoStacksSlidingAgg<MaxAggregator>>(size, slide, events), naive,
      "two-stacks");
  ExpectResultsNear(RunAlgo<PaneSlidingAgg<MaxAggregator>>(size, slide, events),
                    naive, "panes");
  ExpectResultsNear(
      RunAlgo<FlatFatSlidingAgg<MaxAggregator>>(size, slide, events), naive,
      "flatfat");
}

TEST_P(SlidingSweep, AvgAndMinAgree) {
  auto [size, slide] = GetParam();
  auto events = MakeEvents(1000, 8000, size + slide * 13);
  ExpectResultsNear(
      RunAlgo<TwoStacksSlidingAgg<AvgAggregator>>(size, slide, events),
      RunAlgo<NaiveSlidingAgg<AvgAggregator>>(size, slide, events), "avg");
  ExpectResultsNear(
      RunAlgo<FlatFatSlidingAgg<MinAggregator>>(size, slide, events),
      RunAlgo<NaiveSlidingAgg<MinAggregator>>(size, slide, events), "min");
}

INSTANTIATE_TEST_SUITE_P(
    SizeSlideGrid, SlidingSweep,
    ::testing::Values(std::make_tuple(100, 100),   // tumbling
                      std::make_tuple(100, 25),    // 4x overlap
                      std::make_tuple(500, 50),    // 10x overlap
                      std::make_tuple(1000, 100),  // 10x overlap, large
                      std::make_tuple(128, 32),    // power-of-two
                      std::make_tuple(300, 7)),    // non-divisible slide
    [](const auto& info) {
      return "size" + std::to_string(std::get<0>(info.param)) + "_slide" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SlidingAlgoTest, PanesUsesFarFewerSlotsThanNaiveBuffers) {
  auto events = MakeEvents(5000, 50000, 3);
  NaiveSlidingAgg<SumAggregator> naive(1000, 100);
  PaneSlidingAgg<SumAggregator> panes(1000, 100);
  auto ignore = [](TimeMs, TimeMs, double) {};
  size_t naive_peak = 0, panes_peak = 0;
  for (const auto& [ts, v] : events) {
    naive.Add(ts, v, ignore);
    panes.Add(ts, v, ignore);
    naive_peak = std::max(naive_peak, naive.BufferedElements());
    panes_peak = std::max(panes_peak, panes.BufferedElements());
  }
  EXPECT_LT(panes_peak * 5, naive_peak);  // panes buffers per-pane partials
}

// ---------------------------------------------------------------------------
// Window assigners
// ---------------------------------------------------------------------------

TEST(AssignerTest, TumblingAssignsExactlyOne) {
  TumblingWindows assigner(100);
  auto w = assigner.Assign(250);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].start, 200);
  EXPECT_EQ(w[0].end, 300);
  // Boundary: ts at window start belongs to that window.
  auto w2 = assigner.Assign(300);
  EXPECT_EQ(w2[0].start, 300);
}

TEST(AssignerTest, SlidingAssignsOverlapping) {
  SlidingWindows assigner(100, 25);
  auto windows = assigner.Assign(130);
  ASSERT_EQ(windows.size(), 4u);
  for (const Window& w : windows) {
    EXPECT_LE(w.start, 130);
    EXPECT_GT(w.end, 130);
    EXPECT_EQ(w.end - w.start, 100);
    EXPECT_EQ(w.start % 25, 0);
  }
}

TEST(AssignerTest, SessionOpensGapWindow) {
  SessionWindows assigner(500);
  auto w = assigner.Assign(1000);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].start, 1000);
  EXPECT_EQ(w[0].end, 1500);
  EXPECT_TRUE(assigner.IsMerging());
}

// ---------------------------------------------------------------------------
// WindowOperator end-to-end
// ---------------------------------------------------------------------------

struct WindowedRun {
  std::vector<Record> outputs;
  std::vector<Record> late;
};

WindowedRun RunWindowedJob(const dataflow::ReplayableLog& log,
                           std::shared_ptr<WindowAssigner> assigner,
                           WindowFunction fn,
                           std::shared_ptr<Trigger> trigger = nullptr,
                           WindowOperatorOptions options = {},
                           size_t watermark_every = 10) {
  dataflow::Topology topo;
  auto src = topo.AddSource("src", [&log, watermark_every] {
    dataflow::LogSourceOptions source_options;
    source_options.watermark_every = watermark_every;
    return std::make_unique<dataflow::LogSource>(&log, source_options);
  });
  auto keyed = topo.KeyBy(src, "key", [](const Value& v) {
    return v.AsList()[0];
  });
  auto windowed = topo.Keyed(keyed, "window", [=] {
    return std::make_unique<WindowOperator>(assigner, fn, trigger, options);
  }, 2);
  dataflow::CollectingSink sink;
  topo.Sink(windowed, "sink", sink.AsSinkFn());

  WindowedRun run;
  std::mutex late_mu;
  dataflow::JobConfig config;
  config.side_output_handler = [&](const std::string& tag, const Record& r) {
    if (tag == "late") {
      std::lock_guard<std::mutex> lock(late_mu);
      run.late.push_back(r);
    }
  };
  dataflow::JobRunner runner(topo, config);
  EVO_CHECK_OK(runner.Start());
  EVO_CHECK_OK(runner.AwaitCompletion(30000));
  runner.Stop();
  run.outputs = sink.Snapshot();
  return run;
}

TEST(WindowOperatorTest, TumblingEventTimeCounts) {
  dataflow::ReplayableLog log;
  // Keys a/b alternate; 10 records per 100ms window, 5 windows.
  for (int i = 0; i < 500; ++i) {
    log.Append(i, Value::Tuple(i % 2 == 0 ? "a" : "b", int64_t{1}));
  }
  auto run = RunWindowedJob(log, std::make_shared<TumblingWindows>(100),
                            WindowFunctions::Count());
  // 5 windows x 2 keys.
  ASSERT_EQ(run.outputs.size(), 10u);
  for (const Record& r : run.outputs) {
    const auto& l = r.payload.AsList();
    EXPECT_EQ(l[1].AsInt() - l[0].AsInt(), 100);  // window extent
    EXPECT_EQ(l[2].AsInt(), 50);  // 50 of each key per window
  }
}

TEST(WindowOperatorTest, SlidingWindowSums) {
  dataflow::ReplayableLog log;
  for (int i = 0; i < 400; ++i) {
    log.Append(i, Value::Tuple("k", int64_t{1}));
  }
  auto run = RunWindowedJob(log, std::make_shared<SlidingWindows>(100, 50),
                            WindowFunctions::SumField(1));
  // Interior windows hold exactly 100 records each.
  int interior = 0;
  for (const Record& r : run.outputs) {
    const auto& l = r.payload.AsList();
    if (l[0].AsInt() >= 100 && l[1].AsInt() <= 300) {
      EXPECT_DOUBLE_EQ(l[2].AsDouble(), 100.0);
      ++interior;
    }
  }
  EXPECT_GE(interior, 3);
}

TEST(WindowOperatorTest, SessionWindowsMergeAcrossGap) {
  dataflow::ReplayableLog log;
  // Two bursts for one key separated by more than the 100ms gap.
  for (int i = 0; i < 50; ++i) log.Append(i * 2, Value::Tuple("k", int64_t{1}));
  for (int i = 0; i < 30; ++i) {
    log.Append(1000 + i * 2, Value::Tuple("k", int64_t{1}));
  }
  auto run = RunWindowedJob(log, std::make_shared<SessionWindows>(100),
                            WindowFunctions::Count(), nullptr, {}, 5);
  ASSERT_EQ(run.outputs.size(), 2u);
  std::multiset<int64_t> counts;
  for (const Record& r : run.outputs) {
    counts.insert(r.payload.AsList()[2].AsInt());
  }
  EXPECT_EQ(counts, (std::multiset<int64_t>{30, 50}));
}

TEST(WindowOperatorTest, CountTriggerFiresEveryN) {
  dataflow::ReplayableLog log;
  for (int i = 0; i < 100; ++i) log.Append(i, Value::Tuple("k", int64_t{1}));
  auto run = RunWindowedJob(
      log, std::make_shared<GlobalWindows>(), WindowFunctions::Count(),
      std::make_shared<CountTrigger>(25, /*also_on_event_time=*/false,
                                     /*purge_on_fire=*/true));
  ASSERT_EQ(run.outputs.size(), 4u);
  for (const Record& r : run.outputs) {
    EXPECT_EQ(r.payload.AsList()[2].AsInt(), 25);
  }
}

TEST(WindowOperatorTest, LateRecordsGoToSideOutput) {
  dataflow::ReplayableLog log;
  for (int i = 0; i < 200; ++i) log.Append(i, Value::Tuple("k", int64_t{1}));
  // A very late straggler: ts=10 after the stream reached 199.
  log.Append(10, Value::Tuple("k", int64_t{1}));
  auto run = RunWindowedJob(log, std::make_shared<TumblingWindows>(100),
                            WindowFunctions::Count(), nullptr, {}, 5);
  ASSERT_EQ(run.late.size(), 1u);
  EXPECT_EQ(run.late[0].event_time, 10);
  // The closed window result does not include the dropped straggler.
  for (const Record& r : run.outputs) {
    if (r.payload.AsList()[0].AsInt() == 0) {
      EXPECT_EQ(r.payload.AsList()[2].AsInt(), 100);
    }
  }
}

// ---------------------------------------------------------------------------
// Window operators driven directly (no threads): slices, timers, late side
// output
// ---------------------------------------------------------------------------

class CollectingCollector final : public dataflow::Collector {
 public:
  void Emit(Record record) override { out.push_back(std::move(record)); }
  void EmitSide(const std::string& tag, Record record) override {
    side.emplace_back(tag, std::move(record));
  }
  std::vector<Record> out;
  std::vector<std::pair<std::string, Record>> side;
};

// A MemBackend that counts the point reads made through it.
class CountingBackend final : public state::KeyedStateBackend {
 public:
  explicit CountingBackend(state::MemBackend* inner) : inner_(inner) {}

  Status Put(state::StateNamespace ns, uint64_t key, std::string_view uk,
             std::string_view value) override {
    return inner_->Put(ns, key, uk, value);
  }
  Result<std::optional<std::string>> Get(state::StateNamespace ns, uint64_t key,
                                         std::string_view uk) override {
    ++gets;
    return inner_->Get(ns, key, uk);
  }
  Status Remove(state::StateNamespace ns, uint64_t key,
                std::string_view uk) override {
    return inner_->Remove(ns, key, uk);
  }
  Status IterateKey(state::StateNamespace ns, uint64_t key,
                    const std::function<void(std::string_view,
                                             std::string_view)>& fn) override {
    return inner_->IterateKey(ns, key, fn);
  }
  Status IterateNamespace(
      state::StateNamespace ns,
      const std::function<void(uint64_t, std::string_view, std::string_view)>&
          fn) override {
    return inner_->IterateNamespace(ns, fn);
  }
  Result<std::string> SnapshotKeyGroups(uint32_t from, uint32_t to) override {
    return inner_->SnapshotKeyGroups(from, to);
  }
  uint64_t ApproxEntryCount() const override {
    return inner_->ApproxEntryCount();
  }

  uint64_t gets = 0;

 private:
  state::MemBackend* inner_;
};

// Hosts one operator as a task does: keyed backend, timers, and watermarks
// that fire due event-time timers.
struct DirectHarness {
  explicit DirectHarness(std::unique_ptr<dataflow::Operator> o)
      : counting(&backend),
        state(&counting),
        timers(&clock),
        ctx(&state, &timers, nullptr, 0, 1, &clock),
        op(std::move(o)) {}

  Status Open() { return op->Open(&ctx); }
  Status Add(size_t input, TimeMs ts, uint64_t key, Value payload) {
    Record r(ts, key, std::move(payload));
    state.SetCurrentKey(key);
    return op->ProcessRecordFrom(input, r, &out);
  }
  Status Watermark(TimeMs wm) {
    Status st = Status::OK();
    timers.OnWatermark(wm, [&](const time::Timer& t) {
      if (!st.ok()) return;
      state.SetCurrentKey(t.key);
      st = op->OnTimer(t, &out);
    });
    return st;
  }

  ManualClock clock;
  state::MemBackend backend;
  CountingBackend counting;  ///< the operator's view of `backend`
  state::StateContext state;
  time::TimerService timers;
  dataflow::OperatorContext ctx;
  std::unique_ptr<dataflow::Operator> op;
  CollectingCollector out;
};

TEST(WindowOperatorTest, NoOrNegativeEventTimeGoesToLateOutput) {
  // Windows start at 0: kNoTimestamp and negative times are in no window.
  // (Before, kNoTimestamp skipped the lateness check and overflowed in
  // SlidingWindows::Assign, and -1 was truncated into [0, 100).)
  std::vector<std::shared_ptr<WindowAssigner>> assigners = {
      std::make_shared<TumblingWindows>(100),
      std::make_shared<SlidingWindows>(100, 30),
      std::make_shared<SessionWindows>(50)};
  for (const auto& assigner : assigners) {
    DirectHarness h(std::make_unique<WindowOperator>(
        assigner, WindowFunctions::Count()));
    ASSERT_TRUE(h.Open().ok());
    for (TimeMs ts : {kNoTimestamp, TimeMs{-1}, TimeMs{-250}}) {
      ASSERT_TRUE(h.Add(0, ts, 7, Value(int64_t{1})).ok());
    }
    ASSERT_TRUE(h.Add(0, 5, 7, Value(int64_t{1})).ok());
    ASSERT_TRUE(h.Watermark(kMaxWatermark).ok());
    ASSERT_EQ(h.out.side.size(), 3u);
    for (const auto& [tag, r] : h.out.side) {
      EXPECT_EQ(tag, "late");
      EXPECT_LT(r.event_time, 0);
    }
    ASSERT_FALSE(h.out.out.empty());
    for (const Record& r : h.out.out) {
      EXPECT_GE(r.payload.AsList()[0].AsInt(), 0);  // window start
      EXPECT_EQ(r.payload.AsList()[2].AsInt(), 1);  // only the ts=5 record
    }
    EXPECT_EQ(h.backend.ApproxEntryCount(), 0u);
  }
  EXPECT_TRUE(TumblingWindows(100).Assign(-1).empty());
  EXPECT_TRUE(SlidingWindows(100, 30).Assign(kNoTimestamp).empty());

  DirectHarness join(std::make_unique<WindowJoinOperator>(
      100, [](const Value& l, const Value& r) { return Value::Tuple(l, r); }));
  ASSERT_TRUE(join.Open().ok());
  ASSERT_TRUE(join.Add(0, -1, 7, Value("L")).ok());
  ASSERT_TRUE(join.Add(1, kNoTimestamp, 7, Value("R")).ok());
  ASSERT_TRUE(join.Watermark(kMaxWatermark).ok());
  EXPECT_EQ(join.out.side.size(), 2u);
  EXPECT_TRUE(join.out.out.empty());
  EXPECT_EQ(join.backend.ApproxEntryCount(), 0u);
}

TEST(WindowOperatorTest, ContentsInSliceThenArrivalOrder) {
  // Sliding 100/25: panes of 25 ms. Window [0, 100) sees pane [0, 25) in
  // arrival order, then [25, 50), then [50, 75).
  auto ids = [](uint64_t, const Window&, const std::vector<Value>& c) {
    return Value(ValueList(c));
  };
  DirectHarness h(std::make_unique<WindowOperator>(
      std::make_shared<SlidingWindows>(100, 25), ids));
  ASSERT_TRUE(h.Open().ok());
  for (TimeMs ts : {60, 12, 55, 30, 10}) {
    ASSERT_TRUE(h.Add(0, ts, 7, Value(int64_t{ts})).ok());
  }
  ASSERT_TRUE(h.Watermark(99).ok());
  ASSERT_EQ(h.out.out.size(), 1u);
  std::vector<int64_t> got;
  for (const Value& v : h.out.out[0].payload.AsList()[2].AsList()) {
    got.push_back(v.AsInt());
  }
  EXPECT_EQ(got, (std::vector<int64_t>{12, 10, 30, 60, 55}));
}

TEST(WindowOperatorTest, OnePendingTimerPerKeyAndPanesFreedAfterFiring) {
  // Sliding 1000/250: a key's records in 4 panes share one pending timer,
  // at the end of the earliest window; each record is stored once.
  DirectHarness h(std::make_unique<WindowOperator>(
      std::make_shared<SlidingWindows>(1000, 250), WindowFunctions::Count()));
  ASSERT_TRUE(h.Open().ok());
  for (TimeMs ts : {900, 100, 600, 350, 120}) {
    ASSERT_TRUE(h.Add(0, ts, 7, Value(int64_t{1})).ok());
  }
  EXPECT_EQ(h.timers.event_timers().size(), 1u);
  EXPECT_EQ(h.timers.event_timers().NextDeadline(), 999);
  // 5 records + 4 pane metas, not one copy per overlapping window.
  EXPECT_EQ(h.backend.ApproxEntryCount(), 9u);

  // Firing [0, 1000) frees pane [0, 250) and arms [250, 1250).
  ASSERT_TRUE(h.Watermark(999).ok());
  ASSERT_EQ(h.out.out.size(), 1u);
  EXPECT_EQ(h.out.out[0].payload.AsList()[2].AsInt(), 5);
  EXPECT_EQ(h.backend.ApproxEntryCount(), 6u);
  EXPECT_EQ(h.timers.event_timers().size(), 1u);
  EXPECT_EQ(h.timers.event_timers().NextDeadline(), 1249);

  ASSERT_TRUE(h.Watermark(kMaxWatermark).ok());
  std::vector<int64_t> counts;
  for (const Record& r : h.out.out) {
    counts.push_back(r.payload.AsList()[2].AsInt());
  }
  // [0,1000) 5, [250,1250) 3, [500,1500) 2, [750,1750) 1.
  EXPECT_EQ(counts, (std::vector<int64_t>{5, 3, 2, 1}));
  EXPECT_EQ(h.backend.ApproxEntryCount(), 0u);
  EXPECT_TRUE(h.timers.event_timers().empty());
}

TEST(WindowOperatorTest, PurgingTriggerRejectedOnOverlappingWindows) {
  auto purge = std::make_shared<CountTrigger>(3, false, /*purge_on_fire=*/true);
  DirectHarness sliding(std::make_unique<WindowOperator>(
      std::make_shared<SlidingWindows>(100, 50), WindowFunctions::Count(),
      purge));
  EXPECT_EQ(sliding.Open().code(), StatusCode::kInvalidArgument);

  // Tumbling windows do not share panes: purge stays supported.
  DirectHarness tumbling(std::make_unique<WindowOperator>(
      std::make_shared<TumblingWindows>(100), WindowFunctions::Count(),
      purge));
  ASSERT_TRUE(tumbling.Open().ok());
  for (TimeMs ts = 0; ts < 7; ++ts) {
    ASSERT_TRUE(tumbling.Add(0, ts, 7, Value(int64_t{1})).ok());
  }
  ASSERT_EQ(tumbling.out.out.size(), 2u);
  EXPECT_EQ(tumbling.out.out[1].payload.AsList()[2].AsInt(), 3);
  EXPECT_EQ(tumbling.backend.ApproxEntryCount(), 2u);  // 1 record + meta
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

TEST(JoinTest, WindowJoinPairsMatchingKeys) {
  dataflow::ReplayableLog left_log, right_log;
  // Left: (user, amount) purchases; right: (user, city) profile updates.
  for (int i = 0; i < 40; ++i) {
    left_log.Append(i * 10, Value::Tuple("u" + std::to_string(i % 4),
                                         int64_t{i}));
  }
  for (int i = 0; i < 8; ++i) {
    right_log.Append(i * 50, Value::Tuple("u" + std::to_string(i % 4),
                                          "city" + std::to_string(i)));
  }

  dataflow::Topology topo;
  auto left = topo.AddSource("left", [&] {
    dataflow::LogSourceOptions options;
    options.watermark_every = 4;
    return std::make_unique<dataflow::LogSource>(&left_log, options);
  });
  auto right = topo.AddSource("right", [&] {
    dataflow::LogSourceOptions options;
    options.watermark_every = 4;
    return std::make_unique<dataflow::LogSource>(&right_log, options);
  });
  auto lkey = topo.KeyBy(left, "lkey", [](const Value& v) {
    return v.AsList()[0];
  });
  auto rkey = topo.KeyBy(right, "rkey", [](const Value& v) {
    return v.AsList()[0];
  });
  auto join = topo.AddOperator("join", [] {
    return std::make_unique<WindowJoinOperator>(
        200, [](const Value& l, const Value& r) {
          return Value::Tuple(l.AsList()[0], l.AsList()[1], r.AsList()[1]);
        });
  }, 2);
  EVO_CHECK_OK(topo.Connect(lkey, join, dataflow::Partitioning::kHash));
  EVO_CHECK_OK(topo.Connect(rkey, join, dataflow::Partitioning::kHash));
  dataflow::CollectingSink sink;
  topo.Sink(join, "sink", sink.AsSinkFn());

  dataflow::JobRunner runner(topo, dataflow::JobConfig{});
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.AwaitCompletion(30000).ok());
  runner.Stop();

  // Reference join computed directly.
  size_t expected = 0;
  for (int i = 0; i < 40; ++i) {
    for (int j = 0; j < 8; ++j) {
      bool same_key = (i % 4) == (j % 4);
      bool same_window = (i * 10) / 200 == (j * 50) / 200;
      if (same_key && same_window) ++expected;
    }
  }
  EXPECT_EQ(sink.Count(), expected);
  for (const Record& r : sink.Snapshot()) {
    EXPECT_EQ(r.payload.AsList().size(), 3u);
  }
}

TEST(JoinTest, IntervalJoinRespectsBounds) {
  dataflow::ReplayableLog left_log, right_log;
  left_log.Append(100, Value::Tuple("k", "L1"));
  left_log.Append(500, Value::Tuple("k", "L2"));
  right_log.Append(120, Value::Tuple("k", "R1"));   // within [100, 150]
  right_log.Append(180, Value::Tuple("k", "R2"));   // outside L1's +50
  right_log.Append(510, Value::Tuple("k", "R3"));   // within L2's window

  dataflow::Topology topo;
  auto left = topo.AddSource("left", [&] {
    dataflow::LogSourceOptions options;
    options.watermark_every = 1;
    return std::make_unique<dataflow::LogSource>(&left_log, options);
  });
  auto right = topo.AddSource("right", [&] {
    dataflow::LogSourceOptions options;
    options.watermark_every = 1;
    return std::make_unique<dataflow::LogSource>(&right_log, options);
  });
  auto lkey = topo.KeyBy(left, "lkey", [](const Value& v) {
    return v.AsList()[0];
  });
  auto rkey = topo.KeyBy(right, "rkey", [](const Value& v) {
    return v.AsList()[0];
  });
  auto join = topo.AddOperator("ijoin", [] {
    return std::make_unique<IntervalJoinOperator>(
        0, 50, [](const Value& l, const Value& r) {
          return Value::Tuple(l.AsList()[1], r.AsList()[1]);
        });
  });
  EVO_CHECK_OK(topo.Connect(lkey, join, dataflow::Partitioning::kHash));
  EVO_CHECK_OK(topo.Connect(rkey, join, dataflow::Partitioning::kHash));
  dataflow::CollectingSink sink;
  topo.Sink(join, "sink", sink.AsSinkFn());

  dataflow::JobRunner runner(topo, dataflow::JobConfig{});
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.AwaitCompletion(30000).ok());
  runner.Stop();

  std::multiset<std::string> pairs;
  for (const Record& r : sink.Snapshot()) {
    pairs.insert(r.payload.AsList()[0].AsString() + "+" +
                 r.payload.AsList()[1].AsString());
  }
  EXPECT_EQ(pairs, (std::multiset<std::string>{"L1+R1", "L2+R3"}));
}

TEST(JoinTest, IntervalJoinStoresARecordInConstantGets) {
  // Records sharing one key and one event time each cost the same number of
  // point reads: an append, not a probe for a free slot.
  auto pair = [](const Value& l, const Value& r) { return Value::Tuple(l, r); };
  DirectHarness h(std::make_unique<IntervalJoinOperator>(0, 50, pair));
  ASSERT_TRUE(h.Open().ok());
  std::set<uint64_t> gets_per_record;
  for (int i = 0; i < 200; ++i) {
    const uint64_t before = h.counting.gets;
    ASSERT_TRUE(h.Add(i % 2, 100, 7, Value(int64_t{i})).ok());
    gets_per_record.insert(h.counting.gets - before);
  }
  EXPECT_EQ(gets_per_record, (std::set<uint64_t>{1}));
  // Each of the 100 right records paired with every left record before it.
  EXPECT_EQ(h.out.out.size(), 100u * 101u / 2u + 99u * 100u / 2u);
  ASSERT_TRUE(h.Watermark(kMaxWatermark).ok());
  EXPECT_EQ(h.backend.ApproxEntryCount(), 0u);
}

TEST(JoinTest, IntervalJoinSendsNoOrNegativeEventTimeToLateOutput) {
  // No stored time is below 0; kNoTimestamp in `event_time - upper` (right
  // input) or `event_time + lower` with a negative lower (left) overflows.
  auto pair = [](const Value& l, const Value& r) { return Value::Tuple(l, r); };
  DirectHarness h(std::make_unique<IntervalJoinOperator>(-20, 30, pair));
  ASSERT_TRUE(h.Open().ok());
  ASSERT_TRUE(h.Add(0, 5, 7, Value("L")).ok());
  ASSERT_TRUE(h.Add(1, 10, 7, Value("R")).ok());
  for (size_t input : {0, 1}) {
    for (TimeMs ts : {kNoTimestamp, TimeMs{-1}, TimeMs{-25}}) {
      ASSERT_TRUE(h.Add(input, ts, 7, Value("bad")).ok());
    }
  }
  ASSERT_EQ(h.out.side.size(), 6u);
  for (const auto& [tag, r] : h.out.side) {
    EXPECT_EQ(tag, "late");
    EXPECT_LT(r.event_time, 0);
  }
  ASSERT_EQ(h.out.out.size(), 1u);  // only L at 5 with R at 10
  EXPECT_EQ(h.out.out[0].payload, Value::Tuple("L", "R"));
  EXPECT_EQ(h.out.out[0].event_time, 10);
  EXPECT_EQ(h.backend.ApproxEntryCount(), 4u);  // 2 records + 2 slice metas
  ASSERT_TRUE(h.Watermark(kMaxWatermark).ok());
  EXPECT_EQ(h.backend.ApproxEntryCount(), 0u);
  EXPECT_EQ(h.Add(2, 5, 7, Value("third input")).code(),
            StatusCode::kInvalidArgument);
}

TEST(JoinTest, IntervalJoinMatchesAtTheEndOfTime) {
  // The interval and the cleanup time of a record near INT64_MAX stop at
  // INT64_MAX instead of overflowing (UBSan in check.sh reports overflow).
  auto pair = [](const Value& l, const Value& r) { return Value::Tuple(l, r); };
  DirectHarness h(std::make_unique<IntervalJoinOperator>(-20, 30, pair));
  ASSERT_TRUE(h.Open().ok());
  const TimeMs end = std::numeric_limits<TimeMs>::max();
  ASSERT_TRUE(h.Add(0, end - 10, 7, Value("L")).ok());
  ASSERT_TRUE(h.Add(1, end - 5, 7, Value("R")).ok());
  ASSERT_TRUE(h.Add(1, end, 7, Value("R2")).ok());
  ASSERT_EQ(h.out.out.size(), 2u);
  EXPECT_EQ(h.out.out[0].payload, Value::Tuple("L", "R"));
  EXPECT_EQ(h.out.out[1].payload, Value::Tuple("L", "R2"));
  EXPECT_EQ(h.out.out[1].event_time, end);
  // Every record's cleanup falls past the end of time: one timer, at it.
  EXPECT_EQ(h.timers.event_timers().size(), 1u);
  EXPECT_EQ(h.timers.event_timers().NextDeadline(), end);
}

// Gathers what an operator emits when a test drives it directly.
class VectorCollector final : public dataflow::Collector {
 public:
  void Emit(Record record) override { records.push_back(std::move(record)); }
  void EmitSide(const std::string&, Record) override {}
  std::vector<Record> records;
};

// One operator instance with its own keyed state and timers, wired the way a
// task wires it, so a test can checkpoint and restore it deterministically.
struct OperatorInstance {
  explicit OperatorInstance(std::unique_ptr<dataflow::Operator> op_in)
      : op(std::move(op_in)),
        state(&backend),
        ctx(&state, &timers, nullptr, 0, 1, SystemClock::Instance()) {
    EVO_CHECK_OK(op->Open(&ctx));
  }

  // The three sections a task snapshot holds: operator, timers, backend.
  std::vector<std::string> Snapshot() {
    BinaryWriter custom, timer_bytes;
    EVO_CHECK_OK(op->SnapshotState(&custom));
    timers.EncodeTo(&timer_bytes);
    auto keyed = backend.SnapshotAll();
    EVO_CHECK_OK(keyed.status());
    return {custom.Take(), timer_bytes.Take(), std::move(*keyed)};
  }

  void Restore(const std::vector<std::string>& snapshot) {
    BinaryReader custom(snapshot[0]), timer_bytes(snapshot[1]);
    EVO_CHECK_OK(op->RestoreState(&custom));
    EVO_CHECK_OK(timers.DecodeFrom(&timer_bytes));
    EVO_CHECK_OK(backend.RestoreSnapshot(snapshot[2]));
  }

  Status Process(size_t input, Record record) {
    state.SetCurrentKey(record.key);
    return op->ProcessRecordFrom(input, record, &out);
  }

  state::MemBackend backend;
  time::TimerService timers;
  std::unique_ptr<dataflow::Operator> op;
  state::StateContext state;
  dataflow::OperatorContext ctx;
  VectorCollector out;
};

TEST(JoinTest, IntervalJoinKeepsBufferedRecordAcrossRestore) {
  auto make = [] {
    return std::make_unique<IntervalJoinOperator>(
        0, 50, [](const Value& l, const Value& r) {
          return Value::Tuple(l.AsList()[1], r.AsList()[1]);
        });
  };
  const uint64_t key = Value("k").Hash();
  OperatorInstance before(make());
  ASSERT_TRUE(
      before.Process(0, Record(100, key, Value::Tuple("k", "L1"))).ok());
  const std::vector<std::string> checkpoint = before.Snapshot();

  OperatorInstance after(make());
  after.Restore(checkpoint);
  // Same key and timestamp as the restored left record.
  ASSERT_TRUE(after.Process(0, Record(100, key, Value::Tuple("k", "L2"))).ok());
  ASSERT_TRUE(after.Process(1, Record(120, key, Value::Tuple("k", "R"))).ok());

  std::multiset<std::string> pairs;
  for (const Record& r : after.out.records) {
    pairs.insert(r.payload.AsList()[0].AsString() + "+" +
                 r.payload.AsList()[1].AsString());
  }
  EXPECT_EQ(pairs, (std::multiset<std::string>{"L1+R", "L2+R"}));
}

// ---------------------------------------------------------------------------
// Vectorized kernels
// ---------------------------------------------------------------------------

TEST(VectorizedTest, KernelsMatchScalar) {
  Rng rng(17);
  ColumnBatch batch;
  batch.Reserve(10000);
  TimeMs ts = 0;
  for (int i = 0; i < 10000; ++i) {
    ts += rng.NextBounded(3);
    batch.Append(ts, rng.NextDouble() * 200 - 100);
  }
  EXPECT_NEAR(VectorKernels::Sum(batch), ScalarKernels::Sum(batch), 1e-6);
  EXPECT_DOUBLE_EQ(VectorKernels::Max(batch), ScalarKernels::Max(batch));
  auto scalar_windows = ScalarKernels::WindowSums(batch, 100);
  auto vector_windows = VectorKernels::WindowSums(batch, 100);
  ASSERT_EQ(scalar_windows.size(), vector_windows.size());
  for (size_t i = 0; i < scalar_windows.size(); ++i) {
    EXPECT_NEAR(scalar_windows[i], vector_windows[i], 1e-6);
  }
}

TEST(VectorizedTest, AcceleratorModelHasCrossover) {
  AcceleratorModel accel;
  // Tiny batches are dominated by dispatch; huge batches by throughput.
  int64_t tiny = accel.BatchNanos(1);
  int64_t huge = accel.BatchNanos(1000000);
  EXPECT_GT(tiny, 9000);                      // dispatch floor
  EXPECT_GT(huge, 5 * tiny);                  // scales with n
  double tiny_per_elem = static_cast<double>(tiny) / 1.0;
  double huge_per_elem = static_cast<double>(huge) / 1e6;
  EXPECT_GT(tiny_per_elem, 100 * huge_per_elem);  // batching amortizes
}

}  // namespace
}  // namespace evo::op
