// Cross-module integration tests: the CQL operator inside a parallel
// pipeline, async I/O with ordered/unordered completions, at-least-once vs
// exactly-once recovery semantics, windowed join under checkpoint recovery,
// and a serde robustness sweep (corrupted inputs must fail cleanly, never
// crash).

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "dataflow/job.h"
#include "dataflow/topology.h"
#include "operators/async_io.h"
#include "operators/event_time_sorter.h"
#include "operators/join.h"
#include "operators/window.h"
#include "sql/cql_operator.h"

namespace evo {
namespace {

// ---------------------------------------------------------------------------
// CQL inside the engine
// ---------------------------------------------------------------------------

TEST(CqlIntegrationTest, ContinuousQueryRunsInPipeline) {
  // Trades stream -> CQL grouped average over a row window -> sink.
  sql::Schema schema{{"symbol", ValueType::kString},
                     {"price", ValueType::kDouble},
                     {"volume", ValueType::kInt}};
  dataflow::ReplayableLog log;
  Rng rng(5);
  const char* kSymbols[] = {"AAA", "BBB"};
  for (int i = 0; i < 1000; ++i) {
    log.Append(i, Value::Tuple(kSymbols[i % 2],
                               100.0 + rng.NextDouble() * 10,
                               int64_t{1 + static_cast<int64_t>(
                                           rng.NextBounded(100))}));
  }

  dataflow::Topology topo;
  auto src = topo.AddSource("trades", [&log] {
    return std::make_unique<dataflow::LogSource>(&log);
  });
  auto cql = topo.AddOperator(
      "cql",
      sql::CqlOperator::Make(
          "ISTREAM SELECT symbol, AVG(price) FROM trades [ROWS 100] "
          "WHERE volume > 10 GROUP BY symbol",
          schema));
  ASSERT_TRUE(topo.Connect(src, cql, dataflow::Partitioning::kForward).ok());
  dataflow::CollectingSink sink;
  topo.Sink(cql, "sink", sink.AsSinkFn());

  dataflow::JobRunner runner(topo, dataflow::JobConfig{});
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.AwaitCompletion(30000).ok());
  runner.Stop();

  auto results = sink.Snapshot();
  ASSERT_GT(results.size(), 100u);  // IStream emits on every change
  for (const Record& r : results) {
    const auto& row = r.payload.AsList();
    ASSERT_EQ(row.size(), 2u);
    EXPECT_TRUE(row[0].AsString() == "AAA" || row[0].AsString() == "BBB");
    EXPECT_GT(row[1].AsDouble(), 99.0);
    EXPECT_LT(row[1].AsDouble(), 111.0);
  }
}

// ---------------------------------------------------------------------------
// Async I/O
// ---------------------------------------------------------------------------

dataflow::Topology AsyncTopology(const dataflow::ReplayableLog* log,
                                 op::AsyncOrder order,
                                 dataflow::CollectingSink* sink) {
  dataflow::Topology topo;
  auto src = topo.AddSource("src", [log] {
    return std::make_unique<dataflow::LogSource>(log);
  });
  auto async = topo.AddOperator("enrich", [order] {
    return std::make_unique<op::AsyncIoOperator>(
        [](const Record& r) -> Result<Value> {
          // Simulated external lookup with jittered latency.
          int64_t id = r.payload.AsInt();
          std::this_thread::sleep_for(std::chrono::microseconds(
              (id % 7) * 100));
          return Value::Tuple(id, "meta" + std::to_string(id));
        },
        /*capacity=*/16, order);
  });
  EVO_CHECK_OK(topo.Connect(src, async, dataflow::Partitioning::kForward));
  topo.Sink(async, "sink", sink->AsSinkFn());
  return topo;
}

TEST(AsyncIoTest, OrderedModePreservesArrivalOrder) {
  dataflow::ReplayableLog log;
  for (int i = 0; i < 300; ++i) log.Append(i, Value(int64_t{i}));
  dataflow::CollectingSink sink;
  dataflow::Topology topo = AsyncTopology(&log, op::AsyncOrder::kOrdered, &sink);
  dataflow::JobRunner runner(topo, dataflow::JobConfig{});
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.AwaitCompletion(60000).ok());
  runner.Stop();

  auto results = sink.Snapshot();
  ASSERT_EQ(results.size(), 300u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].payload.AsList()[0].AsInt(),
              static_cast<int64_t>(i));
  }
}

TEST(AsyncIoTest, UnorderedModeCompletesAllDespiteReordering) {
  dataflow::ReplayableLog log;
  for (int i = 0; i < 300; ++i) log.Append(i, Value(int64_t{i}));
  dataflow::CollectingSink sink;
  dataflow::Topology topo =
      AsyncTopology(&log, op::AsyncOrder::kUnordered, &sink);
  dataflow::JobRunner runner(topo, dataflow::JobConfig{});
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.AwaitCompletion(60000).ok());
  runner.Stop();

  auto results = sink.Snapshot();
  ASSERT_EQ(results.size(), 300u);
  std::set<int64_t> ids;
  for (const Record& r : results) ids.insert(r.payload.AsList()[0].AsInt());
  EXPECT_EQ(ids.size(), 300u);  // nothing lost, nothing duplicated
}

// ---------------------------------------------------------------------------
// Event-time sorter
// ---------------------------------------------------------------------------

TEST(EventTimeSorterTest, WatermarkDrivenOrderWithLateSideOutput) {
  // Disordered source (bounded by the watermark delay): downstream of the
  // sorter, records arrive in perfect timestamp order.
  dataflow::ReplayableLog log;
  Rng rng(9);
  TimeMs ts = 0;
  std::vector<TimeMs> timestamps;
  for (int i = 0; i < 3000; ++i) {
    ts += 1 + rng.NextBounded(2);
    timestamps.push_back(ts);
  }
  // Shuffle locally within a displacement of ~8 positions.
  for (size_t i = 0; i + 8 < timestamps.size(); i += 8) {
    std::swap(timestamps[i], timestamps[i + 7]);
  }
  for (TimeMs t : timestamps) log.Append(t, Value(static_cast<int64_t>(t)));

  dataflow::Topology topo;
  auto src = topo.AddSource("src", [&log] {
    dataflow::LogSourceOptions options;
    options.watermark_every = 20;
    options.watermark_delay_ms = 40;  // covers the injected displacement
    return std::make_unique<dataflow::LogSource>(&log, options);
  });
  auto sorter = topo.AddOperator("sorter", [] {
    return std::make_unique<op::EventTimeSorter>();
  });
  ASSERT_TRUE(topo.Connect(src, sorter, dataflow::Partitioning::kForward).ok());
  dataflow::CollectingSink sink;
  topo.Sink(sorter, "sink", sink.AsSinkFn());

  std::atomic<int> late{0};
  dataflow::JobConfig config;
  config.side_output_handler = [&](const std::string& tag, const Record&) {
    if (tag == "late") ++late;
  };
  dataflow::JobRunner runner(topo, config);
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.AwaitCompletion(30000).ok());
  runner.Stop();

  auto out = sink.Snapshot();
  EXPECT_EQ(out.size() + late.load(), 3000u);
  EXPECT_EQ(late.load(), 0);  // the bound covered the disorder
  for (size_t i = 1; i < out.size(); ++i) {
    ASSERT_GE(out[i].event_time, out[i - 1].event_time) << i;
  }
}

// ---------------------------------------------------------------------------
// At-least-once vs exactly-once recovery semantics
// ---------------------------------------------------------------------------

dataflow::Topology GuaranteeTopology(const dataflow::ReplayableLog* log,
                                     bool end_at_eof,
                                     dataflow::CollectingSink* sink) {
  dataflow::Topology topo;
  auto src = topo.AddSource("src", [log, end_at_eof] {
    dataflow::LogSourceOptions options;
    options.end_at_eof = end_at_eof;
    return std::make_unique<dataflow::LogSource>(log, options);
  });
  auto keyed = topo.KeyBy(src, "key", [](const Value& v) {
    return v.AsList()[0];
  });
  auto count = topo.AddOperator("count", [] {
    dataflow::ProcessOperator::Hooks hooks;
    hooks.on_record = [](dataflow::OperatorContext* ctx, Record& r,
                         dataflow::Collector* out) {
      state::ValueState<int64_t> c(ctx->state(), "c");
      int64_t next = c.GetOr(0).ValueOr(0) + 1;
      (void)c.Put(next);
      out->Emit(Record(r.event_time, r.key,
                       Value::Tuple(r.payload.AsList()[0], next)));
      return Status::OK();
    };
    return std::make_unique<dataflow::ProcessOperator>(hooks);
  }, 3);
  EVO_CHECK_OK(topo.Connect(keyed, count, dataflow::Partitioning::kHash));
  topo.Sink(count, "sink", sink->AsSinkFn());
  return topo;
}

std::map<std::string, int64_t> MaxCounts(const std::vector<Record>& records) {
  std::map<std::string, int64_t> counts;
  for (const Record& r : records) {
    const auto& l = r.payload.AsList();
    auto [it, inserted] = counts.emplace(l[0].AsString(), l[1].AsInt());
    if (!inserted) it->second = std::max(it->second, l[1].AsInt());
  }
  return counts;
}

TEST(GuaranteeTest, AtLeastOnceNeverLosesButMayOvercount) {
  dataflow::ReplayableLog log;
  Rng rng(17);
  std::map<std::string, int64_t> exact;
  for (int i = 0; i < 60000; ++i) {
    std::string k = "k" + std::to_string(rng.NextBounded(29));
    ++exact[k];
    log.Append(i, Value::Tuple(k, int64_t{1}));
  }

  dataflow::CollectingSink sink1;
  dataflow::Topology topo1 = GuaranteeTopology(&log, false, &sink1);
  dataflow::JobConfig config;
  config.checkpoint_mode = CheckpointMode::kUnaligned;  // at-least-once
  dataflow::JobRunner runner1(topo1, config);
  ASSERT_TRUE(runner1.Start().ok());
  auto snapshot = runner1.TriggerCheckpoint(15000);
  ASSERT_TRUE(snapshot.ok());
  runner1.Stop();

  dataflow::CollectingSink sink2;
  dataflow::Topology topo2 = GuaranteeTopology(&log, true, &sink2);
  dataflow::JobRunner runner2(topo2, config);
  ASSERT_TRUE(runner2.Start(&*snapshot).ok());
  ASSERT_TRUE(runner2.AwaitCompletion(60000).ok());
  runner2.Stop();

  // At-least-once: every key's final count must be >= exact (replay may
  // double-apply records in flight at snapshot time), and the total
  // overcount is bounded by what was in flight.
  auto finals = MaxCounts(sink2.Snapshot());
  int64_t overcount = 0;
  for (const auto& [k, v] : exact) {
    ASSERT_GE(finals[k], v) << k;  // never loses
    overcount += finals[k] - v;
  }
  // (Usually small; zero when alignment happened to be clean.)
  EXPECT_LE(overcount, 60000);
}

// ---------------------------------------------------------------------------
// Serde robustness: corrupted bytes fail cleanly
// ---------------------------------------------------------------------------

TEST(SerdeRobustnessTest, RandomCorruptionNeverCrashesValueDecode) {
  Rng rng(23);
  // Start from valid encodings and flip random bytes.
  for (int trial = 0; trial < 2000; ++trial) {
    Value original = Value::Tuple(
        "key" + std::to_string(trial), static_cast<int64_t>(trial),
        rng.NextDouble(), Value::Tuple(true, "nested"));
    BinaryWriter w;
    original.EncodeTo(&w);
    std::string bytes = w.buffer();
    size_t flips = 1 + rng.NextBounded(4);
    for (size_t i = 0; i < flips; ++i) {
      bytes[rng.NextBounded(bytes.size())] ^=
          static_cast<char>(1 + rng.NextBounded(255));
    }
    BinaryReader r(bytes);
    Value out;
    // Must either succeed (flip hit a value byte benignly) or return a
    // clean error — never crash or hang.
    (void)Value::DecodeFrom(&r, &out);
  }
  SUCCEED();
}

TEST(SerdeRobustnessTest, TruncatedValuesFailCleanly) {
  const Value value =
      Value::Tuple("payload", int64_t{1}, Value::Tuple(2.5, true), Value());
  BinaryWriter w;
  value.EncodeTo(&w);
  const std::string& full = w.buffer();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    BinaryReader r(std::string_view(full).substr(0, cut));
    Value out;
    Status st = Value::DecodeFrom(&r, &out);
    EXPECT_FALSE(st.ok()) << "cut=" << cut;
    EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  }
}

// ---------------------------------------------------------------------------
// Windowed join survives checkpoint recovery
// ---------------------------------------------------------------------------

TEST(JoinRecoveryTest, WindowBuffersRestoredFromSnapshot) {
  // The crash-run below must checkpoint *before* any window fires, no matter
  // how the threads interleave — otherwise pre-checkpoint windows emit only
  // into the pre-crash sink and the recovered run can never match the
  // reference. To make that deterministic the logs initially hold only
  // events inside the first window [0, 500): the highest watermark either
  // source can reach stays below 499, so the earliest window timer cannot
  // fire while the checkpoint lands. The rest of the stream is appended
  // after the simulated crash.
  auto left_value = [](int i) {
    return Value::Tuple("u" + std::to_string(i % 8), int64_t{i});
  };
  auto right_value = [](int i) {
    return Value::Tuple("u" + std::to_string(i % 8), int64_t{1000 + i});
  };
  dataflow::ReplayableLog left_log, right_log;
  for (int i = 0; i < 50; ++i) left_log.Append(i * 10, left_value(i));
  for (int i = 0; i < 10; ++i) right_log.Append(i * 50, right_value(i));

  auto make = [&](bool end_at_eof, dataflow::CollectingSink* sink) {
    dataflow::Topology topo;
    auto left = topo.AddSource("left", [&left_log, end_at_eof] {
      dataflow::LogSourceOptions options;
      options.watermark_every = 16;
      options.end_at_eof = end_at_eof;
      return std::make_unique<dataflow::LogSource>(&left_log, options);
    });
    auto right = topo.AddSource("right", [&right_log, end_at_eof] {
      dataflow::LogSourceOptions options;
      options.watermark_every = 16;
      options.end_at_eof = end_at_eof;
      return std::make_unique<dataflow::LogSource>(&right_log, options);
    });
    auto lkey = topo.KeyBy(left, "lk", [](const Value& v) {
      return v.AsList()[0];
    });
    auto rkey = topo.KeyBy(right, "rk", [](const Value& v) {
      return v.AsList()[0];
    });
    auto join = topo.AddOperator("join", [] {
      return std::make_unique<op::WindowJoinOperator>(
          500, [](const Value& l, const Value& r) {
            return Value::Tuple(l.AsList()[0], l.AsList()[1], r.AsList()[1]);
          });
    }, 2);
    EVO_CHECK_OK(topo.Connect(lkey, join, dataflow::Partitioning::kHash));
    EVO_CHECK_OK(topo.Connect(rkey, join, dataflow::Partitioning::kHash));
    topo.Sink(join, "sink", sink->AsSinkFn());
    return topo;
  };

  // Run 1: ingest the first-window prefix, checkpoint (the join buffers are
  // MapState and become part of the snapshot), then crash before anything
  // was emitted.
  dataflow::CollectingSink sink1, sink2;
  dataflow::JobSnapshot snapshot;
  {
    dataflow::Topology topo = make(false, &sink1);
    dataflow::JobRunner runner(topo, dataflow::JobConfig{});
    ASSERT_TRUE(runner.Start().ok());
    auto result = runner.TriggerCheckpoint(15000);
    ASSERT_TRUE(result.ok());
    snapshot = *result;
    ASSERT_TRUE(runner.InjectFailure("join", 0).ok());
    runner.Stop();
    ASSERT_EQ(sink1.Count(), 0u) << "a window fired before the checkpoint";
  }

  // The rest of the stream arrives while the job is down; replayable
  // sources pick it up after their restored offsets.
  for (int i = 50; i < 2000; ++i) left_log.Append(i * 10, left_value(i));
  for (int i = 10; i < 400; ++i) right_log.Append(i * 50, right_value(i));

  // Run 2: recover from the snapshot and drain the whole stream.
  {
    dataflow::Topology topo2 = make(true, &sink2);
    dataflow::JobRunner runner2(topo2, dataflow::JobConfig{});
    ASSERT_TRUE(runner2.Start(&snapshot).ok());
    ASSERT_TRUE(runner2.AwaitCompletion(60000).ok());
    runner2.Stop();
  }

  // Reference run: the same (now complete) logs without any failure.
  dataflow::CollectingSink reference;
  {
    dataflow::Topology topo = make(true, &reference);
    dataflow::JobRunner runner(topo, dataflow::JobConfig{});
    ASSERT_TRUE(runner.Start().ok());
    ASSERT_TRUE(runner.AwaitCompletion(60000).ok());
    runner.Stop();
  }

  // Join results after recovery match the reference run as a multiset
  // (window buffers — MapState — were part of the snapshot).
  auto key_of = [](const Record& r) {
    const auto& l = r.payload.AsList();
    return l[0].AsString() + "/" + std::to_string(l[1].AsInt()) + "/" +
           std::to_string(l[2].AsInt());
  };
  std::multiset<std::string> want, got;
  for (const Record& r : reference.Snapshot()) want.insert(key_of(r));
  for (const Record& r : sink2.Snapshot()) got.insert(key_of(r));
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace evo
