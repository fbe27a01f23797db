// EvoScope telemetry tests: metric naming, Prometheus/JSON exposition,
// histogram quantile interpolation under the striped shards, reporter
// lifecycle, watermark-lag probing on a fake clock, span tracing, and the
// end-to-end latency-marker path through a running job.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "dataflow/job.h"
#include "dataflow/topology.h"
#include "obs/bench_artifact.h"
#include "obs/exporters.h"
#include "obs/reporter.h"
#include "obs/tracing.h"
#include "operators/window.h"
#include "state/env.h"
#include "state/lsm_backend.h"
#include "state/mem_backend.h"
#include "state/state_api.h"
#include "time/watermarks.h"

namespace evo {
namespace {

// ---------------------------------------------------------------------------
// Metric naming
// ---------------------------------------------------------------------------

TEST(MetricNameTest, BuildsLabelledSeries) {
  EXPECT_EQ(obs::MetricName("requests_total", {}), "requests_total");
  EXPECT_EQ(obs::MetricName("requests_total", {{"code", "200"}}),
            "requests_total{code=\"200\"}");
  EXPECT_EQ(obs::MetricName("x", {{"a", "1"}, {"b", "2"}}),
            "x{a=\"1\",b=\"2\"}");
}

TEST(MetricNameTest, EscapesLabelValues) {
  std::string name = obs::MetricName("x", {{"v", "a\"b\\c\nd"}});
  EXPECT_EQ(name, "x{v=\"a\\\"b\\\\c\\nd\"}");
}

TEST(MetricNameTest, TaskMetricNameCarriesVertexAndSubtask) {
  std::string name = obs::TaskMetricName("task_records_in", "join", 3);
  EXPECT_NE(name.find("task_records_in{"), std::string::npos);
  EXPECT_NE(name.find("subtask=\"3\""), std::string::npos);
  EXPECT_NE(name.find("vertex=\"join\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Histogram: striped recording + quantile interpolation
// ---------------------------------------------------------------------------

TEST(HistogramTest, QuantilesInterpolateWithinBuckets) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i);
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_DOUBLE_EQ(h.Sum(), 5050.0);
  // Log2 buckets are coarse; interpolation should land near the true
  // quantiles rather than on bucket upper bounds.
  EXPECT_NEAR(h.Quantile(0.5), 50.0, 15.0);
  EXPECT_NEAR(h.Quantile(0.99), 99.0, 10.0);
  // Extremes clamp to observed min/max exactly.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 100.0);
}

TEST(HistogramTest, SnapshotAggregatesAcrossThreads) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Record(7.0);
    });
  }
  for (auto& th : threads) th.join();
  Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.min, 7.0);
  EXPECT_DOUBLE_EQ(snap.max, 7.0);
  EXPECT_DOUBLE_EQ(snap.p50, 7.0);
  EXPECT_DOUBLE_EQ(snap.p99, 7.0);
}

// ---------------------------------------------------------------------------
// Exposition formats
// ---------------------------------------------------------------------------

TEST(ExpositionTest, PrometheusTextRendersAllKinds) {
  MetricsRegistry registry;
  registry.GetCounter("events_total{vertex=\"src\"}")->Inc(42);
  registry.GetGauge("queue_depth")->Set(17);
  Histogram* h = registry.GetHistogram("latency_ms");
  for (int i = 1; i <= 10; ++i) h->Record(i);

  std::string text = obs::ToPrometheusText(registry);
  EXPECT_NE(text.find("# TYPE events_total counter"), std::string::npos);
  EXPECT_NE(text.find("events_total{vertex=\"src\"} 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("queue_depth 17"), std::string::npos);
  // Histograms render as summaries: quantile series plus _sum/_count.
  EXPECT_NE(text.find("# TYPE latency_ms summary"), std::string::npos);
  EXPECT_NE(text.find("latency_ms{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("latency_ms{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_sum 55"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_count 10"), std::string::npos);
}

TEST(ExpositionTest, PrometheusMergesQuantileIntoExistingLabels) {
  MetricsRegistry registry;
  registry.GetHistogram("proc_us{subtask=\"0\",vertex=\"map\"}")->Record(5);
  std::string text = obs::ToPrometheusText(registry);
  EXPECT_NE(
      text.find("proc_us{subtask=\"0\",vertex=\"map\",quantile=\"0.5\"}"),
      std::string::npos);
  EXPECT_NE(text.find("proc_us_count{subtask=\"0\",vertex=\"map\"} 1"),
            std::string::npos);
}

TEST(ExpositionTest, JsonSnapshotContainsAllKinds) {
  MetricsRegistry registry;
  registry.GetCounter("c_total")->Inc(3);
  registry.GetGauge("g")->Set(2.5);
  registry.GetHistogram("h")->Record(8);

  std::string json = obs::ToJson(registry);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c_total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"g\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(ExpositionTest, JsonEscapesSpecialCharacters) {
  EXPECT_EQ(obs::JsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
}

// ---------------------------------------------------------------------------
// Reporter lifecycle
// ---------------------------------------------------------------------------

class CountingSink final : public obs::ReportSink {
 public:
  explicit CountingSink(std::atomic<int>* count) : count_(count) {}
  void Report(const MetricsRegistry&) override {
    count_->fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<int>* count_;
};

TEST(ReporterTest, TicksAndFinalReportOnStop) {
  MetricsRegistry registry;
  std::atomic<int> reports{0};
  std::atomic<int> collects{0};
  obs::MetricsReporter::Options options;
  options.interval_ms = 10;
  options.report_on_stop = true;
  obs::MetricsReporter reporter(&registry, options);
  reporter.SetPreCollect([&collects] { collects.fetch_add(1); });
  reporter.AddSink(std::make_unique<CountingSink>(&reports));

  reporter.Start();
  EXPECT_TRUE(reporter.running());
  reporter.Start();  // idempotent
  while (reporter.TicksCompleted() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  reporter.Stop();
  EXPECT_FALSE(reporter.running());
  reporter.Stop();  // idempotent

  // At least the observed ticks plus the final on-stop report.
  EXPECT_GE(reports.load(), 4);
  // The pre-collect hook runs once per report.
  EXPECT_EQ(collects.load(), reports.load());
}

TEST(ReporterTest, ReportOnceWorksWithoutStart) {
  MetricsRegistry registry;
  std::atomic<int> reports{0};
  obs::MetricsReporter reporter(&registry);
  reporter.AddSink(std::make_unique<CountingSink>(&reports));
  reporter.ReportOnce();
  reporter.ReportOnce();
  EXPECT_EQ(reports.load(), 2);
  EXPECT_EQ(reporter.TicksCompleted(), 2u);
}

TEST(ReporterTest, FileSinkWritesPrometheusAndJson) {
  MetricsRegistry registry;
  registry.GetCounter("written_total")->Inc(9);

  std::string prom_path = ::testing::TempDir() + "obs_test_report.prom";
  std::string json_path = ::testing::TempDir() + "obs_test_report.json";
  obs::FileSink prom_sink(prom_path);
  obs::FileSink json_sink(json_path);
  prom_sink.Report(registry);
  json_sink.Report(registry);

  auto slurp = [](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    EXPECT_NE(f, nullptr) << path;
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
    std::fclose(f);
    return out;
  };
  EXPECT_NE(slurp(prom_path).find("written_total 9"), std::string::npos);
  EXPECT_NE(slurp(json_path).find("\"written_total\": 9"), std::string::npos);
  std::remove(prom_path.c_str());
  std::remove(json_path.c_str());
}

// ---------------------------------------------------------------------------
// Watermark lag probe (fake clock)
// ---------------------------------------------------------------------------

TEST(WatermarkLagProbeTest, PublishesProcessingMinusEventTime) {
  ManualClock clock(10'000);
  Gauge gauge;
  time::WatermarkLagProbe probe(&clock, &gauge);

  probe.Observe(9'400);
  EXPECT_DOUBLE_EQ(gauge.Value(), 600.0);

  clock.AdvanceMs(500);
  probe.Observe(9'900);
  EXPECT_DOUBLE_EQ(gauge.Value(), 600.0);

  clock.AdvanceMs(100);
  probe.Observe(10'500);
  EXPECT_DOUBLE_EQ(gauge.Value(), 100.0);
}

TEST(WatermarkLagProbeTest, IgnoresSentinelsAndNullGauge) {
  ManualClock clock(5'000);
  Gauge gauge;
  gauge.Set(-1);
  time::WatermarkLagProbe probe(&clock, &gauge);
  probe.Observe(kMinWatermark);
  probe.Observe(kMaxWatermark);
  EXPECT_DOUBLE_EQ(gauge.Value(), -1.0);  // untouched

  time::WatermarkLagProbe disabled(&clock, nullptr);
  disabled.Observe(4'000);  // must not crash
}

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

TEST(TracerTest, RingBufferKeepsNewestSpans) {
  obs::Tracer tracer(/*capacity=*/4);
  for (uint64_t i = 0; i < 10; ++i) {
    tracer.RecordSpan({"map", 0, i, static_cast<TimeMs>(1000 + i),
                       static_cast<int64_t>(i * 10)});
  }
  EXPECT_EQ(tracer.TotalRecorded(), 10u);
  auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first ordering of the surviving window (seq 6..9).
  EXPECT_EQ(spans.front().seq, 6u);
  EXPECT_EQ(spans.back().seq, 9u);
  std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"vertex\": \"map\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Bench artifact
// ---------------------------------------------------------------------------

TEST(BenchArtifactTest, WritesJsonFileWithFiguresAndRegistry) {
  MetricsRegistry registry;
  registry.GetCounter("bench_events_total")->Inc(123);

  obs::BenchArtifact artifact("obs_selftest");
  artifact.Add("records_per_sec", 1.5e6);
  artifact.Add("p99_ms", 2.25);
  artifact.AttachRegistry(&registry);

  std::string dir = ::testing::TempDir();
  while (!dir.empty() && dir.back() == '/') dir.pop_back();
  std::string path = artifact.WriteFile(dir);
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("BENCH_obs_selftest.json"), std::string::npos);

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  EXPECT_NE(text.find("\"bench\": \"obs_selftest\""), std::string::npos);
  EXPECT_NE(text.find("\"records_per_sec\": 1500000"), std::string::npos);
  EXPECT_NE(text.find("\"p99_ms\": 2.25"), std::string::npos);
  EXPECT_NE(text.find("\"bench_events_total\": 123"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: latency markers + runtime metrics through a running job
// ---------------------------------------------------------------------------

// Emits 400 records over 8 keys, all in [200, 220), then idles until
// released, then ends with a MAX watermark that fires every window.
class GatedSource final : public dataflow::Source {
 public:
  explicit GatedSource(const std::atomic<bool>* release) : release_(release) {}
  dataflow::SourcePoll Next() override {
    if (next_ < 400) {
      const int64_t i = next_++;
      return dataflow::SourcePoll::Of(Record(
          200 + i % 20, Value::Tuple("k" + std::to_string(i % 8), int64_t{1})));
    }
    if (!release_->load()) return dataflow::SourcePoll::Idle();
    if (!flushed_) {
      flushed_ = true;
      return dataflow::SourcePoll::Wm(kMaxWatermark);
    }
    return dataflow::SourcePoll::End();
  }

 private:
  const std::atomic<bool>* release_;
  int64_t next_ = 0;
  bool flushed_ = false;
};

TEST(EvoScopeJobTest, TimersPendingGaugeShowsOneTimerPerKeyAndDrains) {
  std::atomic<bool> release{false};
  dataflow::Topology topo;
  auto src = topo.AddSource(
      "src", [&release] { return std::make_unique<GatedSource>(&release); });
  auto keyed = topo.KeyBy(src, "key", [](const Value& v) {
    return v.AsList()[0];
  });
  auto window = topo.Keyed(keyed, "window", [] {
    return std::make_unique<op::WindowOperator>(
        std::make_shared<op::SlidingWindows>(100, 25),
        op::WindowFunctions::Count());
  });
  dataflow::CollectingSink sink;
  topo.Sink(window, "sink", sink.AsSinkFn());

  dataflow::JobRunner runner(topo, dataflow::JobConfig{});
  ASSERT_TRUE(runner.Start().ok());
  for (int i = 0; i < 2000 && runner.RecordsIn()["window"] < 400; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(runner.RecordsIn()["window"], 400u);
  // The barrier makes the window task recount its timers.
  ASSERT_TRUE(runner.TriggerCheckpoint(15000).ok());
  runner.PublishMetrics();
  std::string text = obs::ToPrometheusText(*runner.metrics());
  EXPECT_NE(text.find("task_timers_pending{subtask=\"0\",vertex=\"window\"}"),
            std::string::npos);
  Gauge* pending = runner.metrics()->GetGauge(
      obs::TaskMetricName("task_timers_pending", "window", 0));
  // Each key's records share one pane, inside 4 sliding windows that fire
  // one after another from a single pending timer.
  EXPECT_EQ(pending->Value(), 8.0);

  release = true;
  ASSERT_TRUE(runner.AwaitCompletion(30000).ok());
  runner.PublishMetrics();
  EXPECT_EQ(pending->Value(), 0.0);
  runner.Stop();
  EXPECT_EQ(sink.Count(), 32u);
}

class NeverSource final : public dataflow::Source {
 public:
  dataflow::SourcePoll Next() override { return dataflow::SourcePoll::Idle(); }
};

TEST(EvoScopeJobTest, IdleJobParkedTimeCoversMostOfItsWallTime) {
  dataflow::Topology topo;
  auto src =
      topo.AddSource("src", [] { return std::make_unique<NeverSource>(); });
  auto op = topo.Map(src, "op", [](const Value& v) { return v; }, 2);
  topo.Sink(op, "sink", [](const Record&) {});
  dataflow::JobRunner runner(topo, dataflow::JobConfig{});
  Stopwatch wall;
  ASSERT_TRUE(runner.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  runner.PublishMetrics();
  const double wall_ms = wall.ElapsedMillis();

  const std::pair<const char*, uint32_t> kOperatorTasks[] = {
      {"op", 0}, {"op", 1}, {"sink", 0}};
  for (const auto& [vertex, subtask] : kOperatorTasks) {
    SCOPED_TRACE(std::string(vertex) + "[" + std::to_string(subtask) + "]");
    const double parked_ms =
        runner.metrics()
            ->GetGauge(obs::TaskMetricName("task_parked_ms", vertex, subtask))
            ->Value();
    EXPECT_GT(parked_ms, 0.8 * wall_ms);
    EXPECT_LE(parked_ms, wall_ms);
  }
  std::string text = obs::ToPrometheusText(*runner.metrics());
  EXPECT_NE(text.find("task_parked_ms{subtask=\"0\",vertex=\"op\"}"),
            std::string::npos);
  EXPECT_NE(text.find("task_wakeups_total{subtask=\"1\",vertex=\"op\"}"),
            std::string::npos);

  // A checkpoint's barriers are pushes: they wake every parked task.
  ASSERT_TRUE(runner.TriggerCheckpoint(15000).ok());
  runner.PublishMetrics();
  for (const auto& [vertex, subtask] : kOperatorTasks) {
    SCOPED_TRACE(std::string(vertex) + "[" + std::to_string(subtask) + "]");
    EXPECT_GE(runner.metrics()
                  ->GetGauge(obs::TaskMetricName("task_wakeups_total", vertex,
                                                 subtask))
                  ->Value(),
              1.0);
  }
  runner.Stop();
}

TEST(EvoScopeJobTest, MarkersAndRuntimeMetricsFlowThroughPipeline) {
  dataflow::ReplayableLog log;
  for (int i = 0; i < 5000; ++i) {
    log.Append(i, Value::Tuple("k" + std::to_string(i % 4), int64_t{i}));
  }

  dataflow::Topology topo;
  auto src = topo.AddSource("src", [&log] {
    dataflow::LogSourceOptions options;
    options.watermark_every = 64;
    options.end_at_eof = true;
    return std::make_unique<dataflow::LogSource>(&log, options);
  });
  auto map = topo.Map(src, "map", [](const Value& v) { return v; });
  dataflow::CollectingSink collected;
  topo.Sink(map, "sink", collected.AsSinkFn());

  std::atomic<int> marker_samples{0};
  dataflow::JobConfig config;
  config.latency_marker_interval_ms = 1;
  config.span_sample_every = 100;
  config.latency_handler = [&marker_samples](int64_t) {
    marker_samples.fetch_add(1);
  };

  dataflow::JobRunner runner(topo, config);
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.AwaitCompletion(60000).ok());
  runner.PublishMetrics();
  auto checkpoint_unused = runner.LastCompletedCheckpoint();
  (void)checkpoint_unused;
  std::string text = obs::ToPrometheusText(*runner.metrics());
  // channel_pushed_total carries counter semantics (rate()/increase() work
  // across restarts): it is exposed as TYPE counter, and PublishMetrics
  // folds the channel's running total in as deltas, so publishing twice
  // must not double-count.
  Counter* pushed = runner.metrics()->GetCounter(obs::MetricName(
      "channel_pushed_total",
      {{"from", "src"}, {"to", "map"}, {"up", "0"}, {"down", "0"}}));
  const uint64_t pushed_first = pushed->Value();
  EXPECT_GT(pushed_first, 0u);
  runner.PublishMetrics();
  EXPECT_EQ(pushed->Value(), pushed_first);
  runner.Stop();

  EXPECT_EQ(collected.Count(), 5000u);
  EXPECT_GT(marker_samples.load(), 0);

  // Per-operator records in/out published as gauges.
  EXPECT_NE(text.find("task_records_in{subtask=\"0\",vertex=\"map\"} 5000"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("task_records_out{subtask=\"0\",vertex=\"map\"} 5000"),
            std::string::npos);
  // Per-record processing-time histogram populated on the hot path.
  Histogram* proc = runner.metrics()->GetHistogram(
      obs::TaskMetricName("task_process_time_us", "map", 0));
  EXPECT_EQ(proc->Count(), 5000u);
  // Marker-transit histogram at the sink feeds pipeline latency quantiles.
  EXPECT_NE(text.find("pipeline_latency_ms{quantile=\"0.99\"}"),
            std::string::npos);
  Histogram* e2e = runner.metrics()->GetHistogram("pipeline_latency_ms");
  EXPECT_EQ(e2e->Count(), static_cast<uint64_t>(marker_samples.load()));
  // Channel telemetry exists for the physical edges.
  EXPECT_NE(text.find("channel_depth{from=\"src\",to=\"map\""),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE channel_pushed_total counter"),
            std::string::npos);
  // Watermark lag was observed by downstream tasks.
  Gauge* lag = runner.metrics()->GetGauge(
      obs::TaskMetricName("task_watermark_lag_ms", "map", 0));
  EXPECT_GE(lag->Value(), 0.0);
  // Span tracer sampled every 100th record per subtask.
  EXPECT_GT(runner.tracer()->TotalRecorded(), 0u);
  for (const obs::Span& span : runner.tracer()->Snapshot()) {
    EXPECT_EQ(span.seq % 100, 0u);
  }
}

TEST(EvoScopeJobTest, CheckpointMetricsPublished) {
  dataflow::ReplayableLog log;
  for (int i = 0; i < 64; ++i) {
    log.Append(i, Value::Tuple("k", int64_t{i}));
  }
  dataflow::Topology topo;
  auto src = topo.AddSource("src", [&log] {
    dataflow::LogSourceOptions options;
    options.end_at_eof = false;  // keep running so checkpoints can land
    return std::make_unique<dataflow::LogSource>(&log, options);
  });
  dataflow::CollectingSink collected;
  topo.Sink(src, "sink", collected.AsSinkFn());

  dataflow::JobRunner runner(topo, dataflow::JobConfig{});
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.TriggerCheckpoint(15000).ok());
  ASSERT_TRUE(runner.TriggerCheckpoint(15000).ok());
  runner.Stop();

  EXPECT_EQ(
      runner.metrics()->GetCounter("checkpoints_completed_total")->Value(),
      2u);
  EXPECT_EQ(runner.metrics()->GetHistogram("checkpoint_duration_ms")->Count(),
            2u);
  EXPECT_GT(runner.metrics()->GetGauge("checkpoint_size_bytes")->Value(), 0.0);
  // Per-task snapshot instrumentation fired as well.
  Histogram* snap = runner.metrics()->GetHistogram(
      obs::TaskMetricName("task_snapshot_time_ms", "sink", 0));
  EXPECT_EQ(snap->Count(), 2u);
}

TEST(EvoScopeJobTest, LsmJobExportsSnapshotPinAndPendingTimes) {
  // Enough keys that the LSM snapshot takes several steps after its pin.
  constexpr int kRecords = 3000;
  dataflow::ReplayableLog log;
  for (int i = 0; i < kRecords; ++i) {
    log.Append(i, Value::Tuple("k" + std::to_string(i % 1500), int64_t{i}));
  }
  dataflow::Topology topo;
  auto src = topo.AddSource("src", [&log] {
    dataflow::LogSourceOptions options;
    options.end_at_eof = false;  // keep running so checkpoints can land
    return std::make_unique<dataflow::LogSource>(&log, options);
  });
  auto keyed = topo.KeyBy(src, "key", [](const Value& v) {
    return v.AsList()[0];
  });
  auto count = topo.AddOperator("count", [] {
    dataflow::ProcessOperator::Hooks hooks;
    hooks.on_record = [](dataflow::OperatorContext* ctx, Record&,
                         dataflow::Collector*) {
      state::ValueState<int64_t> c(ctx->state(), "c");
      return c.Put(c.GetOr(0).ValueOr(0) + 1);
    };
    return std::make_unique<dataflow::ProcessOperator>(hooks);
  });
  ASSERT_TRUE(topo.Connect(keyed, count, dataflow::Partitioning::kHash).ok());

  state::MemEnv env;
  dataflow::JobConfig config;
  config.backend_factory = [&env](const std::string& vertex, uint32_t subtask)
      -> std::unique_ptr<state::KeyedStateBackend> {
    if (vertex != "count") return std::make_unique<state::MemBackend>();
    state::LsmOptions options;
    options.env = &env;
    options.dir = "/obs-lsm-" + std::to_string(subtask);
    auto lsm = state::LsmBackend::Open(options);
    EXPECT_TRUE(lsm.ok());
    return lsm.ok() ? std::move(*lsm) : nullptr;
  };
  dataflow::JobRunner runner(topo, config);
  ASSERT_TRUE(runner.Start().ok());
  for (int i = 0; i < 2000 && runner.RecordsIn()["count"] < kRecords; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(runner.TriggerCheckpoint(15000).ok());
  ASSERT_TRUE(runner.TriggerCheckpoint(15000).ok());
  runner.Stop();

  // The time the task was blocked (the pin) and the time from pin to ack.
  for (const char* name : {"task_snapshot_time_ms", "task_snapshot_pending_ms"}) {
    Histogram* h =
        runner.metrics()->GetHistogram(obs::TaskMetricName(name, "count", 0));
    EXPECT_EQ(h->Count(), 2u) << name;
  }
  EXPECT_NE(obs::ToPrometheusText(*runner.metrics())
                .find("task_snapshot_pending_ms_count{subtask=\"0\",vertex=\"count\"} 2"),
            std::string::npos);
}

TEST(EvoScopeJobTest, RestoredJobExportsRestoreTime) {
  dataflow::ReplayableLog log;
  for (int i = 0; i < 64; ++i) {
    log.Append(i, Value::Tuple("k", int64_t{i}));
  }
  dataflow::CollectingSink collected;
  auto topology = [&] {
    dataflow::Topology topo;
    auto src = topo.AddSource("src", [&log] {
      dataflow::LogSourceOptions options;
      options.end_at_eof = false;  // keep running so checkpoints can land
      return std::make_unique<dataflow::LogSource>(&log, options);
    });
    topo.Sink(src, "sink", collected.AsSinkFn());
    return topo;
  };
  const std::string name =
      obs::TaskMetricName("task_restore_time_ms", "sink", 0);

  dataflow::JobRunner first(topology(), dataflow::JobConfig{});
  ASSERT_TRUE(first.Start().ok());
  auto snapshot = first.TriggerCheckpoint(15000);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  first.Stop();
  // A fresh start restores nothing.
  EXPECT_EQ(first.metrics()->GetHistogram(name)->Count(), 0u);

  dataflow::JobRunner restored(topology(), dataflow::JobConfig{});
  ASSERT_TRUE(restored.Start(&*snapshot).ok());
  // The sink restores before it handles any barrier, so once a checkpoint
  // completes its restore has been timed.
  ASSERT_TRUE(restored.TriggerCheckpoint(15000).ok());
  restored.Stop();
  EXPECT_EQ(restored.metrics()->GetHistogram(name)->Count(), 1u);
  EXPECT_NE(obs::ToPrometheusText(*restored.metrics())
                .find("task_restore_time_ms_count{subtask=\"0\",vertex=\"sink\"} 1"),
            std::string::npos);
}

TEST(EvoScopeJobTest, BackgroundReporterWritesFileSink) {
  dataflow::ReplayableLog log;
  for (int i = 0; i < 100; ++i) {
    log.Append(i, Value::Tuple("k", int64_t{i}));
  }
  dataflow::Topology topo;
  auto src = topo.AddSource("src", [&log] {
    dataflow::LogSourceOptions options;
    options.end_at_eof = true;
    return std::make_unique<dataflow::LogSource>(&log, options);
  });
  dataflow::CollectingSink collected;
  topo.Sink(src, "sink", collected.AsSinkFn());

  std::string path = ::testing::TempDir() + "obs_job_report.prom";
  dataflow::JobConfig config;
  config.metrics_report_interval_ms = 5;
  config.report_file = path;

  dataflow::JobRunner runner(topo, config);
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_NE(runner.reporter(), nullptr);
  ASSERT_TRUE(runner.AwaitCompletion(60000).ok());
  runner.Stop();  // final report flushes on stop

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[8192];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(text.find("task_records_in{subtask=\"0\",vertex=\"sink\"} 100"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace evo
