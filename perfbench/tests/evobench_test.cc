// Tests of the benchmark's own code: generators, reference, decorators and
// the end-to-end correctness check.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <unistd.h>

#include "bench.h"
#include "dataflow/job.h"
#include "gen.h"
#include "state/lsm_backend.h"
#include "state/mem_backend.h"
#include "trace.h"

namespace evobench {
namespace {

namespace df = evo::dataflow;

std::string ScratchDir(const std::string& name) {
  const std::string dir = std::filesystem::temp_directory_path().string() +
                          "/evobench-test-" + std::to_string(::getpid()) + "-" +
                          name;
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(Generators, SameSeedGivesIdenticalStream) {
  for (const WorkloadSpec& spec : Workloads()) {
    const Zipf zipf(1000, spec.theta);
    EventClock clock = MakeEventClock(spec);
    StartSegment(spec, &clock, 500);
    StartSegment(spec, &clock, 1500);
    for (uint64_t i = 0; i < 2000; ++i) {
      const evo::Record a = MakeRecord(spec, &zipf, 7, clock, i, 11);
      const evo::Record b = MakeRecord(spec, &zipf, 7, clock, i, 11);
      ASSERT_EQ(a, b) << spec.name << " record " << i;
      EXPECT_EQ(InputIdOf(a.payload), i);
    }
    // A different seed gives a different stream.
    int differ = 0;
    for (uint64_t i = 0; i < 100; ++i) {
      differ += !(MakeRecord(spec, &zipf, 7, clock, i, 11) ==
                  MakeRecord(spec, &zipf, 8, clock, i, 11));
    }
    EXPECT_GT(differ, 90) << spec.name;
  }
}

TEST(Generators, ZipfRankFrequencyShape) {
  const double theta = 0.99;
  const uint64_t n = 100'000;
  const Zipf zipf(n, theta);
  std::map<uint64_t, uint64_t> freq;
  const uint64_t samples = 2'000'000;
  for (uint64_t i = 0; i < samples; ++i) ++freq[zipf.Rank(Unit(Draw(3, i, 3)))];
  // Hottest rank matches its exact probability.
  const double p0 = static_cast<double>(freq[0]) / static_cast<double>(samples);
  EXPECT_NEAR(p0, zipf.TopProbability(), 0.1 * zipf.TopProbability());
  // Rank 0 : rank 1 is 2^theta.
  EXPECT_NEAR(static_cast<double>(freq[0]) / static_cast<double>(freq[1]),
              std::pow(2.0, theta), 0.1);
  // Log-log slope over ranks 10..1000 is about -theta.
  auto band = [&](uint64_t lo, uint64_t hi) {
    uint64_t c = 0;
    for (uint64_t r = lo; r < hi; ++r) c += freq[r];
    return static_cast<double>(c) / static_cast<double>(hi - lo);
  };
  const double slope = std::log(band(1000, 1100) / band(10, 11 + 0)) /
                       std::log(1050.0 / 10.0);
  EXPECT_NEAR(slope, -theta, 0.15);
  for (const auto& [rank, count] : freq) ASSERT_LT(rank, n);
}

TEST(Generators, DisorderNeverExceedsWatermarkBound) {
  const WorkloadSpec& spec = *FindWorkload("window_agg");
  EventClock clock = MakeEventClock(spec);
  const uint64_t n1 = 50'000;
  const int64_t marker = FlushMarker(spec, clock, n1);
  StartSegment(spec, &clock, n1);
  const int64_t t2 = clock.segments.back().base;
  int64_t max_et = evo::kMinWatermark;
  uint64_t displaced = 0;
  const uint64_t n = 100'000;
  for (uint64_t i = 0; i < n; ++i) {
    const int64_t et = clock.EventTime(5, i);
    // The source's watermark before record i is max_et - bound - 1.
    if (max_et != evo::kMinWatermark) {
      ASSERT_GT(et, max_et - spec.disorder_ms - 1) << "late record " << i;
    }
    ASSERT_GE(et, clock.Base(i) - spec.disorder_ms);
    displaced += et < clock.Base(i);
    max_et = std::max(max_et, et);
  }
  EXPECT_NEAR(static_cast<double>(displaced) / n, spec.displaced_frac, 0.01);
  // A new segment starts beyond every window of the previous one and its
  // flush watermark.
  EXPECT_GT(t2 - spec.disorder_ms - spec.window_size_ms, clock.Base(n1 - 1));
  EXPECT_GT(t2 - spec.disorder_ms, marker);
  EXPECT_EQ(clock.Base(n1), t2);
}

// Brute force: every record's expected result built field by field.
Digest BruteForce(const WorkloadSpec& spec, uint64_t seed,
                  const EventClock& clock, uint64_t n, const Zipf* zipf) {
  Digest d;
  if (spec.kind == Kind::kWindow) {
    struct Acc {
      int64_t sum = 0, count = 0, max_id = -1;
    };
    std::map<std::pair<int64_t, uint64_t>, Acc> windows;
    for (uint64_t i = 0; i < n; ++i) {
      const KeyedAmount ka = KeyedAmountOf(seed, i, *zipf, 1000);
      const int64_t ts = clock.EventTime(seed, i);
      for (int64_t s = ts - ts % spec.window_slide_ms; s > ts - spec.window_size_ms;
           s -= spec.window_slide_ms) {
        Acc& a = windows[{s, KeyHash(ka.key_id)}];
        a.sum += ka.amount;
        ++a.count;
        a.max_id = static_cast<int64_t>(i);
      }
    }
    for (const auto& [w, a] : windows) {
      d.Add(w.first, ResultHash(w.second ^ Mix(static_cast<uint64_t>(w.first)),
                                static_cast<uint64_t>(a.sum),
                                static_cast<uint64_t>(a.count),
                                static_cast<uint64_t>(a.max_id)));
    }
  } else {
    std::map<uint64_t, Profile> profiles;
    for (uint64_t i = 0; i < n; ++i) {
      const KeyedAmount ka = KeyedAmountOf(seed, i, *zipf, 100);
      if (!profiles.count(ka.key_id)) profiles[ka.key_id] = InitialProfile(ka.key_id);
      Profile& p = profiles[ka.key_id];
      ++p.count;
      p.total += ka.amount;
      d.Add(static_cast<int64_t>(i >> 16),
            ResultHash(i, static_cast<uint64_t>(p.count),
                       static_cast<uint64_t>(p.total), KeyHash(ka.key_id)));
    }
  }
  return d;
}

TEST(Reference, MatchesBruteForceOnSmallInputs) {
  for (const WorkloadSpec& spec : Workloads()) {
    const Zipf zipf(500, 0.99);
    EventClock clock = MakeEventClock(spec);
    StartSegment(spec, &clock, 20'000);
    StartSegment(spec, &clock, 45'000);
    const uint64_t n = 70'000;
    const Digest ref = Reference(spec, 9, clock, n, &zipf);
    const Digest brute = BruteForce(spec, 9, clock, n, &zipf);
    EXPECT_GT(ref.Count(), 0u) << spec.name;
    EXPECT_EQ(CountMismatches(brute, ref), 0u) << spec.name;
    // A perturbed digest is caught.
    Digest bad = ref;
    bad.groups.begin()->second.second ^= 1;
    EXPECT_GT(CountMismatches(brute, bad), 0u) << spec.name;
  }
}

TEST(Decorators, BackendSnapshotRoundTripMatchesRawBackend) {
  const std::string dir = ScratchDir("backend");
  auto fill = [](evo::state::KeyedStateBackend* b) {
    for (uint64_t k = 0; k < 2000; ++k) {
      ASSERT_TRUE(b->Put(k % 3, KeyHash(k), std::to_string(k % 5),
                         "value-" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(b->Remove(0, KeyHash(3), "3").ok());
  };
  evo::state::LsmOptions raw_opts, traced_opts, restored_opts;
  raw_opts.dir = dir + "/raw";
  traced_opts.dir = dir + "/traced";
  restored_opts.dir = dir + "/restored";
  auto raw = evo::state::LsmBackend::Open(raw_opts);
  auto inner = evo::state::LsmBackend::Open(traced_opts);
  ASSERT_TRUE(raw.ok() && inner.ok());
  Tracing tracing;
  TracedBackend traced(std::move(inner).value(), &tracing);
  fill(raw->get());
  fill(&traced);

  auto raw_snap = (*raw)->SnapshotAll();
  auto traced_snap = traced.SnapshotAll();
  ASSERT_TRUE(raw_snap.ok() && traced_snap.ok());
  EXPECT_EQ(*raw_snap, *traced_snap);

  // Restore through a decorated backend and snapshot again: same bytes.
  auto restored_inner = evo::state::LsmBackend::Open(restored_opts);
  ASSERT_TRUE(restored_inner.ok());
  TracedBackend restored(std::move(restored_inner).value(), &tracing);
  ASSERT_TRUE(restored.RestoreSnapshot(*raw_snap).ok());
  auto again = restored.SnapshotAll();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *raw_snap);

  // Point reads, iteration and drops forward too.
  auto got = restored.Get(1, KeyHash(1), "1");
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ(**got, "value-1");
  int visited = 0;
  ASSERT_TRUE(restored.IterateKey(1, KeyHash(1), [&](auto, auto) { ++visited; }).ok());
  EXPECT_EQ(visited, 1);
  ASSERT_TRUE(restored.DropKeyGroups(0, 128).ok());
  auto empty = restored.SnapshotAll();
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, std::string(8, '\0'));
  const CallStats& s = *tracing.slots()[0];
  EXPECT_EQ(s.calls[static_cast<size_t>(SpanKind::kStatePut)], 2000u);
  EXPECT_EQ(s.snapshot_ms.size(), 1u);
  std::filesystem::remove_all(dir);
}

// Runs a small keyed window job, optionally with every layer decorated, and
// returns the sink's records in a canonical order.
std::vector<evo::Record> RunWindowJob(Tracing* tracing) {
  const WorkloadSpec& spec = *FindWorkload("window_agg");
  auto zipf = std::make_shared<const Zipf>(200, 0.99);
  const EventClock clock = MakeEventClock(spec);
  df::Topology t;
  auto src = t.AddSource("source", [&]() -> std::unique_ptr<df::Source> {
    auto i = std::make_shared<uint64_t>(0);
    std::unique_ptr<df::Source> s = std::make_unique<df::GeneratorSource>(
        [=, &spec, &clock](uint32_t, uint32_t) {
          if (*i == 20'000) {
            ++*i;
            return df::SourcePoll::Wm(evo::kMaxWatermark);
          }
          if (*i > 20'000) return df::SourcePoll::End();
          const uint64_t n = (*i)++;
          if (n % 100 == 99) {
            return df::SourcePoll::Wm(clock.Base(n) - spec.disorder_ms - 1);
          }
          return df::SourcePoll::Of(MakeRecord(spec, zipf.get(), 4, clock, n, 0));
        });
    if (tracing != nullptr) s = std::make_unique<TracedSource>(std::move(s), tracing, &InputIdOf);
    return s;
  });
  auto op = t.AddOperator("window", [&]() -> std::unique_ptr<df::Operator> {
    auto o = MakeWorkOperator(spec);
    if (tracing != nullptr) o = std::make_unique<TracedOperator>(std::move(o), tracing, &InputIdOf);
    return o;
  }, 2);
  EXPECT_TRUE(t.Connect(src, op, df::Partitioning::kHash).ok());
  df::CollectingSink collected;
  std::function<void(const evo::Record&)> fn = collected.AsSinkFn();
  if (tracing != nullptr) fn = TraceSinkFn(fn, tracing, &ResultIdOf);
  t.Sink(op, "sink", fn);
  df::JobConfig config;
  config.backend_factory = [&](const std::string&, uint32_t)
      -> std::unique_ptr<evo::state::KeyedStateBackend> {
    std::unique_ptr<evo::state::KeyedStateBackend> b =
        std::make_unique<evo::state::MemBackend>();
    if (tracing != nullptr) b = std::make_unique<TracedBackend>(std::move(b), tracing);
    return b;
  };
  df::JobRunner runner(t, config);
  EXPECT_TRUE(runner.Start().ok());
  EXPECT_TRUE(runner.AwaitCompletion(60'000).ok());
  std::vector<evo::Record> out = collected.Snapshot();
  // Latest due time is 0 for every input here, so results are deterministic.
  std::sort(out.begin(), out.end(), [](const evo::Record& a, const evo::Record& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.payload < b.payload;
  });
  return out;
}

TEST(Decorators, DecoratedJobGivesIdenticalOutput) {
  const std::vector<evo::Record> plain = RunWindowJob(nullptr);
  Tracing tracing;
  const std::vector<evo::Record> traced = RunWindowJob(&tracing);
  ASSERT_GT(plain.size(), 100u);
  EXPECT_EQ(plain, traced);
  const SpanSummary summary = Summarize(tracing);
  EXPECT_GT(summary.process_spans, 0u);
  EXPECT_GT(summary.timer_spans, 0u);
  EXPECT_FALSE(summary.queue_wait_us.empty());
}

TEST(EndToEnd, ShortRunsAreCorrect) {
  const std::string dir = ScratchDir("e2e");
  for (const WorkloadSpec& workload : Workloads()) {
    // The workload with a small key space, so the LSM preload is quick.
    WorkloadSpec spec = workload;
    spec.keys = 20'000;
    RunOptions options;
    options.seed = 3;
    // Long enough for each job's open-loop phase to hold a checkpoint.
    options.seconds = 1.5 * spec.jobs_per_run *
                      static_cast<double>(spec.checkpoint_interval_ms) / 1000;
    options.work_dir = dir;
    const RunReport report = RunWorkload(spec, options);
    for (const std::string& p : report.problems) ADD_FAILURE() << spec.name << ": " << p;
    EXPECT_TRUE(report.correct) << spec.name;
    EXPECT_EQ(report.failed, 0u) << spec.name;
    EXPECT_EQ(report.metrics.size(), 7u) << spec.name;
  }
  // Temp dirs of the LSM backends are gone.
  EXPECT_TRUE(!std::filesystem::exists(dir + "/tmp") ||
              std::filesystem::is_empty(dir + "/tmp"));
  std::filesystem::remove_all(dir);
}

TEST(EndToEnd, CorruptedResultFailsTheCheck) {
  const std::string dir = ScratchDir("corrupt");
  const WorkloadSpec& spec = *FindWorkload("window_agg");
  RunOptions options;
  options.seed = 5;
  options.seconds = 1.5 * spec.jobs_per_run *
                    static_cast<double>(spec.checkpoint_interval_ms) / 1000;
  options.work_dir = dir;
  options.corrupt_result = 1000;
  const RunReport report = RunWorkload(spec, options);
  EXPECT_FALSE(report.correct);
  EXPECT_GT(report.failed, 0u);
  // The corrupted result is the only failure.
  ASSERT_EQ(report.problems.size(), 1u);
  EXPECT_NE(report.problems[0].find("wrong or missing results"), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace evobench
