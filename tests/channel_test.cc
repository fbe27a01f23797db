// Tests for the data plane: ring-buffer channel semantics (batch FIFO order,
// blocking backpressure, close-wakes-producers, MPMC stress with concurrent
// lock-free metric reads), the task wakeup protocol (seeded lost-wakeup
// races against a parking task) and record/control ordering through real
// pipelines (hash/broadcast delivery, watermark and barrier ordering,
// exactly-once across failure, and the backpressure signals load shedding
// depends on surviving the ring rewrite).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dataflow/job.h"
#include "dataflow/topology.h"
#include "loadmgmt/shedding.h"
#include "state/mem_backend.h"
#include "testing/fault_injector.h"

namespace evo::dataflow {
namespace {

// ---------------------------------------------------------------------------
// Ring channel: batch semantics
// ---------------------------------------------------------------------------

TEST(RingChannelTest, FifoOrderAcrossBatchBoundaries) {
  // Push in batches of varying size, pop in mismatched batch sizes: the
  // element order must be exactly the push order regardless of how the
  // batch boundaries interleave.
  constexpr int kTotal = 1000;
  Channel ch(kTotal);  // large enough that pushes never block
  std::vector<StreamElement> batch;
  int next = 0;
  size_t push_size = 1;
  while (next < kTotal) {
    batch.clear();
    for (size_t i = 0; i < push_size && next < kTotal; ++i) {
      batch.push_back(StreamElement::Watermark(next++));
    }
    ASSERT_TRUE(ch.PushBatch(batch.data(), batch.size()));
    push_size = push_size % 7 + 3;  // 3..9, never aligned with pops
  }

  std::vector<StreamElement> out(13);
  int expect = 0;
  while (expect < kTotal) {
    size_t got = ch.PopBatch(out.data(), out.size());
    ASSERT_GT(got, 0u);
    for (size_t i = 0; i < got; ++i) {
      EXPECT_EQ(out[i].time, expect++);
    }
  }
  EXPECT_EQ(ch.Size(), 0u);
  EXPECT_EQ(ch.PushedCount(), static_cast<uint64_t>(kTotal));
}

TEST(RingChannelTest, NonPowerOfTwoCapacityIsExact) {
  // The ring rounds up to a power of two internally, but the logical
  // capacity (the backpressure threshold) must stay exactly as requested.
  Channel ch(3);
  EXPECT_EQ(ch.capacity(), 3u);
  EXPECT_TRUE(ch.TryPush(StreamElement::Watermark(1)));
  EXPECT_TRUE(ch.TryPush(StreamElement::Watermark(2)));
  EXPECT_TRUE(ch.TryPush(StreamElement::Watermark(3)));
  EXPECT_FALSE(ch.TryPush(StreamElement::Watermark(4)));
  EXPECT_EQ(ch.Size(), 3u);
  EXPECT_DOUBLE_EQ(ch.Fullness(), 1.0);
}

TEST(RingChannelTest, BatchPushBlocksOnFullRingAndAccruesBlockedTime) {
  // A batch larger than the free space enqueues what fits and blocks for
  // the rest; the blocked time is the backpressure signal.
  constexpr size_t kCapacity = 4;
  constexpr int kBatch = 32;
  Channel ch(kCapacity);
  std::vector<StreamElement> batch;
  for (int i = 0; i < kBatch; ++i) batch.push_back(StreamElement::Watermark(i));

  std::thread producer([&] {
    EXPECT_TRUE(ch.PushBatch(batch.data(), batch.size()));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ch.Size(), kCapacity);  // producer parked on a full ring

  std::vector<StreamElement> out(8);
  int expect = 0;
  while (expect < kBatch) {
    size_t got = ch.PopBatch(out.data(), out.size());
    for (size_t i = 0; i < got; ++i) EXPECT_EQ(out[i].time, expect++);
    if (got == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  producer.join();
  EXPECT_GT(ch.BlockedNanos(), 1000000);  // >1ms spent blocked
}

TEST(RingChannelTest, CloseWakesBlockedBatchProducer) {
  Channel ch(2);
  std::vector<StreamElement> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(StreamElement::Watermark(i));

  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_FALSE(ch.PushBatch(batch.data(), batch.size()));  // closed mid-push
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());  // still parked on the full ring
  ch.Close();
  producer.join();
  EXPECT_TRUE(returned.load());

  // Elements enqueued before the close stay poppable, in order.
  auto a = ch.TryPop();
  auto b = ch.TryPop();
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->time, 0);
  EXPECT_EQ(b->time, 1);
  EXPECT_FALSE(ch.TryPop().has_value());
}

TEST(RingChannelRaceTest, CloseRacesParkedProducerUnderInjectedSlowConsumer) {
  // Guards the waiter-count fences in PushBatch()/WakeProducers()/Close():
  // a producer parked on a full ring must wake whether a slot frees up (the
  // slow consumer finally pops) or the channel closes mid-push. The injected
  // per-barrier delay plus the per-iteration jitter sweeps the close across
  // the claim-fail -> park window; a missed wakeup hangs the join and times
  // the test out (run under TSan in CI).
  auto& inj = evo::testing::FaultInjector::Instance();
  for (int iter = 0; iter < 100; ++iter) {
    evo::testing::ScopedFaultInjection arm(7000 + iter);
    evo::testing::FaultRule slow;
    slow.action = evo::testing::FaultAction::kDelay;
    slow.delay_ms = 1;
    slow.max_fires = 0;  // stall every barrier push, not just the first
    inj.SetRule("channel.barrier.push", slow);

    Channel ch(2);
    std::atomic<int> produced{0};
    std::thread producer([&] {
      for (uint64_t i = 0; i < 6; ++i) {
        if (!ch.Push(StreamElement::Barrier(i))) return;
        produced.fetch_add(1, std::memory_order_relaxed);
      }
    });
    std::atomic<uint64_t> next_pop{0};
    std::thread consumer([&] {
      for (int i = 0; i < iter % 4; ++i) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        auto e = ch.TryPop();
        if (!e.has_value()) continue;
        EXPECT_EQ(e->tag, next_pop.load());
        next_pop.fetch_add(1);
      }
    });
    consumer.join();
    std::this_thread::sleep_for(std::chrono::microseconds(100 * (iter % 7)));
    ch.Close();
    producer.join();

    // Every accepted push is delivered exactly once, in order, despite the
    // racing close.
    while (auto e = ch.TryPop()) {
      EXPECT_EQ(e->tag, next_pop.load());
      next_pop.fetch_add(1);
    }
    EXPECT_EQ(next_pop.load(), static_cast<uint64_t>(produced.load()));
  }
}

TEST(RingChannelStressTest, MpmcBatchesNoLossNoDuplicationOrderPerProducer) {
  // Four producers pushing variable-size batches through a small ring, one
  // consumer popping batches, and a poller hammering the lock-free metric
  // reads the whole time (the TSan target for the relaxed-atomic counters).
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 8000;
  constexpr int64_t kStride = 1000000;
  Channel ch(64);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch, p] {
      std::vector<StreamElement> batch;
      int sent = 0;
      size_t size = static_cast<size_t>(p) + 1;
      while (sent < kPerProducer) {
        batch.clear();
        for (size_t i = 0; i < size && sent < kPerProducer; ++i) {
          batch.push_back(StreamElement::Watermark(p * kStride + sent++));
        }
        ASSERT_TRUE(ch.PushBatch(batch.data(), batch.size()));
        size = size % 17 + 1;
      }
    });
  }

  std::atomic<bool> done{false};
  std::thread poller([&] {
    // Metric reads must never block or race with the data path.
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_LE(ch.Size(), ch.capacity());
      EXPECT_GE(ch.Fullness(), 0.0);
      EXPECT_GE(ch.BlockedNanos(), 0);
      EXPECT_LE(ch.PushedCount(),
                static_cast<uint64_t>(kProducers) * kPerProducer);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  std::vector<StreamElement> out(32);
  std::vector<int64_t> last_seen(kProducers, -1);
  size_t received = 0;
  while (received < static_cast<size_t>(kProducers) * kPerProducer) {
    size_t got = ch.PopBatch(out.data(), out.size());
    if (got == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(10));
      continue;
    }
    for (size_t i = 0; i < got; ++i) {
      int producer = static_cast<int>(out[i].time / kStride);
      int64_t seq = out[i].time % kStride;
      ASSERT_LT(producer, kProducers);
      // FIFO per producer: each producer's values arrive in push order.
      EXPECT_GT(seq, last_seen[producer]);
      last_seen[producer] = seq;
    }
    received += got;
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  poller.join();

  EXPECT_EQ(ch.Size(), 0u);
  EXPECT_EQ(ch.PushedCount(),
            static_cast<uint64_t>(kProducers) * kPerProducer);
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(last_seen[p], kPerProducer - 1);  // nothing lost at the tail
  }
}

// ---------------------------------------------------------------------------
// Task wakeup word: seeded lost-wakeup races
// ---------------------------------------------------------------------------
//
// For 5 ms after its last progress an operator task parks at most 100 us
// at a time, which would hide a lost wakeup. After that it parks for up to
// 100 ms when no processing timer is pending. The races below therefore
// land on those long parks: a wakeup lost there shows up as a delivery that
// waits the park out, so each test asserts every delivery lands well inside
// it.

constexpr int64_t kLostWakeupNanos = 50'000'000;  // half the park bound
constexpr int64_t kWarmNanos = 5'000'000;         // short parks until then

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpinFor(int64_t nanos) {
  const int64_t until = SteadyNanos() + nanos;
  while (SteadyNanos() < until) {
  }
}

/// Counts records per input. With `timer_after_ms` > 0 it also registers a
/// processing-time timer that far ahead for every record, so the task's next
/// park ends at that timer.
class InputCounter final : public Operator {
 public:
  InputCounter(std::atomic<uint64_t>* counts, int64_t timer_after_ms)
      : counts_(counts), timer_after_ms_(timer_after_ms) {}
  Status ProcessRecord(Record&, Collector*) override { return Status::OK(); }
  Status ProcessRecordFrom(size_t input, Record& record,
                           Collector*) override {
    if (timer_after_ms_ > 0) {
      ctx_->timers()->processing_timers().Register(
          ctx_->timers()->CurrentProcessingTime() + timer_after_ms_, record.key);
    }
    counts_[input].fetch_add(1, std::memory_order_release);
    return Status::OK();
  }

 private:
  std::atomic<uint64_t>* counts_;
  int64_t timer_after_ms_;
};

/// One operator task over `inputs` hand-driven channels.
struct ParkingTask {
  ParkingTask(size_t inputs, int64_t timer_after_ms) : channels(inputs) {
    task = std::make_unique<Task>(
        "probe", 0, 1, KeyGroup::kDefaultMaxParallelism,
        std::make_unique<InputCounter>(counts, timer_after_ms),
        std::make_unique<state::MemBackend>(KeyGroup::kDefaultMaxParallelism),
        &runtime);
    for (size_t i = 0; i < inputs; ++i) {
      InputChannel in;
      in.channel = &channels[i];
      in.ordinal = i;
      task->AddInput(in);
    }
    task->Start();
  }
  ~ParkingTask() {
    task->Cancel();
    task->Join();
  }

  /// Spins until input `i` has delivered `n` records; false after 5 s.
  bool AwaitCount(size_t i, uint64_t n) {
    const int64_t give_up = SteadyNanos() + 5'000'000'000;
    while (counts[i].load(std::memory_order_acquire) < n) {
      if (SteadyNanos() > give_up) return false;
      std::this_thread::yield();
    }
    return true;
  }

  std::atomic<uint64_t> counts[2];
  TaskRuntime runtime;
  std::deque<Channel> channels;
  std::unique_ptr<Task> task;  // last: stops before the channels go
};

StreamElement KeyedRecord(uint64_t key) {
  Record r(0, Value(int64_t{1}));
  r.key = key;
  return StreamElement::OfRecord(std::move(r));
}

TEST(TaskWakeupRaceTest, PushToOpenInputWakesTaskWhoseOtherInputIsBlocked) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ParkingTask t(/*inputs=*/2, /*timer_after_ms=*/0);
    // Input 0 delivers checkpoint 1's barrier and blocks for alignment;
    // records queue up behind it. They are poppable but not ready: the task
    // must still park, and must not read them before alignment completes.
    ASSERT_TRUE(t.channels[0].Push(
        StreamElement::Barrier(1, CheckpointMode::kAligned)));
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(t.channels[0].Push(KeyedRecord(i)));

    int64_t worst = 0;
    constexpr uint64_t kRounds = 60;
    for (uint64_t round = 0; round < kRounds; ++round) {
      // Land the push exactly as the task enters its first long park: after
      // a seeded delay around the end of the short-park window, or once it
      // is well into a long park.
      if (rng.NextBool(0.25)) {
        SpinFor(kWarmNanos + 1'000'000);
        while (!t.task->parked()) std::this_thread::yield();
      } else {
        SpinFor(kWarmNanos - 150'000 +
                static_cast<int64_t>(rng.NextBounded(400'000)));
      }
      const int64_t pushed = SteadyNanos();
      ASSERT_TRUE(t.channels[1].Push(KeyedRecord(round)));
      ASSERT_TRUE(t.AwaitCount(1, round + 1));
      worst = std::max(worst, SteadyNanos() - pushed);
    }
    EXPECT_LT(worst, kLostWakeupNanos) << "worst delivery " << worst << " ns";
    EXPECT_EQ(t.counts[0].load(), 0u);  // blocked input never read
    EXPECT_GT(t.task->Wakeups(), 0u);   // the task did park and get woken
    // The blocked input's queued records do not keep the task awake, and
    // more pushes to it do not wake it: left alone, it stays parked.
    while (!t.task->parked()) std::this_thread::yield();
    const uint64_t wakeups_before = t.task->Wakeups();
    const double parked_before = t.task->ParkedMillis();
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(t.channels[0].Push(KeyedRecord(i)));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_GT(t.task->ParkedMillis() - parked_before, 100.0);
    EXPECT_EQ(t.task->Wakeups(), wakeups_before);

    // Input 1's barrier completes the alignment; the queued records follow.
    ASSERT_TRUE(t.channels[1].Push(
        StreamElement::Barrier(1, CheckpointMode::kAligned)));
    ASSERT_TRUE(t.AwaitCount(0, 8));
    // Unblocked, input 0 wakes the task again.
    while (!t.task->parked()) std::this_thread::yield();
    const int64_t pushed = SteadyNanos();
    ASSERT_TRUE(t.channels[0].Push(KeyedRecord(9)));
    ASSERT_TRUE(t.AwaitCount(0, 9));
    EXPECT_LT(SteadyNanos() - pushed, kLostWakeupNanos);
  }
}

TEST(TaskWakeupRaceTest, SignalRacingParkTimeoutIsNotLost) {
  // Each record arms a processing timer 7 ms out, so the task's first long
  // park (from 5 ms) times out at that timer; once it fires nothing is
  // pending and the park after it is the full 100 ms. Pushes land around
  // the timeout: a signal swallowed by the timed-out park would cost that
  // full park.
  for (uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ParkingTask t(/*inputs=*/1, /*timer_after_ms=*/7);
    int64_t worst = 0;
    constexpr uint64_t kRounds = 40;
    for (uint64_t round = 0; round < kRounds; ++round) {
      SpinFor(6'000'000 + static_cast<int64_t>(rng.NextBounded(2'000'000)));
      const int64_t pushed = SteadyNanos();
      ASSERT_TRUE(t.channels[0].Push(KeyedRecord(round)));
      ASSERT_TRUE(t.AwaitCount(0, round + 1));
      worst = std::max(worst, SteadyNanos() - pushed);
    }
    EXPECT_LT(worst, kLostWakeupNanos) << "worst delivery " << worst << " ns";
  }
}

// ---------------------------------------------------------------------------
// Backpressure signal survival (load-shedding regression guard)
// ---------------------------------------------------------------------------

TEST(BackpressureGuardTest, SaturatedRingStillDrivesShedPlanner) {
  // The shed planner and elasticity controller read Fullness/BlockedNanos;
  // the ring rewrite must keep producing those signals under saturation.
  Channel ch(64);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(ch.Push(StreamElement::Watermark(i)));
  }
  std::vector<StreamElement> extra;
  for (int i = 64; i < 80; ++i) extra.push_back(StreamElement::Watermark(i));
  std::thread producer([&] {
    EXPECT_TRUE(ch.PushBatch(extra.data(), extra.size()));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  double occupancy = ch.Fullness();
  EXPECT_DOUBLE_EQ(occupancy, 1.0);

  loadmgmt::ShedPlanner planner;
  EXPECT_GT(planner.Update(occupancy), 0.0);  // saturation => shedding kicks in

  std::vector<StreamElement> out(16);
  size_t drained = 0;
  while (drained < 80) drained += ch.PopBatch(out.data(), out.size());
  producer.join();
  EXPECT_GT(ch.BlockedNanos(), 1000000);  // blocked time accrued while full
}

// ---------------------------------------------------------------------------
// Record/control ordering through pipelines
// ---------------------------------------------------------------------------

ReplayableLog MakeWordLog(int n, int distinct, uint64_t seed = 7) {
  ReplayableLog log;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::string word = "w" + std::to_string(rng.NextBounded(distinct));
    log.Append(i, Value::Tuple(word, int64_t{1}));
  }
  return log;
}

std::map<std::string, int64_t> ExactCounts(const ReplayableLog& log) {
  std::map<std::string, int64_t> counts;
  for (size_t i = 0; i < log.size(); ++i) {
    const auto& l = log.at(i).payload.AsList();
    counts[l[0].AsString()] += l[1].AsInt();
  }
  return counts;
}

std::map<std::string, int64_t> FinalCounts(const std::vector<Record>& records) {
  std::map<std::string, int64_t> counts;
  for (const Record& r : records) {
    const auto& l = r.payload.AsList();
    int64_t c = l[1].AsInt();
    auto [it, inserted] = counts.emplace(l[0].AsString(), c);
    if (!inserted) it->second = std::max(it->second, c);
  }
  return counts;
}

// Keyed running count emitting (word, count) on every update.
std::unique_ptr<Operator> MakeCountOperator() {
  ProcessOperator::Hooks hooks;
  hooks.on_record = [](OperatorContext* ctx, Record& r, Collector* out) {
    state::ValueState<int64_t> count(ctx->state(), "count");
    EVO_ASSIGN_OR_RETURN(int64_t current, count.GetOr(0));
    int64_t next = current + r.payload.AsList()[1].AsInt();
    EVO_RETURN_IF_ERROR(count.Put(next));
    out->Emit(Record(r.event_time, r.key,
                     Value::Tuple(r.payload.AsList()[0], next)));
    return Status::OK();
  };
  return std::make_unique<ProcessOperator>(hooks);
}

Topology CountTopology(const ReplayableLog* log, CollectingSink* sink) {
  Topology topo;
  auto src = topo.AddSource("src", [log] {
    return std::make_unique<LogSource>(log);
  });
  auto keyed = topo.KeyBy(src, "key", [](const Value& v) {
    return v.AsList()[0];
  });
  auto counted = topo.Keyed(keyed, "count", MakeCountOperator, 4);
  topo.Sink(counted, "sink", sink->AsSinkFn());
  return topo;
}

TEST(DataPlaneOrderingTest, KeyedCountMatchesExact) {
  // Hash exchange: every record must arrive despite end-of-input and idle
  // moments.
  ReplayableLog log = MakeWordLog(5000, 37);
  CollectingSink sink;
  JobConfig config;
  JobRunner runner(CountTopology(&log, &sink), config);
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.AwaitCompletion(20000).ok());
  runner.Stop();
  EXPECT_EQ(FinalCounts(sink.Snapshot()), ExactCounts(log));
}

TEST(DataPlaneOrderingTest, BroadcastDeliversEverywhere) {
  // Broadcast fan-out: every subtask must see every record with an intact
  // payload (guards the move-into-last-target emit).
  ReplayableLog log;
  for (int i = 0; i < 100; ++i) log.Append(i, Value(int64_t{i}));

  Topology topo;
  auto src = topo.AddSource("src", [&] {
    return std::make_unique<LogSource>(&log);
  });
  auto op = topo.AddOperator("tag", [] {
    ProcessOperator::Hooks hooks;
    hooks.on_record = [](OperatorContext* ctx, Record& r, Collector* out) {
      out->Emit(Record(r.event_time, r.key,
                       Value::Tuple(static_cast<int64_t>(ctx->subtask_index()),
                                    r.payload)));
      return Status::OK();
    };
    return std::make_unique<ProcessOperator>(hooks);
  }, 3);
  ASSERT_TRUE(topo.Connect(src, op, Partitioning::kBroadcast).ok());
  CollectingSink sink;
  topo.Sink(op, "sink", sink.AsSinkFn());

  JobConfig config;
  JobRunner runner(topo, config);
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.AwaitCompletion(10000).ok());
  runner.Stop();

  auto records = sink.Snapshot();
  EXPECT_EQ(records.size(), 300u);
  std::map<int64_t, std::set<int64_t>> per_subtask;
  for (const Record& r : records) {
    const auto& l = r.payload.AsList();
    per_subtask[l[0].AsInt()].insert(l[1].AsInt());  // payload must be intact
  }
  ASSERT_EQ(per_subtask.size(), 3u);
  for (const auto& [subtask, values] : per_subtask) {
    EXPECT_EQ(values.size(), 100u) << "subtask " << subtask;
  }
}

TEST(DataPlaneOrderingTest, WatermarkOrderingDrivesEventTimeTimers) {
  // Watermarks must not overtake records: the timer at t=500 may only fire
  // after every record with ts < 500 reached the operator, so an early
  // watermark (records still queued upstream) would under-count.
  ReplayableLog log;
  for (int i = 0; i < 1000; ++i) {
    log.Append(i, Value::Tuple("k" + std::to_string(i % 3), int64_t{1}));
  }

  Topology topo;
  auto src = topo.AddSource("src", [&] {
    LogSourceOptions options;
    options.watermark_every = 10;
    return std::make_unique<LogSource>(&log, options);
  });
  auto keyed = topo.KeyBy(src, "key", [](const Value& v) {
    return v.AsList()[0];
  });
  auto op = topo.AddOperator("flush-at-500", [] {
    ProcessOperator::Hooks hooks;
    hooks.on_record = [](OperatorContext* ctx, Record& r, Collector*) {
      state::ValueState<int64_t> sum(ctx->state(), "sum");
      int64_t cur = sum.GetOr(0).ValueOr(0);
      (void)sum.Put(cur + 1);
      if (ctx->CurrentWatermark() < 500) {
        ctx->timers()->event_timers().Register(500, r.key);
      }
      return Status::OK();
    };
    hooks.on_timer = [](OperatorContext* ctx, const time::Timer& t,
                        Collector* out) {
      state::ValueState<int64_t> sum(ctx->state(), "sum");
      out->Emit(Record(t.when, t.key, Value(sum.GetOr(0).ValueOr(0))));
      return Status::OK();
    };
    return std::make_unique<ProcessOperator>(hooks);
  }, 2);
  ASSERT_TRUE(topo.Connect(keyed, op, Partitioning::kHash).ok());
  CollectingSink sink;
  topo.Sink(op, "sink", sink.AsSinkFn());

  JobConfig config;
  JobRunner runner(topo, config);
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.AwaitCompletion(10000).ok());
  runner.Stop();

  auto records = sink.Snapshot();
  ASSERT_EQ(records.size(), 3u);  // one firing per key, none early
  for (const Record& r : records) {
    EXPECT_EQ(r.event_time, 500);
    // The timer saw at least all records with ts < 500 for its key.
    EXPECT_GE(r.payload.AsInt(), 500 / 3);
  }
}

TEST(DataPlaneOrderingTest, BarrierOrderingExactlyOnceAcrossFailure) {
  // Barriers must not overtake records either: a barrier slipping ahead of
  // queued data would snapshot state that excludes records the rewound
  // source will not replay (loss) or re-deliver records already counted
  // (duplication). Checkpoint mid-run, crash, recover, and require exact
  // counts.
  ReplayableLog log = MakeWordLog(50000, 23, 11);
  CollectingSink sink;
  JobConfig config;

  auto runner1 =
      std::make_unique<JobRunner>(CountTopology(&log, &sink), config);
  ASSERT_TRUE(runner1->Start().ok());
  auto snapshot = runner1->TriggerCheckpoint(15000);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(runner1->InjectFailure("count", 0).ok());
  runner1->Stop();
  runner1.reset();

  JobRunner runner2(CountTopology(&log, &sink), config);
  ASSERT_TRUE(runner2.Start(&*snapshot).ok());
  ASSERT_TRUE(runner2.AwaitCompletion(30000).ok());
  runner2.Stop();

  // FinalCounts takes the max per key, so replayed interim emissions are
  // fine — but any barrier/data reordering shows up as a wrong final count.
  EXPECT_EQ(FinalCounts(sink.Snapshot()), ExactCounts(log));
}

TEST(DataPlaneOrderingTest, PeriodicBarriersRaceRecordsAndStayExact) {
  // Aligned barriers injected every few milliseconds while records flow:
  // alignment blocking an input must leave the rest of that input queued,
  // not drop it.
  ReplayableLog log = MakeWordLog(20000, 17, 13);
  CollectingSink sink;
  JobConfig config;
  config.checkpoint_interval_ms = 5;
  JobRunner runner(CountTopology(&log, &sink), config);
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.AwaitCompletion(30000).ok());
  runner.Stop();
  EXPECT_EQ(FinalCounts(sink.Snapshot()), ExactCounts(log));
}

}  // namespace
}  // namespace evo::dataflow
