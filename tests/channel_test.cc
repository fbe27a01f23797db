// Tests for the data plane: SPSC ring channel semantics (FIFO order across
// ring wrap, exact logical capacity, blocking backpressure, close-wakes-
// producer, destruction of queued elements, residency of unwritten slots,
// bit-exact wire-form round trips of every value type and control kind,
// a stress run with a parked consumer and concurrent lock-free metric
// reads, and a many-producer, many-consumer mesh of channels), the task
// wakeup protocol (seeded lost-wakeup races against a
// parking task) and record/control ordering through real pipelines
// (hash/broadcast delivery, watermark and barrier ordering, exactly-once
// across failure, and the backpressure signals load shedding depends on).

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
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

StreamElement KeyedRecord(uint64_t key) {
  Record r(0, Value(int64_t{1}));
  r.key = key;
  return StreamElement::OfRecord(std::move(r));
}

/// A record whose payload owns heap memory: a long string and a list.
StreamElement HeapRecord(int64_t i) {
  ValueList tags;
  for (int t = 0; t < 8; ++t) tags.emplace_back(std::string(512, 'a' + t));
  return StreamElement::OfRecord(
      i, Value::Tuple(std::string(4096, 'x'), std::move(tags), i));
}

// ---------------------------------------------------------------------------
// Ring channel
// ---------------------------------------------------------------------------

TEST(ChannelTest, FifoOrderAndClose) {
  Channel ch(4);
  EXPECT_TRUE(ch.Push(StreamElement::Watermark(1)));
  EXPECT_TRUE(ch.Push(StreamElement::Watermark(2)));
  auto a = ch.TryPop();
  auto b = ch.TryPop();
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->time, 1);
  EXPECT_EQ(b->time, 2);
  EXPECT_FALSE(ch.TryPop().has_value());
  ch.Close();
  EXPECT_FALSE(ch.Push(StreamElement::Watermark(3)));
}

TEST(RingChannelTest, FifoOrderAcrossRingWrap) {
  // Runs of pushes and pops whose lengths never line up with each other or
  // with the ring (capacity 5, ring of 8 slots) wrap the cursors ~125
  // times; the element order must be exactly the push order throughout.
  constexpr int kTotal = 1000;
  Channel ch(5);
  int next = 0;
  int expect = 0;
  size_t push_run = 1;
  size_t pop_run = 2;
  while (expect < kTotal) {
    for (size_t i = 0; i < push_run && next < kTotal &&
                       ch.Size() < ch.capacity();
         ++i) {
      ASSERT_TRUE(ch.Push(StreamElement::Watermark(next++)));
    }
    for (size_t i = 0; i < pop_run; ++i) {
      auto e = ch.TryPop();
      if (!e.has_value()) break;
      EXPECT_EQ(e->time, expect++);
    }
    push_run = push_run % 5 + 1;  // 1..5
    pop_run = pop_run % 3 + 1;    // 1..3
  }
  EXPECT_EQ(next, kTotal);
  EXPECT_EQ(ch.Size(), 0u);
  EXPECT_FALSE(ch.TryPop().has_value());
  EXPECT_EQ(ch.PushedCount(), static_cast<uint64_t>(kTotal));
}

/// Fills a channel of `capacity` and checks that the logical capacity is the
/// backpressure threshold: the push one past it blocks until a pop frees a
/// slot.
void ExpectPushPastCapacityBlocks(size_t capacity) {
  Channel ch(capacity);
  EXPECT_EQ(ch.capacity(), capacity);
  for (size_t i = 0; i < capacity; ++i) {
    ASSERT_TRUE(ch.Push(StreamElement::Watermark(static_cast<TimeMs>(i))));
  }
  EXPECT_EQ(ch.Size(), capacity);
  EXPECT_DOUBLE_EQ(ch.Fullness(), 1.0);

  // The producer role passes to this thread (ordered by its start).
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_TRUE(ch.Push(StreamElement::Watermark(100)));
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());  // one past the capacity: blocked
  EXPECT_EQ(ch.Size(), capacity);
  EXPECT_EQ(ch.PushedCount(), capacity);

  auto first = ch.TryPop();  // frees a slot; the producer completes
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->time, 0);
  producer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(ch.Size(), capacity);
}

TEST(RingChannelTest, NonPowerOfTwoCapacityIsExact) {
  // The ring rounds 3 up to 4 slots internally, but the logical capacity
  // must stay exactly as requested.
  ExpectPushPastCapacityBlocks(3);
}

TEST(ChannelTest, TryPushFailsWhenFull) {
  // There is no non-blocking push any more; a full channel (capacity 2, a
  // power of two, so ring and logical capacity agree) refuses the next
  // element by blocking the producer until the consumer pops.
  ExpectPushPastCapacityBlocks(2);
}

TEST(ChannelTest, BlockingPushRecordsBackpressureTime) {
  Channel ch(1);
  ASSERT_TRUE(ch.Push(StreamElement::Watermark(1)));
  std::thread producer([&] { ch.Push(StreamElement::Watermark(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(ch.TryPop().has_value());  // unblocks the producer
  producer.join();
  EXPECT_GT(ch.BlockedNanos(), 1000000);  // >1ms spent blocked
}

TEST(RingChannelTest, BatchPushBlocksOnFullRingAndAccruesBlockedTime) {
  // A run of pushes far longer than the capacity (the single-element form
  // of a batch) blocks again and again; every element still arrives in
  // order, and the blocked time is the backpressure signal.
  constexpr size_t kCapacity = 4;
  constexpr int kBatch = 32;
  Channel ch(kCapacity);
  std::thread producer([&] {
    for (int i = 0; i < kBatch; ++i) {
      EXPECT_TRUE(ch.Push(StreamElement::Watermark(i)));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ch.Size(), kCapacity);  // producer parked on a full ring

  int expect = 0;
  while (expect < kBatch) {
    auto e = ch.TryPop();
    if (!e.has_value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    EXPECT_EQ(e->time, expect++);
  }
  producer.join();
  EXPECT_GT(ch.BlockedNanos(), 1000000);  // >1ms spent blocked
}

TEST(RingChannelTest, CloseWakesBlockedProducer) {
  Channel ch(2);
  std::atomic<int> pushed{0};
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    for (int i = 0; i < 8; ++i) {
      if (!ch.Push(StreamElement::Watermark(i))) break;  // closed mid-push
      pushed.fetch_add(1);
    }
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());  // still parked on the full ring
  ch.Close();
  producer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(pushed.load(), 2);

  // Elements enqueued before the close stay poppable, in order.
  auto a = ch.TryPop();
  auto b = ch.TryPop();
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->time, 0);
  EXPECT_EQ(b->time, 1);
  EXPECT_FALSE(ch.TryPop().has_value());
}

// ---------------------------------------------------------------------------
// Wire form: records cross a channel encoded
// ---------------------------------------------------------------------------

/// Equal type and equal bits: a double is compared by its bit pattern, so
/// -0.0 differs from 0.0 and a NaN equals the same NaN.
bool SameBits(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.is_double()) {
    return std::bit_cast<uint64_t>(a.AsDouble()) ==
           std::bit_cast<uint64_t>(b.AsDouble());
  }
  if (!a.is_list()) return a == b;
  const ValueList& la = a.AsList();
  const ValueList& lb = b.AsList();
  if (la.size() != lb.size()) return false;
  for (size_t i = 0; i < la.size(); ++i) {
    if (!SameBits(la[i], lb[i])) return false;
  }
  return true;
}

/// Pushes each payload as a record through one channel, three at a time so
/// the cursors wrap its ring of four, and checks event time, key and
/// payload bits on the way out.
void ExpectRecordsRoundTrip(const std::vector<Value>& payloads) {
  Channel ch(3);
  size_t popped = 0;
  for (size_t pushed = 0; pushed < payloads.size();) {
    for (int n = 0; n < 3 && pushed < payloads.size(); ++n, ++pushed) {
      const TimeMs ts = -1000 + static_cast<TimeMs>(pushed);
      const uint64_t key = ~uint64_t{0} - pushed;
      ASSERT_TRUE(ch.Push(StreamElement::OfRecord(
          Record(ts, key, payloads[pushed]))));
    }
    while (auto e = ch.TryPop()) {
      SCOPED_TRACE("payload " + std::to_string(popped));
      ASSERT_TRUE(e->is_record());
      EXPECT_EQ(e->record.event_time, -1000 + static_cast<TimeMs>(popped));
      EXPECT_EQ(e->record.key, ~uint64_t{0} - popped);
      EXPECT_TRUE(SameBits(e->record.payload, payloads[popped]))
          << e->record.payload.ToString() << " vs "
          << payloads[popped].ToString();
      ++popped;
    }
  }
  EXPECT_EQ(popped, payloads.size());
}

TEST(WireFormTest, EveryValueTypeCrossesBitExact) {
  const double nan = std::bit_cast<double>(uint64_t{0x7ff80000deadbeef});
  ASSERT_TRUE(std::isnan(nan));
  std::vector<Value> payloads = {
      Value(),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max()),
      Value(int64_t{0}),
      Value(-0.0),
      Value(nan),
      Value(std::numeric_limits<double>::infinity()),
      Value(true),
      Value(false),
      Value(std::string()),
      Value("short"),
      Value(std::string(300, 'L')),
      Value(std::string("nul\0inside", 10)),
      Value(ValueList{}),
      Value::Tuple(int64_t{7}, ValueList{}, Value::Tuple(-0.0, nan, "x"),
                   Value::Tuple(Value::Tuple(Value(), false))),
  };
  ExpectRecordsRoundTrip(payloads);
}

TEST(WireFormTest, PayloadsAtAndPastTheInlineSizeRoundTrip) {
  // A string of n < 128 bytes encodes to n + 2 (type tag, varint length).
  const size_t n = Channel::kInlineBytes - 2;
  const Value at_size(std::string(n, 'a'));
  const Value one_over(std::string(n + 1, 'b'));
  ASSERT_EQ(SerializeToString(at_size).size(), Channel::kInlineBytes);
  ASSERT_EQ(SerializeToString(one_over).size(), Channel::kInlineBytes + 1);
  // Interleaved with inline records, so heap and inline slots alternate
  // across the ring wrap.
  ExpectRecordsRoundTrip({at_size, one_over, Value(int64_t{1}), one_over,
                          at_size, Value(std::string(64 * 1024, 'c')),
                          Value::Tuple(one_over, at_size), at_size});
}

TEST(WireFormTest, ControlElementsPassUnchanged) {
  const std::vector<StreamElement> sent = {
      StreamElement::Watermark(-5),
      StreamElement::Watermark(std::numeric_limits<TimeMs>::max()),
      StreamElement::Punctuation(42, 0, /*key_scoped=*/false),
      StreamElement::Punctuation(43, 0xfeedfacecafebeefULL,
                                 /*key_scoped=*/true),
      StreamElement::Barrier(7, CheckpointMode::kAligned),
      StreamElement::Barrier(~uint64_t{0}, CheckpointMode::kUnaligned),
      StreamElement::LatencyMarker(123456789),
      StreamElement::EndOfStream(),
  };
  Channel ch(sent.size());
  for (const StreamElement& e : sent) ASSERT_TRUE(ch.Push(e));
  for (const StreamElement& want : sent) {
    auto got = ch.TryPop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->kind, want.kind);
    EXPECT_EQ(got->time, want.time);
    EXPECT_EQ(got->tag, want.tag);
    EXPECT_EQ(got->key_scoped, want.key_scoped);
    EXPECT_EQ(got->mode, want.mode);
  }
  EXPECT_FALSE(ch.TryPop().has_value());
}

TEST(RingChannelRaceTest, CloseRacesParkedProducerUnderInjectedSlowConsumer) {
  // Guards the waiting-flag fences in Enqueue()/WakeProducer()/Close(): a
  // producer parked on a full ring must wake whether a slot frees up (the
  // slow consumer finally pops) or the channel closes mid-push. The injected
  // per-barrier delay plus the per-iteration jitter sweeps the close across
  // the full-check -> park window; a missed wakeup hangs the join and times
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
    // racing close. The consumer role passed to this thread at the join.
    while (auto e = ch.TryPop()) {
      EXPECT_EQ(e->tag, next_pop.load());
      next_pop.fetch_add(1);
    }
    EXPECT_EQ(next_pop.load(), static_cast<uint64_t>(produced.load()));
  }
}

TEST(RingChannelStressTest, SpscParkedConsumerKeepsFifoUnderBackpressure) {
  // The engine's traffic: one producer, one consumer that parks on a
  // WakeupWord as a task does, and a capacity (3) below the ring size, so
  // both sides block and park constantly. A poller hammers the lock-free
  // metric reads the whole time (the TSan target for the relaxed atomics).
  constexpr int64_t kTotal = 200000;
  Channel ch(3);
  WakeupWord wakeup;
  ch.SetConsumerWakeup(&wakeup);

  std::atomic<bool> done{false};
  std::thread poller([&] {
    // Metric reads must never block or race with the data path.
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_LE(ch.Size(), ch.capacity());
      EXPECT_GE(ch.Fullness(), 0.0);
      EXPECT_GE(ch.BlockedNanos(), 0);
      EXPECT_LE(ch.PushedCount(), static_cast<uint64_t>(kTotal));
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  std::thread producer([&] {
    for (int64_t i = 0; i < kTotal; ++i) {
      ASSERT_TRUE(ch.Push(KeyedRecord(static_cast<uint64_t>(i))));
    }
  });

  uint64_t expect = 0;
  while (expect < static_cast<uint64_t>(kTotal)) {
    if (auto e = ch.TryPop()) {
      ASSERT_EQ(e->record.key, expect);  // exact global FIFO
      ++expect;
      continue;
    }
    wakeup.Park(std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(100),
                [&] { return ch.CanPop(); });
  }
  producer.join();
  done.store(true, std::memory_order_release);
  poller.join();

  EXPECT_FALSE(ch.TryPop().has_value());
  EXPECT_EQ(ch.Size(), 0u);
  EXPECT_EQ(ch.PushedCount(), static_cast<uint64_t>(kTotal));
  // The tiny capacity guarantees the producer actually blocked.
  EXPECT_GT(ch.BlockedNanos(), 0);
}

TEST(RingChannelStressTest, MpmcBatchesNoLossNoDuplicationOrderPerProducer) {
  // Many producers and many consumers the way a hash exchange wires them:
  // one SPSC channel per (producer, consumer) pair, each consumer parked on
  // one WakeupWord shared by all its inputs, as a task with several inputs
  // is. Producers send runs (batches) of variable length to one consumer
  // before switching to the next, then close their outputs; a poller
  // hammers the lock-free metric reads of every channel the whole time.
  constexpr int kProducers = 3;
  constexpr int kConsumers = 2;
  constexpr int64_t kPerProducer = 20000;
  constexpr int64_t kStride = 1000000;
  std::vector<std::vector<std::unique_ptr<Channel>>> channels(kProducers);
  std::vector<WakeupWord> wakeups(kConsumers);
  for (int p = 0; p < kProducers; ++p) {
    for (int c = 0; c < kConsumers; ++c) {
      channels[p].push_back(std::make_unique<Channel>(7));
      channels[p][c]->SetConsumerWakeup(&wakeups[c]);
    }
  }

  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (auto& row : channels) {
        for (auto& ch : row) {
          EXPECT_LE(ch->Size(), ch->capacity());
          EXPECT_GE(ch->Fullness(), 0.0);
          EXPECT_GE(ch->BlockedNanos(), 0);
          EXPECT_LE(ch->PushedCount(), static_cast<uint64_t>(kPerProducer));
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&channels, p] {
      int64_t sent = 0;
      size_t run = static_cast<size_t>(p) + 1;
      int target = p % kConsumers;
      while (sent < kPerProducer) {
        for (size_t i = 0; i < run && sent < kPerProducer; ++i) {
          ASSERT_TRUE(channels[p][target]->Push(
              StreamElement::Watermark(p * kStride + sent++)));
        }
        run = run % 17 + 1;
        target = (target + 1) % kConsumers;
      }
      for (auto& ch : channels[p]) ch->Close();
    });
  }

  std::vector<std::vector<int64_t>> received(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      std::vector<bool> finished(kProducers, false);
      std::vector<int64_t> last_seen(kProducers, -1);
      int open = kProducers;
      while (open > 0) {
        bool progressed = false;
        for (int p = 0; p < kProducers; ++p) {
          if (finished[p]) continue;
          Channel& ch = *channels[p][c];
          // Read before draining: every push precedes the close, so a
          // drain after seeing it closed leaves the input empty for good.
          const bool was_closed = ch.closed();
          while (auto e = ch.TryPop()) {
            ASSERT_EQ(e->time / kStride, p);
            const int64_t seq = e->time % kStride;
            EXPECT_GT(seq, last_seen[p]);  // FIFO per producer
            last_seen[p] = seq;
            received[c].push_back(e->time);
            progressed = true;
          }
          if (was_closed) {
            finished[p] = true;
            --open;
          }
        }
        if (progressed || open == 0) continue;
        wakeups[c].Park(
            std::chrono::steady_clock::now() + std::chrono::milliseconds(100),
            [&] {
              for (int p = 0; p < kProducers; ++p) {
                if (finished[p]) continue;
                const Channel& ch = *channels[p][c];
                if (ch.CanPop() || ch.closed()) return true;
              }
              return false;
            });
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();
  done.store(true, std::memory_order_release);
  poller.join();

  // No loss, no duplication: together the consumers saw every value once.
  std::vector<int64_t> all;
  for (auto& r : received) all.insert(all.end(), r.begin(), r.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<size_t>(kProducers * kPerProducer));
  size_t i = 0;
  for (int64_t p = 0; p < kProducers; ++p) {
    for (int64_t seq = 0; seq < kPerProducer; ++seq) {
      ASSERT_EQ(all[i++], p * kStride + seq);
    }
  }
  for (int c = 0; c < kConsumers; ++c) EXPECT_FALSE(received[c].empty());
  for (auto& row : channels) {
    for (auto& ch : row) EXPECT_EQ(ch->Size(), 0u);
  }
}

TEST(RingChannelTest, QueuedElementsAreDestroyedWithTheChannel) {
  // Records are still queued, some of them across the ring wrap, when the
  // channel is destroyed. Their payloads alternate between over-inline
  // ones, whose slots own a heap buffer, and inline ones: each heap buffer
  // must be freed exactly once, and nothing else. A leak shows in the main
  // arena's in-use bytes here and in the leak-checked ASan run; a double or
  // stray free aborts either build.
  auto record = [](int64_t i) {
    return i % 2 == 0 ? HeapRecord(i) : StreamElement::OfRecord(i, Value(i));
  };
  const size_t before = mallinfo2().uordblks;
  {
    Channel ch(8);
    for (int64_t i = 0; i < 6; ++i) ASSERT_TRUE(ch.Push(record(i)));
    for (int64_t i = 0; i < 4; ++i) ASSERT_TRUE(ch.TryPop().has_value());
    for (int64_t i = 6; i < 12; ++i) ASSERT_TRUE(ch.Push(record(i)));
    EXPECT_EQ(ch.Size(), 8u);  // slots 4..11: the queue wraps the ring
  }
  const size_t after = mallinfo2().uordblks;
  // Four queued records own about 33 KB; allow a little unrelated churn.
  EXPECT_LT(after, before + 16 * 1024) << "before " << before << " after "
                                       << after;
}

/// Resident set size of this process in KB, from /proc/self/status.
size_t ResidentKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoul(line.substr(6));
  }
  return 0;
}

TEST(RingChannelTest, UnwrittenSlotsAreNotResident) {
  // A feedback edge's channel holds 2^20 slots of 128 bytes, 128 MB if all
  // were written. Slots are raw storage written on push, so building one
  // and passing a few records through must leave the rest untouched. The
  // bound leaves room for ASan's shadow of the reservation (1/8 of it).
  const size_t before = ResidentKb();
  ASSERT_GT(before, 0u);
  Channel ch(1 << 20);
  for (int64_t i = 0; i < 64; ++i) ASSERT_TRUE(ch.Push(HeapRecord(i)));
  for (int64_t i = 0; i < 64; ++i) {
    auto e = ch.TryPop();
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->record.event_time, i);
  }
  const size_t during = ResidentKb();
  const size_t growth = during > before ? during - before : 0;
  EXPECT_LT(growth, 32u * 1024) << "VmRSS grew by " << growth << " KB";
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
  // a saturated ring must keep producing those signals.
  Channel ch(64);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(ch.Push(StreamElement::Watermark(i)));
  }
  std::thread producer([&] {
    for (int i = 64; i < 80; ++i) {
      EXPECT_TRUE(ch.Push(StreamElement::Watermark(i)));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  double occupancy = ch.Fullness();
  EXPECT_DOUBLE_EQ(occupancy, 1.0);

  loadmgmt::ShedPlanner planner;
  EXPECT_GT(planner.Update(occupancy), 0.0);  // saturation => shedding kicks in

  int drained = 0;
  while (drained < 80) {
    auto e = ch.TryPop();
    if (!e.has_value()) continue;
    EXPECT_EQ(e->time, drained++);
  }
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
  // payload (guards the emit that encodes one element for every target).
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

TEST(DataPlaneOrderingTest, BroadcastHeapPayloadArrivesWholeAtEveryTarget) {
  // A broadcast pushes the same element to each of 3 targets. Its payload
  // owns heap memory and encodes past a slot's inline bytes, so each target
  // decodes its own copy from its own heap buffer; all 3 copies must equal
  // the source's payload.
  constexpr int kRecords = 20;
  ReplayableLog log;
  for (int i = 0; i < kRecords; ++i) {
    log.Append(i, std::move(HeapRecord(i).record.payload));
  }

  Topology topo;
  auto src = topo.AddSource("src", [&] {
    return std::make_unique<LogSource>(&log);
  });
  auto op = topo.AddOperator("tag", [] {
    ProcessOperator::Hooks hooks;
    hooks.on_record = [](OperatorContext* ctx, Record& r, Collector* out) {
      out->Emit(Record(r.event_time, r.key,
                       Value::Tuple(static_cast<int64_t>(ctx->subtask_index()),
                                    std::move(r.payload))));
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
  EXPECT_EQ(records.size(), 3u * kRecords);
  std::map<int64_t, int> per_subtask;
  for (const Record& r : records) {
    const auto& l = r.payload.AsList();
    ++per_subtask[l[0].AsInt()];
    ASSERT_GE(r.event_time, 0);
    ASSERT_LT(r.event_time, kRecords);
    EXPECT_EQ(l[1], log.at(static_cast<size_t>(r.event_time)).payload)
        << "subtask " << l[0].AsInt() << " record " << r.event_time;
  }
  ASSERT_EQ(per_subtask.size(), 3u);
  for (const auto& [subtask, count] : per_subtask) {
    EXPECT_EQ(count, kRecords) << "subtask " << subtask;
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

/// Emits records as fast as its output takes them and counts them. Every
/// other one owns heap memory and encodes past a slot's inline bytes.
class HeapRecordSource final : public Source {
 public:
  explicit HeapRecordSource(std::atomic<int64_t>* emitted)
      : emitted_(emitted) {}
  SourcePoll Next() override {
    const int64_t i = emitted_->fetch_add(1);
    if (i % 2 == 1) return SourcePoll::Of(Record(i, Value(i)));
    return SourcePoll::Of(std::move(HeapRecord(i).record));
  }

 private:
  std::atomic<int64_t>* emitted_;
};

TEST(DataPlaneOrderingTest, StopWithRecordsQueuedDestroysEachOnce) {
  // The sink holds its first record until the job is stopping, so the
  // source fills the channel, across its ring wrap, with records that
  // alternate between heap-owning and inline payloads, and blocks. Stop
  // closes the channel with them still queued; destroying the runner frees
  // each heap payload exactly once (the leak-checked ASan run sees a leak,
  // and either build aborts on a double or stray free).
  constexpr size_t kCapacity = 16;
  std::atomic<int64_t> emitted{0};
  std::atomic<bool> release{false};
  std::atomic<int> seen{0};
  Topology topo;
  auto src = topo.AddSource(
      "src", [&] { return std::make_unique<HeapRecordSource>(&emitted); });
  topo.Sink(src, "held-sink", [&](const Record&) {
    if (seen.fetch_add(1) == 0) {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  JobConfig config;
  config.channel_capacity = kCapacity;
  auto runner = std::make_unique<JobRunner>(topo, config);
  ASSERT_TRUE(runner->Start().ok());

  // One record held by the sink, kCapacity queued, one more in a blocked
  // push: the channel is full.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (emitted.load() < static_cast<int64_t>(kCapacity) + 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Stop cancels the sink task at once; the release then lets it return to
  // its loop, which sees the cancel before popping again.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    release.store(true);
  });
  runner->Stop();
  releaser.join();
  EXPECT_EQ(seen.load(), 1);
  EXPECT_GE(emitted.load() - seen.load(), static_cast<int64_t>(kCapacity));
  runner.reset();  // destroys the channel and what is queued in it
}

}  // namespace
}  // namespace evo::dataflow
