// Concurrency stress tests for the shared infrastructure: producers fanning
// in to one parked consumer over their own channels, a channel closed under
// a blocked producer, the transactional store under heavy contention, the
// model registry under concurrent swap/read, and the subscriber registry
// under attach/detach races. Single-channel traffic (one producer, one
// parked consumer) is stressed in channel_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "actors/statefun.h"
#include "common/rng.h"
#include "dataflow/channel.h"
#include "dataflow/dynamic.h"
#include "dataflow/wakeup.h"
#include "ml/serving.h"

namespace evo {
namespace {

TEST(ChannelStressTest, MultipleProducersNoLossNoDuplication) {
  // A channel has one producer, so several producers fan in the way a task
  // with several upstream subtasks receives: each over its own channel, all
  // of them signalling the one WakeupWord the consumer parks on.
  const int kProducers = 4;
  const int kPerProducer = 20000;
  dataflow::WakeupWord wakeup;
  std::vector<std::unique_ptr<dataflow::Channel>> channels;
  for (int p = 0; p < kProducers; ++p) {
    // Small: forces constant backpressure.
    channels.push_back(std::make_unique<dataflow::Channel>(4));
    channels.back()->SetConsumerWakeup(&wakeup);
  }

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&channels, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Record r(i, static_cast<uint64_t>(p),
                 Value(static_cast<int64_t>(p * kPerProducer + i)));
        ASSERT_TRUE(channels[p]->Push(StreamElement::OfRecord(std::move(r))));
      }
    });
  }

  std::vector<int64_t> seen;
  seen.reserve(kProducers * kPerProducer);
  std::thread consumer([&] {
    size_t expected = static_cast<size_t>(kProducers) * kPerProducer;
    while (seen.size() < expected) {
      bool progressed = false;
      for (auto& ch : channels) {
        if (auto e = ch->TryPop()) {
          seen.push_back(e->record.payload.AsInt());
          progressed = true;
        }
      }
      if (progressed) continue;
      wakeup.Park(std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(100),
                  [&] {
                    for (auto& ch : channels) {
                      if (ch->CanPop()) return true;
                    }
                    return false;
                  });
    }
  });
  for (auto& t : producers) t.join();
  consumer.join();

  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), static_cast<size_t>(kProducers) * kPerProducer);
  for (size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i], static_cast<int64_t>(i));  // exactly 0..N-1 once each
  }
  // The tiny capacity guarantees producers actually blocked.
  int64_t blocked = 0;
  for (auto& ch : channels) blocked += ch->BlockedNanos();
  EXPECT_GT(blocked, 0);
}

TEST(ChannelStressTest, CloseUnblocksProducersAndConsumers) {
  dataflow::Channel channel(1);
  ASSERT_TRUE(channel.Push(StreamElement::Watermark(1)));
  std::thread blocked_producer([&] {
    // Will block on full channel until Close.
    bool pushed = channel.Push(StreamElement::Watermark(2));
    EXPECT_FALSE(pushed);  // woken by close
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  channel.Close();
  blocked_producer.join();
  // Pending element remains poppable after close.
  EXPECT_TRUE(channel.TryPop().has_value());
}

TEST(ModelRegistryStressTest, ConcurrentSwapAndReadAlwaysConsistent) {
  ml::ModelRegistry registry(ml::OnlineLogisticRegression(2));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto live = registry.Live();
        // The snapshot must be internally consistent: version v has exactly
        // v-1 updates applied (publisher invariant below).
        ASSERT_EQ(live->model.update_count(), live->version - 1);
        ++reads;
      }
    });
  }

  ml::OnlineLogisticRegression model(2);
  for (int swap = 0; swap < 300; ++swap) {
    model.Update({0.5, 0.5}, swap % 2 == 0);
    registry.Publish(model);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(reads.load(), 1000u);
  EXPECT_EQ(registry.Live()->version, 301u);
}

TEST(SubscriberRegistryStressTest, AttachDetachRacesWithDelivery) {
  dataflow::SubscriberRegistry registry;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> delivered{0};

  std::thread deliverer([&] {
    Record r(0, 0, Value(int64_t{1}));
    while (!stop.load(std::memory_order_acquire)) {
      registry.Deliver(r);
    }
  });

  std::vector<std::thread> churners;
  for (int t = 0; t < 3; ++t) {
    churners.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 500; ++i) {
        uint64_t id = registry.Subscribe([&](const Record&) { ++delivered; });
        if (rng.NextBool(0.7)) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        ASSERT_TRUE(registry.Unsubscribe(id));
      }
    });
  }
  for (auto& t : churners) t.join();
  stop.store(true);
  deliverer.join();
  EXPECT_EQ(registry.Count(), 0u);
}

}  // namespace
}  // namespace evo
