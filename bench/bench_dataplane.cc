// Experiment E16 — data-plane cost: the SPSC ring channel against the
// pre-ring mutex channel it replaced, across the three exchange patterns
// the engine uses (forward / hash / broadcast), one element per push and
// one per pop, as engine tasks move them. Those three move watermarks; a
// fourth, forward exchange moves records carrying the EvoBench input
// payload, Tuple(id, due, amount). The ring encodes such a record into its
// slot and decodes it on the consumer; the mutex baseline moves the Value
// itself, as the engine did before, so its consumer frees the blocks its
// producer allocated.
//
// Two measurements per configuration:
//  - saturated throughput (records/sec, producer and consumers flat out;
//    p99 here is queueing-dominated and reported for completeness), and
//  - a low-rate latency probe (forward edge, throttled producer) where p99
//    isolates the per-record path cost, including the consumer's wakeup.
//
// Bar (DESIGN.md): ring >= mutex throughput on every exchange.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "dataflow/channel.h"
#include "dataflow/wakeup.h"
#include "obs/bench_artifact.h"

namespace evo {
namespace {

using dataflow::Channel;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The pre-ring channel, resurrected as the baseline: one mutex guarding a
// deque, condvars for both directions, a notify per push.
class MutexChannel {
 public:
  explicit MutexChannel(size_t capacity = 1024) : capacity_(capacity) {}

  bool Push(StreamElement e) {
    std::unique_lock<std::mutex> lock(mu_);
    if (queue_.size() >= capacity_) {
      not_full_.wait(lock, [&] { return queue_.size() < capacity_ || closed_; });
    }
    if (closed_) return false;
    queue_.push_back(std::move(e));
    not_empty_.notify_one();
    return true;
  }

  std::optional<StreamElement> TryPop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return std::nullopt;
    StreamElement e = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return e;
  }

  std::optional<StreamElement> PopWait(int64_t timeout_ms) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [&] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return std::nullopt;
    StreamElement e = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return e;
  }

  /// The baseline parks on its own condvar (PopWait); no wakeup word.
  void SetConsumerWakeup(dataflow::WakeupWord*) {}

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }
  size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<StreamElement> queue_;
  bool closed_ = false;
};

// Blocking pop with timeout. The ring's consumer parks on its wakeup word,
// as an engine task does; the mutex baseline parks on its own condvar.
std::optional<StreamElement> PopWait(Channel& ch, dataflow::WakeupWord& wakeup,
                                     int64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    if (auto e = ch.TryPop()) return e;
    if (ch.closed()) return ch.TryPop();
    if (!wakeup.Park(deadline, [&] { return ch.CanPop() || ch.closed(); })) {
      return ch.TryPop();  // timeout: one last look
    }
  }
}

std::optional<StreamElement> PopWait(MutexChannel& ch, dataflow::WakeupWord&,
                                     int64_t timeout_ms) {
  return ch.PopWait(timeout_ms);
}

enum class Exchange { kForward, kHash, kBroadcast, kForwardRecord };

const char* Name(Exchange e) {
  switch (e) {
    case Exchange::kForward: return "forward";
    case Exchange::kHash: return "hash";
    case Exchange::kBroadcast: return "broadcast";
    case Exchange::kForwardRecord: return "forward_record";
  }
  return "?";
}

size_t Fanout(Exchange e) {
  switch (e) {
    case Exchange::kForward: return 1;
    case Exchange::kHash: return 4;
    case Exchange::kBroadcast: return 3;
    case Exchange::kForwardRecord: return 1;
  }
  return 1;
}

// Element `i` of an exchange, stamped with `stamp` (0: no latency sample).
// Records carry the stamp as their event time.
StreamElement MakeElement(Exchange mode, size_t i, int64_t stamp) {
  if (mode != Exchange::kForwardRecord) return StreamElement::Watermark(stamp);
  const int64_t id = static_cast<int64_t>(i);
  return StreamElement::OfRecord(Record(
      stamp, HashInt(i), Value::Tuple(id, id * 1000, id % 1000)));
}

int64_t StampOf(const StreamElement& e) {
  return e.is_record() ? e.record.event_time : e.time;
}

struct EdgeResult {
  double rps = 0;     // records/sec delivered across all consumers
  double p99_us = 0;  // p99 stamp-to-pop latency, sampled
};

double P99(std::vector<int64_t>& nanos) {
  if (nanos.empty()) return 0;
  size_t idx = nanos.size() * 99 / 100;
  if (idx >= nanos.size()) idx = nanos.size() - 1;
  std::nth_element(nanos.begin(), nanos.begin() + idx, nanos.end());
  return static_cast<double>(nanos[idx]) / 1000.0;
}

// One producer pushing each element to its target channel(s), `Fanout`
// consumers popping one element at a time. Elements are stamped at push
// time so the sampled latency covers the full push -> pop path.
//
// Capacity is deliberately large (16K vs the engine's 1024 default): on
// machines with few cores the producer and consumers time-share, and a
// small ring would make the measurement track scheduler quantum handoffs
// instead of channel cost.
template <typename Ch>
EdgeResult RunExchange(Exchange mode, size_t n) {
  const size_t fanout = Fanout(mode);
  std::vector<std::unique_ptr<Ch>> channels;
  std::vector<std::unique_ptr<dataflow::WakeupWord>> wakeups;
  for (size_t i = 0; i < fanout; ++i) {
    channels.push_back(std::make_unique<Ch>(16384));
    wakeups.push_back(std::make_unique<dataflow::WakeupWord>());
    channels.back()->SetConsumerWakeup(wakeups.back().get());
  }

  std::vector<std::vector<int64_t>> lat(fanout);
  const int64_t start = NowNanos();

  std::vector<std::thread> consumers;
  for (size_t c = 0; c < fanout; ++c) {
    consumers.emplace_back([&, c] {
      Ch& ch = *channels[c];
      // The engine's task loop polls non-blockingly and only parks when
      // idle; mirror that: yield on empty for a while, then park in
      // PopWait. A consumer that parks on every empty poll measures futex
      // round trips; one that never parks burns the producer's timeslice.
      int empties = 0;
      while (true) {
        std::optional<StreamElement> e = ch.TryPop();
        if (!e.has_value()) {
          if (ch.closed() && ch.Size() == 0) break;
          if (++empties < 64) {
            std::this_thread::yield();
            continue;
          }
          empties = 0;
          e = PopWait(ch, *wakeups[c], 5);
          if (!e.has_value()) continue;
        }
        empties = 0;
        // Only 1-in-32 elements carry a stamp (nonzero): a clock read per
        // record would dominate the per-record cost being measured.
        if (StampOf(*e) != 0) lat[c].push_back(NowNanos() - StampOf(*e));
      }
    });
  }

  for (size_t i = 0; i < n; ++i) {
    StreamElement e = MakeElement(mode, i, (i & 31) == 0 ? NowNanos() : 0);
    if (mode == Exchange::kBroadcast) {
      for (size_t t = 0; t + 1 < fanout; ++t) channels[t]->Push(e);
      channels[fanout - 1]->Push(std::move(e));
    } else {
      channels[mode == Exchange::kHash ? i % fanout : 0]->Push(std::move(e));
    }
  }
  for (auto& ch : channels) ch->Close();
  for (auto& t : consumers) t.join();

  const double secs = static_cast<double>(NowNanos() - start) / 1e9;
  const size_t delivered = mode == Exchange::kBroadcast ? n * fanout : n;
  std::vector<int64_t> all;
  for (auto& l : lat) all.insert(all.end(), l.begin(), l.end());
  return EdgeResult{static_cast<double>(delivered) / secs, P99(all)};
}

// Low-rate probe: one record every `period_ns`, so p99 isolates the path
// cost, including the wakeup of a consumer parked between records.
template <typename Ch>
double RunLowRate(size_t n, int64_t period_ns) {
  Ch ch(1024);
  dataflow::WakeupWord wakeup;
  ch.SetConsumerWakeup(&wakeup);
  std::vector<int64_t> lat;
  lat.reserve(n);
  std::thread consumer([&] {
    // Blocking pop: at low rates the consumer parks between records, so the
    // sampled latency includes the futex wakeup the real task loop pays.
    while (true) {
      auto e = PopWait(ch, wakeup, 5);
      if (!e.has_value()) {
        if (ch.closed() && ch.Size() == 0) break;
        continue;
      }
      lat.push_back(NowNanos() - e->time);
    }
  });

  int64_t next = NowNanos();
  for (size_t i = 0; i < n; ++i) {
    while (NowNanos() < next) {}  // spin to the next emission slot
    next += period_ns;
    ch.Push(StreamElement::Watermark(NowNanos()));
  }
  ch.Close();
  consumer.join();
  return P99(lat);
}

}  // namespace
}  // namespace evo

int main() {
  using namespace evo;

  std::printf("Data plane: SPSC ring channel vs mutex channel\n");
  std::printf("bar: ring >= mutex throughput on every exchange\n\n");

  obs::BenchArtifact artifact("dataplane");
  const size_t kRecords = 2000000;

  bench::Table table({"exchange", "impl", "records/sec", "p99_us"});
  double worst_ratio = 0;
  for (Exchange mode : {Exchange::kForward, Exchange::kHash,
                        Exchange::kBroadcast, Exchange::kForwardRecord}) {
    const size_t n = Fanout(mode) == 1 ? kRecords : kRecords / 2;
    const std::string name = Name(mode);
    EdgeResult base = RunExchange<MutexChannel>(mode, n);
    EdgeResult ring = RunExchange<Channel>(mode, n);
    table.AddRow({name, "mutex", bench::Fmt(base.rps, 0),
                  bench::Fmt(base.p99_us, 1)});
    table.AddRow({name, "ring", bench::Fmt(ring.rps, 0),
                  bench::Fmt(ring.p99_us, 1)});
    artifact.Add(name + "_mutex_rps", base.rps);
    artifact.Add(name + "_mutex_p99_us", base.p99_us);
    artifact.Add(name + "_ring_rps", ring.rps);
    artifact.Add(name + "_ring_p99_us", ring.p99_us);
    const double ratio = ring.rps / base.rps;
    artifact.Add(name + "_ring_ratio", ratio);
    if (worst_ratio == 0 || ratio < worst_ratio) worst_ratio = ratio;
  }
  table.Print();

  std::printf("\nlow-rate probe (200k rec/s, forward edge):\n");
  bench::Table lowrate({"impl", "p99_us"});
  const size_t kProbe = 20000;
  const int64_t kPeriodNs = 5000;
  const double mutex_p99 = RunLowRate<MutexChannel>(kProbe, kPeriodNs);
  const double ring_p99 = RunLowRate<Channel>(kProbe, kPeriodNs);
  lowrate.AddRow({"mutex", bench::Fmt(mutex_p99, 1)});
  lowrate.AddRow({"ring", bench::Fmt(ring_p99, 1)});
  artifact.Add("lowrate_mutex_p99_us", mutex_p99);
  artifact.Add("lowrate_ring_p99_us", ring_p99);
  lowrate.Print();

  artifact.Add("worst_ring_ratio", worst_ratio);
  std::string path = artifact.WriteFile();
  std::printf("\nwrote %s\n", path.c_str());
  std::printf("takeaway: worst exchange ring = %.2fx mutex (bar: >=1x)\n",
              worst_ratio);
  return 0;
}
