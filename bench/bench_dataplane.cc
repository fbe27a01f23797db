// Experiment E-dataplane — batched low-contention data plane: the ring
// channel (Vyukov MPMC + batch claims) against the pre-ring mutex channel
// it replaced, across the three exchange patterns the engine uses
// (forward / hash / broadcast) and emit batch sizes {1, 8, 64, 256}.
//
// Two measurements per configuration:
//  - saturated throughput (records/sec, producer and consumers flat out;
//    p99 here is queueing-dominated and reported for completeness), and
//  - a low-rate latency probe (forward edge, throttled producer) where p99
//    isolates the per-record path cost plus the staging wait, bounded by
//    a 500us linger. The batch sizes and the linger belong to this
//    benchmark's producer loop; engine tasks push each element unbatched.
//
// Bar (DESIGN.md): ring at batch 64 >= 3x mutex single-edge throughput;
// ring at batch 1 no slower than mutex.

#include <algorithm>
#include <atomic>
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
// deque, condvars for both directions, a notify per push. Batch calls
// degenerate to per-element locking — exactly what the old data plane paid.
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

  bool PushBatch(StreamElement* batch, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (!Push(std::move(batch[i]))) return false;
    }
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

  size_t PopBatch(StreamElement* out, size_t max_n) {
    size_t got = 0;
    while (got < max_n) {
      auto e = TryPop();
      if (!e.has_value()) break;
      out[got++] = std::move(*e);
    }
    return got;
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

enum class Exchange { kForward, kHash, kBroadcast };

const char* Name(Exchange e) {
  switch (e) {
    case Exchange::kForward: return "forward";
    case Exchange::kHash: return "hash";
    case Exchange::kBroadcast: return "broadcast";
  }
  return "?";
}

size_t Fanout(Exchange e) {
  switch (e) {
    case Exchange::kForward: return 1;
    case Exchange::kHash: return 4;
    case Exchange::kBroadcast: return 3;
  }
  return 1;
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

// One producer staging `batch` elements per target channel, `Fanout`
// consumers popping batches. Elements are stamped at staging time so the
// sampled latency covers the full stage -> flush -> pop path.
//
// Capacity is deliberately large (16K vs the engine's 1024 default): on
// machines with few cores the producer and consumers time-share, and a
// small ring would make the measurement track scheduler quantum handoffs
// instead of channel cost.
template <typename Ch>
EdgeResult RunExchange(Exchange mode, size_t n, size_t batch) {
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
      std::vector<StreamElement> buf(std::max<size_t>(batch, 256));
      // The engine's task loop polls non-blockingly and only parks when
      // idle; mirror that: yield on empty for a while, then park in
      // PopWait. A consumer that parks on every empty poll measures futex
      // round trips; one that never parks burns the producer's timeslice.
      int empties = 0;
      while (true) {
        size_t got = ch.PopBatch(buf.data(), buf.size());
        if (got == 0) {
          if (ch.closed() && ch.Size() == 0) break;
          if (++empties < 64) {
            std::this_thread::yield();
          } else {
            empties = 0;
            auto e = PopWait(ch, *wakeups[c], 5);
            if (e.has_value() && e->time != 0) {
              lat[c].push_back(NowNanos() - e->time);
            }
          }
          continue;
        }
        empties = 0;
        int64_t now = NowNanos();
        for (size_t i = 0; i < got; ++i) {
          // Only 1-in-32 elements carry a stamp (time != 0): a clock read
          // per record would dominate the per-record cost being measured.
          if (buf[i].time != 0) lat[c].push_back(now - buf[i].time);
        }
      }
    });
  }

  {
    std::vector<std::vector<StreamElement>> stage(
        fanout, std::vector<StreamElement>(batch));
    std::vector<size_t> fill(fanout, 0);
    for (size_t i = 0; i < n; ++i) {
      StreamElement e =
          StreamElement::Watermark((i & 31) == 0 ? NowNanos() : 0);
      if (mode == Exchange::kBroadcast) {
        for (size_t t = 0; t + 1 < fanout; ++t) stage[t][fill[t]++] = e;
        stage[fanout - 1][fill[fanout - 1]++] = std::move(e);
        if (fill[0] == batch) {  // broadcast targets fill in lockstep
          for (size_t t = 0; t < fanout; ++t) {
            channels[t]->PushBatch(stage[t].data(), batch);
            fill[t] = 0;
          }
        }
      } else {
        size_t t = mode == Exchange::kHash ? i % fanout : 0;
        stage[t][fill[t]++] = std::move(e);
        if (fill[t] == batch) {
          channels[t]->PushBatch(stage[t].data(), batch);
          fill[t] = 0;
        }
      }
    }
    for (size_t t = 0; t < fanout; ++t) {
      if (fill[t] > 0) channels[t]->PushBatch(stage[t].data(), fill[t]);
      channels[t]->Close();
    }
  }
  for (auto& t : consumers) t.join();

  const double secs = static_cast<double>(NowNanos() - start) / 1e9;
  const size_t delivered = mode == Exchange::kBroadcast ? n * fanout : n;
  std::vector<int64_t> all;
  for (auto& l : lat) all.insert(all.end(), l.begin(), l.end());
  return EdgeResult{static_cast<double>(delivered) / secs, P99(all)};
}

// Low-rate probe: one record every `period_ns`, so p99 isolates path cost
// plus staging wait. Staged batches flush when full or when the oldest
// staged element is older than the 500us linger (this benchmark's own rule;
// engine tasks do not stage).
template <typename Ch>
double RunLowRate(size_t n, size_t batch, int64_t period_ns) {
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

  constexpr int64_t kLingerNs = 500 * 1000;
  std::vector<StreamElement> stage;
  stage.reserve(batch);
  int64_t oldest = 0;
  int64_t next = NowNanos();
  for (size_t i = 0; i < n; ++i) {
    while (NowNanos() < next) {}  // spin to the next emission slot
    next += period_ns;
    if (stage.empty()) oldest = NowNanos();
    stage.push_back(StreamElement::Watermark(NowNanos()));
    if (stage.size() >= batch || NowNanos() - oldest >= kLingerNs) {
      ch.PushBatch(stage.data(), stage.size());
      stage.clear();
    }
  }
  if (!stage.empty()) ch.PushBatch(stage.data(), stage.size());
  ch.Close();
  consumer.join();
  return P99(lat);
}

}  // namespace
}  // namespace evo

int main() {
  using namespace evo;

  std::printf("Data plane: ring channel + emit batching vs mutex channel\n");
  std::printf("bar: ring@64 >= 3x mutex forward throughput; ring@1 not "
              "slower than mutex\n\n");

  obs::BenchArtifact artifact("dataplane");
  const std::vector<size_t> kBatches = {1, 8, 64, 256};
  const size_t kRecords = 2000000;

  bench::Table table({"exchange", "impl", "batch", "records/sec", "p99_us"});
  double mutex_forward_rps = 0;
  double ring_b1_forward_rps = 0;
  double ring_b64_forward_rps = 0;

  for (Exchange mode :
       {Exchange::kForward, Exchange::kHash, Exchange::kBroadcast}) {
    const size_t n = mode == Exchange::kForward ? kRecords : kRecords / 2;
    EdgeResult base = RunExchange<MutexChannel>(mode, n, 1);
    table.AddRow({Name(mode), "mutex", "1", bench::Fmt(base.rps, 0),
                  bench::Fmt(base.p99_us, 1)});
    artifact.Add(std::string(Name(mode)) + "_mutex_rps", base.rps);
    artifact.Add(std::string(Name(mode)) + "_mutex_p99_us", base.p99_us);
    if (mode == Exchange::kForward) mutex_forward_rps = base.rps;

    for (size_t batch : kBatches) {
      EdgeResult r = RunExchange<Channel>(mode, n, batch);
      table.AddRow({Name(mode), "ring", std::to_string(batch),
                    bench::Fmt(r.rps, 0), bench::Fmt(r.p99_us, 1)});
      std::string key =
          std::string(Name(mode)) + "_ring_b" + std::to_string(batch);
      artifact.Add(key + "_rps", r.rps);
      artifact.Add(key + "_p99_us", r.p99_us);
      if (mode == Exchange::kForward && batch == 1) ring_b1_forward_rps = r.rps;
      if (mode == Exchange::kForward && batch == 64) {
        ring_b64_forward_rps = r.rps;
      }
    }
  }
  table.Print();

  std::printf("\nlow-rate probe (200k rec/s, forward edge, linger 500us):\n");
  bench::Table lowrate({"impl", "batch", "p99_us"});
  const size_t kProbe = 20000;
  const int64_t kPeriodNs = 5000;
  double p99 = RunLowRate<MutexChannel>(kProbe, 1, kPeriodNs);
  lowrate.AddRow({"mutex", "1", bench::Fmt(p99, 1)});
  artifact.Add("lowrate_mutex_p99_us", p99);
  for (size_t batch : {size_t{1}, size_t{64}}) {
    p99 = RunLowRate<Channel>(kProbe, batch, kPeriodNs);
    lowrate.AddRow({"ring", std::to_string(batch), bench::Fmt(p99, 1)});
    artifact.Add("lowrate_ring_b" + std::to_string(batch) + "_p99_us", p99);
  }
  lowrate.Print();

  const double speedup = ring_b64_forward_rps / mutex_forward_rps;
  const double b1_ratio = ring_b1_forward_rps / mutex_forward_rps;
  artifact.Add("forward_b64_speedup", speedup);
  artifact.Add("forward_b1_ratio", b1_ratio);
  std::string path = artifact.WriteFile();
  std::printf("\nwrote %s\n", path.c_str());
  std::printf("takeaway: forward edge ring@64 = %.1fx mutex (bar: >=3x), "
              "ring@1 = %.2fx mutex (bar: >=1x)\n",
              speedup, b1_ratio);
  return 0;
}
