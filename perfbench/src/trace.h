#pragma once

/// \file trace.h
/// \brief The traced run: record-id-linked spans kept in per-thread memory,
/// and decorators that time calls into each engine layer from outside,
/// through its public virtual interfaces (Source, Operator,
/// KeyedStateBackend, the sink callback). Nothing inside the engine changes.
///
/// A span is (kind, thread, record id, start, end, parent). Operator spans
/// become the parent of the state spans issued during the call on the same
/// thread, so a layer's self time is its span time minus its children's.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dataflow/operator.h"
#include "dataflow/source.h"
#include "state/backend.h"

namespace evobench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t {
  kSourceEmit,
  kProcess,
  kTimer,
  kStateGet,
  kStatePut,
  kStateRemove,
  kStateIterate,
  kSink,
};
inline constexpr size_t kNumSpanKinds = 8;

const char* SpanName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kProcess;
  uint64_t id = 0;        ///< record id from the payload (timers: window start)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;    ///< index of the parent span in the same thread
};

/// \brief Call counts and busy time of one decorated object. Each object is
/// used by one task thread at a time; slots are read after the job stops.
/// Calls are counted always; they are timed only while tracing is on.
struct CallStats {
  uint64_t calls[kNumSpanKinds] = {};
  uint64_t timed[kNumSpanKinds] = {};
  int64_t nanos[kNumSpanKinds] = {};  ///< summed over the timed calls
  uint64_t put_bytes = 0;
  uint64_t timer_burst = 0;      ///< OnTimer calls since the last OnWatermark
  uint64_t timer_burst_max = 0;
  std::vector<double> snapshot_ms;
  std::vector<double> restore_ms;
};

/// Spans are recorded for 1 record in this many (by record id).
inline constexpr uint64_t kSpanSampleEvery = 64;

/// \brief Owns the spans and stats of one traced pass.
class Tracing {
 public:
  Tracing();
  ~Tracing();
  Tracing(const Tracing&) = delete;
  Tracing& operator=(const Tracing&) = delete;

  static bool Sampled(uint64_t id) { return id % kSpanSampleEvery == 0; }

  /// While off, the decorators only count calls: no clock reads, no spans.
  /// The benchmark turns tracing off for every other saturated burst, so
  /// the tracing overhead is measured on interleaved bursts of one job.
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void SetOn(bool on) { on_.store(on, std::memory_order_relaxed); }

  /// A new stats slot for one decorated object.
  CallStats* NewSlot();

  /// Appends a span to the calling thread's buffer; returns its index.
  int64_t Push(const Span& span);
  /// Closes span `index` of the calling thread's buffer.
  void End(int64_t index, int64_t end_ns);

  /// Parent span of state calls on this thread (-1: none).
  static int64_t CurrentParent();
  static void SetCurrentParent(int64_t index);

  struct Thread {
    uint32_t thread = 0;
    std::vector<Span> spans;
  };
  /// All per-thread buffers; call only after every traced thread stopped.
  const std::vector<std::unique_ptr<Thread>>& threads() const { return threads_; }
  const std::vector<std::unique_ptr<CallStats>>& slots() const { return slots_; }

  /// Writes every span as TSV: thread, index, kind, id, start_ns, end_ns,
  /// parent. Returns false on an I/O error.
  bool Dump(const std::string& path) const;

 private:
  Thread* Local();

  const uint64_t generation_;
  std::atomic<bool> on_{true};
  std::mutex mu_;  ///< guards registration of threads_ and slots_
  std::vector<std::unique_ptr<Thread>> threads_;
  std::vector<std::unique_ptr<CallStats>> slots_;
};

/// Extracts the record id carried in a payload.
using IdFn = uint64_t (*)(const evo::Value& payload);

/// \brief Times every KeyedStateBackend call; state spans are children of
/// the operator span active on the calling thread.
class TracedBackend final : public evo::state::KeyedStateBackend {
 public:
  TracedBackend(std::unique_ptr<evo::state::KeyedStateBackend> inner,
                Tracing* tracing);

  evo::Status Put(evo::state::StateNamespace ns, uint64_t key,
                  std::string_view user_key, std::string_view value) override;
  evo::Result<std::optional<std::string>> Get(evo::state::StateNamespace ns,
                                              uint64_t key,
                                              std::string_view user_key) override;
  evo::Status Remove(evo::state::StateNamespace ns, uint64_t key,
                     std::string_view user_key) override;
  evo::Status IterateKey(
      evo::state::StateNamespace ns, uint64_t key,
      const std::function<void(std::string_view, std::string_view)>& fn) override;
  evo::Status IterateNamespace(
      evo::state::StateNamespace ns,
      const std::function<void(uint64_t, std::string_view, std::string_view)>&
          fn) override;
  evo::Result<std::string> SnapshotKeyGroups(uint32_t from, uint32_t to) override;
  evo::Status RestoreSnapshot(std::string_view snapshot) override;
  evo::Status DropKeyGroups(uint32_t from, uint32_t to) override;
  evo::Status Clear() override;
  uint64_t ApproxEntryCount() const override;
  void AttachMetrics(evo::MetricsRegistry* registry,
                     const std::string& scope) override;
  void PublishMetrics() override;

  evo::state::KeyedStateBackend* inner() { return inner_.get(); }

 private:
  template <typename Fn>
  auto Timed(SpanKind kind, Fn&& fn);

  std::unique_ptr<evo::state::KeyedStateBackend> inner_;
  Tracing* tracing_;
  CallStats* stats_;
};

/// \brief Times record and timer callbacks of an operator and forwards every
/// virtual call to the wrapped instance.
class TracedOperator final : public evo::dataflow::Operator {
 public:
  TracedOperator(std::unique_ptr<evo::dataflow::Operator> inner,
                 Tracing* tracing, IdFn id_of);

  evo::Status Open(evo::dataflow::OperatorContext* ctx) override;
  evo::Status ProcessRecord(evo::Record& record,
                            evo::dataflow::Collector* out) override;
  evo::Status ProcessRecordFrom(size_t input, evo::Record& record,
                                evo::dataflow::Collector* out) override;
  evo::Status OnWatermark(evo::TimeMs watermark,
                          evo::dataflow::Collector* out) override;
  evo::Status OnPunctuation(evo::TimeMs up_to, uint64_t key, bool key_scoped,
                            evo::dataflow::Collector* out) override;
  evo::Status OnTimer(const evo::time::Timer& timer,
                      evo::dataflow::Collector* out) override;
  evo::Status Close(evo::dataflow::Collector* out) override;
  evo::Status OnCheckpointComplete(uint64_t checkpoint_id,
                                   evo::dataflow::Collector* out) override;
  evo::Status SnapshotState(evo::BinaryWriter* w) override;
  evo::Status RestoreState(evo::BinaryReader* r) override;

 private:
  template <typename Fn>
  evo::Status Timed(SpanKind kind, uint64_t id, Fn&& fn);

  std::unique_ptr<evo::dataflow::Operator> inner_;
  Tracing* tracing_;
  IdFn id_of_;
  CallStats* stats_;
};

/// \brief Times Next() and records a source.emit span for sampled records.
class TracedSource final : public evo::dataflow::Source {
 public:
  TracedSource(std::unique_ptr<evo::dataflow::Source> inner, Tracing* tracing,
               IdFn id_of);

  evo::Status Open(uint32_t subtask_index, uint32_t parallelism) override;
  evo::dataflow::SourcePoll Next() override;
  evo::Status SnapshotState(evo::BinaryWriter* w) override;
  evo::Status RestoreState(evo::BinaryReader* r) override;

 private:
  std::unique_ptr<evo::dataflow::Source> inner_;
  Tracing* tracing_;
  IdFn id_of_;
  CallStats* stats_;
};

/// \brief Wraps the sink callback with timing and a sink span.
std::function<void(const evo::Record&)> TraceSinkFn(
    std::function<void(const evo::Record&)> inner, Tracing* tracing,
    IdFn id_of);

/// \brief Per-layer figures reconstructed from the spans.
struct SpanSummary {
  std::vector<double> queue_wait_us;  ///< source.emit end -> process start
  double process_self_ns_mean = 0;
  double timer_self_ns_mean = 0;
  uint64_t process_spans = 0;
  uint64_t timer_spans = 0;
};
SpanSummary Summarize(const Tracing& tracing);

}  // namespace evobench
