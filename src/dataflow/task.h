#pragma once

/// \file task.h
/// \brief The physical unit of execution: one parallel instance of a vertex.
///
/// A task owns its operator (or source), its keyed state backend slice, its
/// timer service, its input channels, and output gates that apply the edge
/// partitioning. The task event loop implements:
///
///  - record routing with per-key state scoping
///  - low-watermark aggregation across inputs (feedback edges excluded)
///  - event-time timers fired on watermark advance
///  - checkpoint barrier handling: aligned (exactly-once; blocks already-
///    barriered channels) or unaligned (at-least-once; no blocking). At the
///    barrier the task only pins its keyed state; the loop serializes the
///    pinned snapshot one bounded step per sweep, between records, and
///    acknowledges the checkpoint once it is complete
///  - latency-marker forwarding
///  - end-of-stream draining, including cycle quiescence via a shared
///    in-flight feedback counter
///  - idling: after a short yield-spin the task parks on its WakeupWord,
///    which input pushes and control calls (cancel, failure, checkpoint
///    request/complete) signal; a park never outlasts the next due
///    processing-time timer
///
/// This is the in-process substitute for a distributed TaskManager slot; all
/// algorithmic behaviour (alignment, backpressure, migration) is the same.

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/serde.h"
#include "common/status.h"
#include "dataflow/channel.h"
#include "dataflow/operator.h"
#include "dataflow/source.h"
#include "dataflow/wakeup.h"
#include "obs/journal.h"
#include "obs/tracing.h"
#include "state/backend.h"
#include "state/queryable.h"
#include "state/state_api.h"
#include "time/timer_service.h"
#include "time/watermarks.h"

namespace evo::dataflow {

/// \brief Tracks records in flight around a cycle so iteration heads know
/// when the loop has quiesced and the job may finish.
struct FeedbackTracker {
  std::atomic<int64_t> in_flight{0};
};

/// \brief One downstream connection set for one out-edge.
struct OutputGate {
  Partitioning partitioning = Partitioning::kForward;
  /// One channel per downstream subtask, indexed by subtask.
  std::vector<Channel*> channels;
  /// Set when this gate is a feedback edge (loop back into the graph).
  FeedbackTracker* feedback = nullptr;
  uint64_t rr_cursor = 0;  // rebalance round-robin position
  uint32_t downstream_max_parallelism = KeyGroup::kDefaultMaxParallelism;
};

/// \brief One upstream connection for one in-edge.
struct InputChannel {
  Channel* channel = nullptr;
  /// Index of the logical in-edge this channel belongs to; two-input
  /// operators dispatch on it.
  size_t ordinal = 0;
  /// Feedback inputs do not contribute to the watermark and carry no
  /// barriers.
  FeedbackTracker* feedback = nullptr;
  bool is_feedback() const { return feedback != nullptr; }
};

/// \brief Snapshot payload of one task for one checkpoint.
struct TaskSnapshot {
  std::string vertex;
  uint32_t subtask = 0;
  std::string data;
};

/// \brief Configuration shared by all tasks of a job.
struct TaskRuntime {
  Clock* clock = SystemClock::Instance();
  /// Sources emit a latency marker this often (0 = never).
  int64_t latency_marker_interval_ms = 0;
  MetricsRegistry* metrics = nullptr;
  /// EvoScope span tracer; with span_sample_every > 0 every Nth record of
  /// each subtask records an operator span.
  obs::Tracer* tracer = nullptr;
  uint32_t span_sample_every = 0;
  CheckpointMode checkpoint_mode = CheckpointMode::kAligned;
  /// Called when this task completes a snapshot for a checkpoint id.
  std::function<void(uint64_t checkpoint_id, TaskSnapshot snapshot)> on_snapshot;
  /// Called for records emitted to a side output tag.
  std::function<void(const std::string& tag, const Record&)> on_side_output;
  /// Called by sinks when a latency marker arrives (end-to-end latency ms).
  std::function<void(int64_t latency_ms)> on_latency;
  /// Fatal task error reporting.
  std::function<void(const std::string& task, const Status&)> on_error;
  /// Called on the task thread right after the task finished (after
  /// on_error, if it failed).
  std::function<void()> on_finish;
  /// EvoScope Live: structured control-plane event journal (may be null).
  obs::EventJournal* journal = nullptr;
  /// Queryable-state registry; stateful tasks auto-publish each registered
  /// state as "<vertex>.<subtask>.<state-name>" after Open and revoke their
  /// backend on teardown (may be null).
  state::QueryableStateRegistry* queryable = nullptr;
};

/// \brief A runnable parallel subtask.
class Task {
 public:
  /// Operator task.
  Task(std::string vertex, uint32_t subtask, uint32_t parallelism,
       uint32_t max_parallelism, std::unique_ptr<Operator> op,
       std::unique_ptr<state::KeyedStateBackend> backend,
       const TaskRuntime* runtime);

  /// Source task.
  Task(std::string vertex, uint32_t subtask, uint32_t parallelism,
       std::unique_ptr<Source> source, const TaskRuntime* runtime);

  ~Task();

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  /// \brief Adds an input; its pushes signal this task's wakeup word. Call
  /// before any producer of the channel starts.
  void AddInput(InputChannel in) {
    in.channel->SetConsumerWakeup(&wakeup_);
    inputs_.push_back(in);
  }
  void AddOutput(OutputGate gate) { outputs_.push_back(std::move(gate)); }

  /// \brief Picks what to restore before Start() from the snapshots of this
  /// task's vertex, which ran with one task per snapshot: the payload of this
  /// subtask index (source and operator-custom state) and, for operators,
  /// every payload whose key-group range overlaps this task's. After a
  /// rescale, restored keyed state and timers outside that range are dropped.
  Status Restore(const std::vector<const TaskSnapshot*>& vertex_snapshots);

  /// \brief Spawns the task thread.
  void Start();
  /// \brief Requests cooperative cancellation (thread joined in Join()).
  void Cancel() {
    cancelled_.store(true, std::memory_order_release);
    wakeup_.Signal();
  }
  /// \brief Waits for the task thread to finish.
  void Join();

  /// \brief Source tasks only: requests that the source snapshot itself and
  /// inject a barrier for the given checkpoint id.
  void RequestCheckpoint(uint64_t checkpoint_id) {
    checkpoint_request_.store(checkpoint_id, std::memory_order_release);
    wakeup_.Signal();
  }

  /// \brief Injects a simulated crash: the task stops processing abruptly
  /// (no Close(), no flush) as a process failure would.
  void InjectFailure() {
    failed_.store(true, std::memory_order_release);
    wakeup_.Signal();
  }

  /// \brief Informs the task that a checkpoint completed job-wide; the
  /// operator's OnCheckpointComplete runs on the task thread.
  void NotifyCheckpointComplete(uint64_t checkpoint_id) {
    checkpoint_complete_.store(checkpoint_id, std::memory_order_release);
    wakeup_.Signal();
  }

  /// \brief Revokes this task's backend from the queryable-state registry so
  /// external readers get Unavailable instead of a dangling pointer. Called
  /// automatically by JobRunner::Stop and ~Task; idempotent.
  void RevokeQueryableState();

  bool finished() const { return finished_.load(std::memory_order_acquire); }
  const std::string& vertex() const { return vertex_; }
  uint32_t subtask() const { return subtask_; }
  bool is_source() const { return source_ != nullptr; }
  state::KeyedStateBackend* backend() { return backend_.get(); }
  state::StateContext* state_context() { return state_ctx_.get(); }

  /// \brief Fraction of wall time spent processing records (DS2 "useful
  /// time") since the task started; the elasticity controller's signal.
  double BusyRatio() const;
  uint64_t RecordsIn() const { return records_in_; }
  uint64_t RecordsOut() const { return records_out_; }
  /// \brief Milliseconds spent parked on the wakeup word since the start,
  /// including the park in progress; exported as task_parked_ms.
  double ParkedMillis() const;
  /// \brief Parks ended by a signal or a ready input rather than by their
  /// deadline; exported as task_wakeups_total.
  uint64_t Wakeups() const { return wakeups_.load(std::memory_order_relaxed); }
  /// \brief Whether the task thread is parked right now.
  bool parked() const { return wakeup_.parked(); }

  /// \brief Pending event- and processing-time timers, as counted by the
  /// task thread at its last watermark or checkpoint (the reporter never
  /// reads the timer queues). Exported as task_timers_pending.
  size_t TimersPending() const {
    return timers_pending_.load(std::memory_order_relaxed);
  }

 private:
  class GateCollector;

  void InitMetrics();
  void Run();
  Status RunSourceLoop();
  Status RunOperatorLoop();
  void PublishQueryableState();

  /// Parks on the wakeup word until `ready()`, a signal or `deadline`, and
  /// accounts the park in the task_parked_ms / task_wakeups_total metrics.
  template <typename Pred>
  void ParkUntil(WakeupWord::TimePoint deadline, Pred ready);
  /// Operator idle path: parks until an input is ready or a control signal
  /// arrives, bounded by the next processing timer and the feedback grace,
  /// and briefly while the task was busy within the last few ms.
  void ParkOperator(int64_t idle_nanos);
  /// The operator's park predicate: something for the next sweep to do.
  bool OperatorReady() const;

  Status HandleElement(size_t input_index, StreamElement element);
  Status HandleRecord(size_t ordinal, Record record);
  Status HandleWatermark(size_t input_index, TimeMs watermark);
  /// Position of a non-feedback input among the watermark tracker's inputs.
  size_t WatermarkIndex(size_t input_index) const;
  /// Acts on a new combined watermark: observes the lag, fires event-time
  /// timers, calls the operator and forwards the watermark downstream.
  Status AdvanceWatermark(TimeMs combined);
  Status HandleBarrier(size_t input_index, uint64_t checkpoint_id,
                       CheckpointMode mode);
  /// Pins the task's state for a checkpoint (after completing any snapshot
  /// still pending) and takes the first step of its serialization.
  Status TakeSnapshot(uint64_t checkpoint_id);
  /// Serializes about `max_keys` more keyed-state entries of the pending
  /// snapshot, if any, and acknowledges it once complete.
  Status StepSnapshot(size_t max_keys);
  Status FireEventTimers(TimeMs watermark);
  void CountTimers();
  Status PollProcessingTimers();

  void EmitRecordDownstream(Record record);
  void EmitTo(size_t gate_index, size_t target, const StreamElement& e);
  void BroadcastControl(const StreamElement& e);
  void ForwardLatencyMarker(const StreamElement& e);
  void EmitEndOfStream();

  bool AllInputsEnded() const;
  bool FeedbackQuiesced() const;

  std::string vertex_;
  uint32_t subtask_;
  uint32_t parallelism_;
  uint32_t max_parallelism_;

  std::unique_ptr<Operator> op_;
  std::unique_ptr<Source> source_;
  std::unique_ptr<state::KeyedStateBackend> backend_;
  std::unique_ptr<state::StateContext> state_ctx_;
  std::unique_ptr<time::TimerService> timers_;
  std::unique_ptr<OperatorContext> op_ctx_;
  const TaskRuntime* runtime_;

  std::vector<InputChannel> inputs_;
  std::vector<OutputGate> outputs_;

  /// Timer-queue sizes, refreshed by the task thread (CountTimers).
  std::atomic<size_t> timers_pending_{0};
  std::unique_ptr<time::WatermarkTracker> wm_tracker_;
  std::vector<bool> input_ended_;
  std::vector<bool> input_blocked_;  // aligned-barrier blocking
  uint64_t aligning_checkpoint_ = 0;
  size_t barriers_seen_ = 0;
  /// Which inputs delivered the barrier of `aligning_checkpoint_`: a
  /// duplicated barrier (faulty/chaotic transport) must not count twice or
  /// alignment completes early and exactly-once breaks.
  std::vector<bool> barrier_from_input_;
  std::vector<TaskSnapshot> restore_snapshots_;
  uint32_t restore_parallelism_ = 0;  ///< tasks of the vertex at snapshot time
  bool feedback_quiet_ = false;
  Stopwatch feedback_quiet_since_;
  TimeMs last_marker_ms_ = 0;
  std::atomic<bool> queryable_revoked_{false};
  size_t queryable_published_ = 0;  ///< state names already exported

  /// A checkpoint pinned at its barrier, still being serialized.
  struct PendingCheckpoint {
    uint64_t id = 0;
    BinaryWriter head;  ///< the operator/source and timer sections
    /// Null for a source, which has no keyed state.
    std::unique_ptr<state::KeyedStateBackend::PendingSnapshot> backend;
    Stopwatch since_pin;
  };
  /// At most one; it holds a pin on backend_, so the task thread drops it
  /// when its loop ends, before the backend can die.
  std::unique_ptr<PendingCheckpoint> pending_snapshot_;

  std::unique_ptr<GateCollector> collector_;
  WakeupWord wakeup_;
  std::thread thread_;
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> failed_{false};
  std::atomic<bool> finished_{false};
  std::atomic<uint64_t> checkpoint_request_{0};
  std::atomic<uint64_t> checkpoint_complete_{0};
  uint64_t last_complete_handled_ = 0;
  uint64_t last_checkpoint_done_ = 0;

  // Metrics.
  std::atomic<uint64_t> records_in_{0};
  std::atomic<uint64_t> records_out_{0};
  std::atomic<int64_t> busy_nanos_{0};
  std::atomic<int64_t> parked_nanos_{0};  ///< finished parks
  /// Steady-clock nanos when the park in progress began; 0 when not parked.
  std::atomic<int64_t> park_began_{0};
  std::atomic<uint64_t> wakeups_{0};
  Stopwatch alive_;

  // EvoScope instrumentation (null when runtime has no registry). Pointers
  // are resolved once at construction so the hot path never touches the
  // registry map.
  Histogram* hist_process_us_ = nullptr;   ///< per-record processing time
  Histogram* hist_marker_ms_ = nullptr;    ///< source->here marker latency
  Histogram* hist_e2e_latency_ms_ = nullptr;  ///< sink-only: end-to-end
  Histogram* hist_align_ms_ = nullptr;     ///< barrier alignment stall
  Histogram* hist_snapshot_ms_ = nullptr;  ///< task blocked by the pin
  Histogram* hist_pending_ms_ = nullptr;   ///< snapshot pin to ack
  Histogram* hist_restore_ms_ = nullptr;   ///< state restore duration
  Gauge* gauge_wm_lag_ = nullptr;          ///< watermark lag
  Gauge* gauge_snapshot_bytes_ = nullptr;  ///< last snapshot payload size
  std::unique_ptr<time::WatermarkLagProbe> wm_lag_probe_;
  Stopwatch align_started_;  ///< set when the first barrier of a round lands
};

}  // namespace evo::dataflow
