#include "dataflow/task.h"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "common/logging.h"
#include "obs/exporters.h"
#include "testing/fault_injector.h"

namespace evo::dataflow {

namespace {

/// After the last sweep that made progress, an idle operator task
/// yield-spins this long before it parks. Open-loop records arriving in
/// that window skip the futex round trip; an idle task never spins.
constexpr int64_t kIdleSpinNanos = 50'000;
/// Upper bound of one operator park. Every wake condition is signalled;
/// the bound only re-checks state that is not (a manual clock's
/// processing-time timers).
constexpr int64_t kMaxParkMs = 100;
/// For kWarmNanos after its last progress, an operator task parks for at
/// most kWarmParkNanos at a time. On a KVM guest a vCPU that halts for
/// longer than the host's halt-polling window (200 us by default) is
/// descheduled, and on a busy host waking it costs milliseconds: parking
/// whole gaps between open-loop records doubled steal time and added 5-10 ms
/// stalls at the tail. An idle task goes back to kMaxParkMs parks.
constexpr int64_t kWarmNanos = 5'000'000;
constexpr int64_t kWarmParkNanos = 100'000;
/// An idle source re-polls its Next() this often: new source data is not
/// signalled.
constexpr int64_t kSourceIdleParkMs = 1;
/// Keyed-state keys a pending snapshot serializes per sweep of the operator
/// loop, about 50 us of an LSM scan: short against the gap between
/// open-loop records, so the records that queue behind a step stay few.
constexpr size_t kSnapshotStepKeys = 256;
/// Feedback-loop quiescence must hold this long before the job finishes.
constexpr int64_t kFeedbackQuietMs = 50;

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// GateCollector: routes operator emissions through the output gates.
// ---------------------------------------------------------------------------

class Task::GateCollector final : public Collector {
 public:
  explicit GateCollector(Task* task) : task_(task) {}

  void Emit(Record record) override {
    task_->EmitRecordDownstream(std::move(record));
  }

  void EmitSide(const std::string& tag, Record record) override {
    if (task_->runtime_->on_side_output) {
      task_->runtime_->on_side_output(tag, record);
    }
  }

 private:
  Task* task_;
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Task::Task(std::string vertex, uint32_t subtask, uint32_t parallelism,
           uint32_t max_parallelism, std::unique_ptr<Operator> op,
           std::unique_ptr<state::KeyedStateBackend> backend,
           const TaskRuntime* runtime)
    : vertex_(std::move(vertex)),
      subtask_(subtask),
      parallelism_(parallelism),
      max_parallelism_(max_parallelism),
      op_(std::move(op)),
      backend_(std::move(backend)),
      runtime_(runtime) {
  state_ctx_ = std::make_unique<state::StateContext>(backend_.get());
  timers_ = std::make_unique<time::TimerService>(runtime_->clock);
  op_ctx_ = std::make_unique<OperatorContext>(
      state_ctx_.get(), timers_.get(), runtime_->metrics, subtask_,
      parallelism_, runtime_->clock);
  collector_ = std::make_unique<GateCollector>(this);
  InitMetrics();
}

Task::Task(std::string vertex, uint32_t subtask, uint32_t parallelism,
           std::unique_ptr<Source> source, const TaskRuntime* runtime)
    : vertex_(std::move(vertex)),
      subtask_(subtask),
      parallelism_(parallelism),
      max_parallelism_(KeyGroup::kDefaultMaxParallelism),
      source_(std::move(source)),
      runtime_(runtime) {
  collector_ = std::make_unique<GateCollector>(this);
  InitMetrics();
}

void Task::InitMetrics() {
  MetricsRegistry* m = runtime_->metrics;
  if (m == nullptr) return;
  hist_process_us_ =
      m->GetHistogram(obs::TaskMetricName("task_process_time_us", vertex_,
                                          subtask_));
  hist_marker_ms_ = m->GetHistogram(
      obs::MetricName("operator_latency_ms", {{"vertex", vertex_}}));
  hist_align_ms_ = m->GetHistogram(
      obs::TaskMetricName("checkpoint_alignment_ms", vertex_, subtask_));
  hist_snapshot_ms_ = m->GetHistogram(
      obs::TaskMetricName("task_snapshot_time_ms", vertex_, subtask_));
  hist_pending_ms_ = m->GetHistogram(
      obs::TaskMetricName("task_snapshot_pending_ms", vertex_, subtask_));
  hist_restore_ms_ = m->GetHistogram(
      obs::TaskMetricName("task_restore_time_ms", vertex_, subtask_));
  gauge_wm_lag_ = m->GetGauge(
      obs::TaskMetricName("task_watermark_lag_ms", vertex_, subtask_));
  gauge_snapshot_bytes_ = m->GetGauge(
      obs::TaskMetricName("task_snapshot_bytes", vertex_, subtask_));
  wm_lag_probe_ =
      std::make_unique<time::WatermarkLagProbe>(runtime_->clock, gauge_wm_lag_);
  if (backend_ != nullptr) {
    backend_->AttachMetrics(m, vertex_ + "." + std::to_string(subtask_));
  }
}

Task::~Task() {
  Cancel();
  Join();
  // Last line of defence against dangling registry entries: the backend dies
  // with this object, so anything still published must be revoked now.
  RevokeQueryableState();
}

void Task::RevokeQueryableState() {
  if (backend_ == nullptr || runtime_->queryable == nullptr) return;
  if (queryable_revoked_.exchange(true, std::memory_order_acq_rel)) return;
  size_t revoked = runtime_->queryable->RevokeBackend(backend_.get());
  if (revoked > 0 && runtime_->journal != nullptr) {
    runtime_->journal->Emit(
        obs::EventType::kStateRevoked,
        "task:" + vertex_ + "[" + std::to_string(subtask_) + "]",
        "queryable state revoked (task stopped)",
        {obs::F("entries", static_cast<uint64_t>(revoked))});
  }
}

void Task::PublishQueryableState() {
  if (backend_ == nullptr || runtime_->queryable == nullptr) return;
  // Incremental: operators may register state lazily (first record), so this
  // runs again from the task loop and only exports the not-yet-seen tail.
  const auto& names = state_ctx_->state_names();
  size_t published = 0;
  for (size_t i = queryable_published_; i < names.size(); ++i) {
    std::string public_name =
        vertex_ + "." + std::to_string(subtask_) + "." + names[i];
    Status st = runtime_->queryable->Publish(
        public_name, backend_.get(), static_cast<state::StateNamespace>(i));
    if (st.ok()) ++published;
  }
  queryable_published_ = names.size();
  if (published > 0 && runtime_->journal != nullptr) {
    runtime_->journal->Emit(
        obs::EventType::kStatePublished,
        "task:" + vertex_ + "[" + std::to_string(subtask_) + "]",
        "queryable state published",
        {obs::F("entries", static_cast<uint64_t>(published))});
  }
}

Status Task::Restore(
    const std::vector<const TaskSnapshot*>& vertex_snapshots) {
  restore_parallelism_ = static_cast<uint32_t>(vertex_snapshots.size());
  const uint32_t start =
      KeyGroup::RangeStart(subtask_, max_parallelism_, parallelism_);
  const uint32_t end =
      KeyGroup::RangeEnd(subtask_, max_parallelism_, parallelism_);
  for (const TaskSnapshot* snap : vertex_snapshots) {
    const bool overlaps =
        KeyGroup::RangeStart(snap->subtask, max_parallelism_,
                             restore_parallelism_) < end &&
        start < KeyGroup::RangeEnd(snap->subtask, max_parallelism_,
                                   restore_parallelism_);
    if (snap->subtask == subtask_ || (source_ == nullptr && overlaps)) {
      restore_snapshots_.push_back(*snap);
    }
  }
  return Status::OK();
}

namespace {

/// Splits a task snapshot blob into its three length-prefixed sections:
/// operator/source custom state, timers, keyed backend.
Status SplitSnapshot(std::string_view blob, std::string_view* custom,
                     std::string_view* timers, std::string_view* backend) {
  BinaryReader r(blob);
  EVO_RETURN_IF_ERROR(r.ReadBytes(custom));
  EVO_RETURN_IF_ERROR(r.ReadBytes(timers));
  return r.ReadBytes(backend);
}

}  // namespace

void Task::Start() {
  input_ended_.assign(inputs_.size(), false);
  input_blocked_.assign(inputs_.size(), false);
  barrier_from_input_.assign(inputs_.size(), false);
  size_t wm_inputs = 0;
  for (const InputChannel& in : inputs_) {
    if (!in.is_feedback()) ++wm_inputs;
  }
  wm_tracker_ = std::make_unique<time::WatermarkTracker>(
      std::max<size_t>(wm_inputs, 1));
  thread_ = std::thread([this] { Run(); });
}

void Task::Join() {
  if (thread_.joinable()) thread_.join();
}

double Task::ParkedMillis() const {
  int64_t nanos = parked_nanos_.load(std::memory_order_relaxed);
  const int64_t began = park_began_.load(std::memory_order_relaxed);
  if (began != 0) nanos += std::max<int64_t>(SteadyNanos() - began, 0);
  return static_cast<double>(nanos) / 1e6;
}

double Task::BusyRatio() const {
  int64_t alive = alive_.ElapsedNanos();
  if (alive <= 0) return 0;
  return static_cast<double>(busy_nanos_.load()) / static_cast<double>(alive);
}

// ---------------------------------------------------------------------------
// Main loops
// ---------------------------------------------------------------------------

void Task::Run() {
  alive_.Reset();
  Status st;
  if (source_ != nullptr) {
    st = RunSourceLoop();
  } else {
    st = RunOperatorLoop();
  }
  // A snapshot still pending (cancel, failure) is never acknowledged; its
  // pin on the backend goes here, on the thread that used it.
  pending_snapshot_.reset();
  if (!st.ok() && runtime_->on_error) {
    runtime_->on_error(vertex_ + "[" + std::to_string(subtask_) + "]", st);
  }
  finished_.store(true, std::memory_order_release);
  if (runtime_->on_finish) runtime_->on_finish();
}

template <typename Pred>
void Task::ParkUntil(WakeupWord::TimePoint deadline, Pred ready) {
  const int64_t began = SteadyNanos();
  park_began_.store(began, std::memory_order_relaxed);
  const bool woken = wakeup_.Park(deadline, ready);
  const int64_t parked = SteadyNanos() - began;
  // Clear before adding: a concurrent ParkedMillis() may briefly miss this
  // park but never counts it twice.
  park_began_.store(0, std::memory_order_relaxed);
  parked_nanos_.fetch_add(parked, std::memory_order_relaxed);
  if (woken) wakeups_.fetch_add(1, std::memory_order_relaxed);
}

void Task::ParkOperator(int64_t idle_nanos) {
  int64_t bound_ms = kMaxParkMs;
  const TimeMs due = timers_->processing_timers().NextDeadline();
  if (due != kMaxWatermark) {
    bound_ms = std::min(bound_ms, due - runtime_->clock->NowMs());
  }
  if (feedback_quiet_) {
    const auto quiet_ms =
        static_cast<int64_t>(feedback_quiet_since_.ElapsedMillis());
    bound_ms = std::min(bound_ms, kFeedbackQuietMs + 1 - quiet_ms);
  }
  if (bound_ms <= 0) return;  // a timer or the grace is due: sweep again
  const auto now = std::chrono::steady_clock::now();
  auto deadline = now + std::chrono::milliseconds(bound_ms);
  if (idle_nanos < kWarmNanos) {
    deadline =
        std::min(deadline, now + std::chrono::nanoseconds(kWarmParkNanos));
  }
  ParkUntil(deadline, [this] { return OperatorReady(); });
}

bool Task::OperatorReady() const {
  if (cancelled_.load(std::memory_order_acquire) ||
      failed_.load(std::memory_order_acquire) ||
      checkpoint_complete_.load(std::memory_order_acquire) >
          last_complete_handled_) {
    return true;
  }
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (!input_ended_[i] && !input_blocked_[i] &&
        inputs_[i].channel->CanPop()) {
      return true;
    }
  }
  return false;
}

Status Task::RunSourceLoop() {
  EVO_RETURN_IF_ERROR(source_->Open(subtask_, parallelism_));
  for (const TaskSnapshot& snap : restore_snapshots_) {  // own index only
    std::string_view custom, timers, backend;
    EVO_RETURN_IF_ERROR(SplitSnapshot(snap.data, &custom, &timers, &backend));
    BinaryReader r(custom);
    EVO_RETURN_IF_ERROR(source_->RestoreState(&r));
  }
  std::vector<TaskSnapshot>().swap(restore_snapshots_);
  while (!cancelled_.load(std::memory_order_acquire)) {
    if (failed_.load(std::memory_order_acquire)) {
      return Status::Aborted("injected failure");
    }
    // Checkpoint requests are handled between records so the snapshot sits
    // at a record boundary (source offset is consistent with the barrier).
    uint64_t requested = checkpoint_request_.load(std::memory_order_acquire);
    if (requested > last_checkpoint_done_) {
      last_checkpoint_done_ = requested;
      EVO_RETURN_IF_ERROR(TakeSnapshot(requested));
      BroadcastControl(
          StreamElement::Barrier(requested, runtime_->checkpoint_mode));
    }

    if (runtime_->latency_marker_interval_ms > 0) {
      TimeMs now = runtime_->clock->NowMs();
      if (now - last_marker_ms_ >= runtime_->latency_marker_interval_ms) {
        last_marker_ms_ = now;
        ForwardLatencyMarker(StreamElement::LatencyMarker(now));
      }
    }

    SourcePoll poll = source_->Next();
    switch (poll.kind) {
      case SourcePoll::Kind::kRecord: {
        Stopwatch busy;
        ++records_in_;
        EmitRecordDownstream(std::move(poll.record));
        busy_nanos_ += busy.ElapsedNanos();
        break;
      }
      case SourcePoll::Kind::kWatermark:
        BroadcastControl(StreamElement::Watermark(poll.watermark));
        break;
      case SourcePoll::Kind::kControl:
        BroadcastControl(poll.control);
        break;
      case SourcePoll::Kind::kIdle:
        // New source data is not signalled, so the park is short; control
        // calls end it at once.
        ParkUntil(std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(kSourceIdleParkMs),
                  [this] {
                    return cancelled_.load(std::memory_order_acquire) ||
                           failed_.load(std::memory_order_acquire) ||
                           checkpoint_request_.load(
                               std::memory_order_acquire) >
                               last_checkpoint_done_;
                  });
        break;
      case SourcePoll::Kind::kEnd:
        EmitEndOfStream();
        return Status::OK();
    }
  }
  // Cancelled: still signal downstream so consumers can drain and finish.
  EmitEndOfStream();
  return Status::OK();
}

Status Task::RunOperatorLoop() {
  EVO_RETURN_IF_ERROR(op_->Open(op_ctx_.get()));
  if (!restore_snapshots_.empty()) {
    Stopwatch restore_watch;
    bool merged_any = false;
    for (const TaskSnapshot& snap : restore_snapshots_) {
      std::string_view custom, timers, backend;
      EVO_RETURN_IF_ERROR(SplitSnapshot(snap.data, &custom, &timers, &backend));
      if (snap.subtask == subtask_ && !custom.empty()) {
        BinaryReader r(custom);
        EVO_RETURN_IF_ERROR(op_->RestoreState(&r));
      }
      if (!timers.empty()) {
        BinaryReader r(timers);
        EVO_RETURN_IF_ERROR(timers_->DecodeFrom(&r, /*merge=*/merged_any));
      }
      if (!backend.empty()) {
        EVO_RETURN_IF_ERROR(backend_->RestoreSnapshot(backend));
      }
      merged_any = true;
    }
    std::vector<TaskSnapshot>().swap(restore_snapshots_);
    if (restore_parallelism_ != parallelism_) {
      // Rescaled: keep only this subtask's key-group range.
      uint32_t start =
          KeyGroup::RangeStart(subtask_, max_parallelism_, parallelism_);
      uint32_t end =
          KeyGroup::RangeEnd(subtask_, max_parallelism_, parallelism_);
      if (start > 0) EVO_RETURN_IF_ERROR(backend_->DropKeyGroups(0, start));
      if (end < max_parallelism_) {
        EVO_RETURN_IF_ERROR(backend_->DropKeyGroups(end, max_parallelism_));
      }
      timers_->Filter([&](const time::Timer& t) {
        uint32_t kg = KeyGroup::OfHash(t.key, max_parallelism_);
        return kg >= start && kg < end;
      });
    }
    CountTimers();
    if (hist_restore_ms_ != nullptr) {
      hist_restore_ms_->Record(restore_watch.ElapsedMillis());
    }
  }

  // States are registered by Open (and restore); export them for external
  // point queries / scans. Later-registered states stay private.
  PublishQueryableState();

  size_t cursor = 0;
  bool idle = false;     // the last sweep made no progress
  Stopwatch idle_since;  // start of the current run of idle sweeps
  while (!cancelled_.load(std::memory_order_acquire)) {
    if (failed_.load(std::memory_order_acquire)) {
      return Status::Aborted("injected failure");
    }
    // One element per unblocked, unended input per sweep, round-robin from
    // `cursor`. An aligned barrier sets input_blocked_, so the rest of that
    // input stays in its channel until alignment completes.
    bool progressed = false;
    for (size_t n = 0; n < inputs_.size(); ++n) {
      size_t i = (cursor + n) % inputs_.size();
      if (input_ended_[i] || input_blocked_[i]) continue;
      std::optional<StreamElement> element = inputs_[i].channel->TryPop();
      if (!element.has_value()) continue;
      progressed = true;
      EVO_RETURN_IF_ERROR(HandleElement(i, std::move(*element)));
    }
    cursor = (cursor + 1) % std::max<size_t>(inputs_.size(), 1);
    // A pending snapshot takes one bounded step per sweep, so records keep
    // flowing while it is serialized, and keeps the task from parking.
    if (pending_snapshot_ != nullptr) {
      progressed = true;
      EVO_RETURN_IF_ERROR(StepSnapshot(kSnapshotStepKeys));
    }

    EVO_RETURN_IF_ERROR(PollProcessingTimers());

    uint64_t complete = checkpoint_complete_.load(std::memory_order_acquire);
    if (complete > last_complete_handled_) {
      last_complete_handled_ = complete;
      EVO_RETURN_IF_ERROR(
          op_->OnCheckpointComplete(complete, collector_.get()));
    }

    if (AllInputsEnded()) {
      bool has_feedback = false;
      for (const InputChannel& in : inputs_) has_feedback |= in.is_feedback();
      // Loops quiesce when no record is in flight anywhere on the cycle.
      // The tracker only observes the feedback hop, so we additionally
      // require stability for a grace window — records still traversing the
      // loop body re-arm the tracker well within it (the approach of Flink's
      // iteration heads).
      bool done = true;
      if (has_feedback) {
        if (!FeedbackQuiesced()) {
          feedback_quiet_ = false;
          done = false;
        } else if (!feedback_quiet_) {
          feedback_quiet_ = true;
          feedback_quiet_since_.Reset();
          done = false;
        } else {
          done = feedback_quiet_since_.ElapsedMillis() > kFeedbackQuietMs;
        }
      }
      if (done) {
        EVO_RETURN_IF_ERROR(StepSnapshot(SIZE_MAX));  // acked before Close
        EVO_RETURN_IF_ERROR(op_->Close(collector_.get()));
        EmitEndOfStream();
        // Export states the operator registered after Open (lazy creation):
        // a drained-but-not-stopped job stays queryable.
        PublishQueryableState();
        return Status::OK();
      }
    }
    if (progressed) {
      idle = false;
    } else if (!idle) {
      idle = true;
      idle_since.Reset();
      std::this_thread::yield();
    } else if (idle_since.ElapsedNanos() < kIdleSpinNanos) {
      std::this_thread::yield();
    } else {
      ParkOperator(idle_since.ElapsedNanos());
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Element handling
// ---------------------------------------------------------------------------

Status Task::HandleElement(size_t input_index, StreamElement element) {
  switch (element.kind) {
    case ElementKind::kRecord: {
      Status st = HandleRecord(inputs_[input_index].ordinal,
                               std::move(element.record));
      // Decrement the loop tracker only after the record (and anything it
      // spawned) is fully processed, so quiescence is exact.
      if (inputs_[input_index].is_feedback()) {
        inputs_[input_index].feedback->in_flight.fetch_sub(
            1, std::memory_order_acq_rel);
      }
      return st;
    }
    case ElementKind::kWatermark:
      if (inputs_[input_index].is_feedback()) return Status::OK();
      return HandleWatermark(input_index, element.time);
    case ElementKind::kPunctuation: {
      // Global punctuations act as watermarks; key-scoped ones are
      // delivered to the operator (state scoped to the key, so it can purge)
      // and then forwarded.
      if (!element.key_scoped) {
        EVO_RETURN_IF_ERROR(op_->OnPunctuation(
            element.time, element.tag, false, collector_.get()));
        return HandleWatermark(input_index, element.time);
      }
      if (state_ctx_ != nullptr) state_ctx_->SetCurrentKey(element.tag);
      EVO_RETURN_IF_ERROR(op_->OnPunctuation(element.time, element.tag, true,
                                             collector_.get()));
      BroadcastControl(element);
      return Status::OK();
    }
    case ElementKind::kCheckpointBarrier:
      if (inputs_[input_index].is_feedback()) return Status::OK();
      return HandleBarrier(input_index, element.tag, element.mode);
    case ElementKind::kLatencyMarker:
      ForwardLatencyMarker(element);
      return Status::OK();
    case ElementKind::kEndOfStream: {
      input_ended_[input_index] = true;
      if (inputs_[input_index].is_feedback()) return Status::OK();
      // Ended inputs stop holding the watermark back.
      TimeMs combined = kMinWatermark;
      if (!wm_tracker_->MarkIdle(WatermarkIndex(input_index), &combined)) {
        return Status::OK();
      }
      return AdvanceWatermark(combined);
    }
  }
  return Status::Internal("unknown element kind");
}

Status Task::HandleRecord(size_t ordinal, Record record) {
  Stopwatch busy;
  uint64_t seq = ++records_in_;
  if (state_ctx_ != nullptr) state_ctx_->SetCurrentKey(record.key);
  Status st = op_->ProcessRecordFrom(ordinal, record, collector_.get());
  int64_t nanos = busy.ElapsedNanos();
  busy_nanos_ += nanos;
  if (hist_process_us_ != nullptr) {
    hist_process_us_->Record(static_cast<double>(nanos) / 1000.0);
  }
  if (runtime_->tracer != nullptr && runtime_->span_sample_every > 0 &&
      seq % runtime_->span_sample_every == 0) {
    runtime_->tracer->RecordSpan(
        {vertex_, subtask_, seq,
         runtime_->clock->NowMs() - nanos / 1000000, nanos / 1000});
  }
  return st;
}

Status Task::HandleWatermark(size_t input_index, TimeMs watermark) {
  TimeMs combined = kMinWatermark;
  if (!wm_tracker_->Update(WatermarkIndex(input_index), watermark, &combined)) {
    return Status::OK();
  }
  return AdvanceWatermark(combined);
}

size_t Task::WatermarkIndex(size_t input_index) const {
  size_t wm_index = 0;
  for (size_t j = 0; j < input_index; ++j) {
    if (!inputs_[j].is_feedback()) ++wm_index;
  }
  return wm_index;
}

Status Task::AdvanceWatermark(TimeMs combined) {
  if (wm_lag_probe_ != nullptr) wm_lag_probe_->Observe(combined);
  EVO_RETURN_IF_ERROR(FireEventTimers(combined));
  EVO_RETURN_IF_ERROR(op_->OnWatermark(combined, collector_.get()));
  BroadcastControl(StreamElement::Watermark(combined));
  return Status::OK();
}

Status Task::FireEventTimers(TimeMs watermark) {
  Status inner = Status::OK();
  timers_->OnWatermark(watermark, [&](const time::Timer& t) {
    if (!inner.ok()) return;
    if (state_ctx_ != nullptr) state_ctx_->SetCurrentKey(t.key);
    inner = op_->OnTimer(t, collector_.get());
  });
  CountTimers();
  return inner;
}

void Task::CountTimers() {
  timers_pending_.store(timers_->event_timers().size() +
                            timers_->processing_timers().size(),
                        std::memory_order_relaxed);
}

Status Task::PollProcessingTimers() {
  if (timers_ == nullptr) return Status::OK();
  Status inner = Status::OK();
  timers_->PollProcessingTimers([&](const time::Timer& t) {
    if (!inner.ok()) return;
    if (state_ctx_ != nullptr) state_ctx_->SetCurrentKey(t.key);
    inner = op_->OnTimer(t, collector_.get());
  });
  return inner;
}

Status Task::HandleBarrier(size_t input_index, uint64_t checkpoint_id,
                           CheckpointMode mode) {
  if (checkpoint_id <= last_checkpoint_done_) return Status::OK();  // stale

  // Chaos: a task death exactly at barrier alignment — the worst spot for a
  // crash, with some inputs blocked and the snapshot not yet taken.
  switch (EVO_FAULT_POINT("task.barrier.align")) {
    case evo::testing::FaultAction::kCrash:
    case evo::testing::FaultAction::kError:
      return Status::Aborted("injected failure [task.barrier.align]");
    default:
      break;
  }

  if (aligning_checkpoint_ != checkpoint_id) {
    aligning_checkpoint_ = checkpoint_id;
    barriers_seen_ = 0;
    barrier_from_input_.assign(inputs_.size(), false);
    align_started_.Reset();
  }
  if (barrier_from_input_[input_index]) {
    return Status::OK();  // duplicated barrier: already counted this input
  }
  barrier_from_input_[input_index] = true;
  ++barriers_seen_;
  if (mode == CheckpointMode::kAligned) {
    // Stop reading this channel until alignment completes (exactly-once).
    // Its pushes cannot make this task ready until then, so they must not
    // wake it either: each would cost the producer a futex wake and this
    // task a spurious sweep.
    input_blocked_[input_index] = true;
    inputs_[input_index].channel->SetConsumerWakeup(nullptr);
  }

  size_t expected = 0;
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (!inputs_[i].is_feedback() && !input_ended_[i]) ++expected;
  }
  if (barriers_seen_ < expected) return Status::OK();

  // All barriers in: snapshot, forward the barrier, unblock.
  last_checkpoint_done_ = checkpoint_id;
  aligning_checkpoint_ = 0;
  barriers_seen_ = 0;
  if (hist_align_ms_ != nullptr) {
    hist_align_ms_->Record(
        static_cast<double>(align_started_.ElapsedMillis()));
  }
  EVO_RETURN_IF_ERROR(TakeSnapshot(checkpoint_id));
  // Checkpoints double as the publication point for state the operator
  // registered lazily since Open — external queries see it mid-job.
  PublishQueryableState();
  BroadcastControl(StreamElement::Barrier(checkpoint_id, mode));
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (!input_blocked_[i]) continue;
    input_blocked_[i] = false;
    inputs_[i].channel->SetConsumerWakeup(&wakeup_);
  }
  return Status::OK();
}

Status Task::TakeSnapshot(uint64_t checkpoint_id) {
  EVO_RETURN_IF_ERROR(StepSnapshot(SIZE_MAX));  // at most one pending
  Stopwatch snap_watch;
  auto pending = std::make_unique<PendingCheckpoint>();
  pending->id = checkpoint_id;
  BinaryWriter custom, timer_bytes;
  if (source_ != nullptr) {
    EVO_RETURN_IF_ERROR(source_->SnapshotState(&custom));
  } else {
    EVO_RETURN_IF_ERROR(op_->SnapshotState(&custom));
    timers_->EncodeTo(&timer_bytes);
    CountTimers();
    pending->backend = backend_->PinKeyGroups(0, backend_->max_parallelism());
  }
  pending->head.WriteBytes(custom.buffer());
  pending->head.WriteBytes(timer_bytes.buffer());
  pending_snapshot_ = std::move(pending);
  if (hist_snapshot_ms_ != nullptr) {
    hist_snapshot_ms_->Record(snap_watch.ElapsedMillis());
  }
  // A source, or a backend that serialized at the pin, is acked right here.
  return StepSnapshot(kSnapshotStepKeys);
}

Status Task::StepSnapshot(size_t max_keys) {
  if (pending_snapshot_ == nullptr) return Status::OK();
  std::string backend_snapshot;
  if (pending_snapshot_->backend != nullptr) {
    EVO_ASSIGN_OR_RETURN(bool complete,
                         pending_snapshot_->backend->Advance(max_keys));
    if (!complete) return Status::OK();
    backend_snapshot = pending_snapshot_->backend->Take();
  }
  const std::unique_ptr<PendingCheckpoint> done = std::move(pending_snapshot_);
  done->backend.reset();  // releases the pin
  BinaryWriter& w = done->head;
  w.WriteBytes(backend_snapshot);
  if (hist_pending_ms_ != nullptr) {
    hist_pending_ms_->Record(done->since_pin.ElapsedMillis());
  }
  if (gauge_snapshot_bytes_ != nullptr) {
    gauge_snapshot_bytes_->Set(static_cast<double>(w.buffer().size()));
  }
  if (runtime_->on_snapshot) {
    // Chaos: a lost acknowledgement — the snapshot is taken and the barrier
    // still flows downstream, but the coordinator never hears about it, so
    // the checkpoint must time out without committing anything.
    if (EVO_FAULT_POINT("task.snapshot.ack") ==
        evo::testing::FaultAction::kDrop) {
      return Status::OK();
    }
    TaskSnapshot snapshot;
    snapshot.vertex = vertex_;
    snapshot.subtask = subtask_;
    snapshot.data = w.Take();
    runtime_->on_snapshot(done->id, std::move(snapshot));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Output routing
// ---------------------------------------------------------------------------

void Task::EmitRecordDownstream(Record record) {
  ++records_out_;
  // Channels take elements in wire form, so every target encodes from this
  // one element: fan-out copies no payload.
  const StreamElement e = StreamElement::OfRecord(std::move(record));
  for (size_t g = 0; g < outputs_.size(); ++g) {
    OutputGate& gate = outputs_[g];
    switch (gate.partitioning) {
      case Partitioning::kForward:
        EmitTo(g, subtask_ % gate.channels.size(), e);
        break;
      case Partitioning::kHash: {
        uint32_t kg = KeyGroup::OfHash(e.record.key,
                                       gate.downstream_max_parallelism);
        uint32_t target = KeyGroup::Owner(
            kg, gate.downstream_max_parallelism,
            static_cast<uint32_t>(gate.channels.size()));
        EmitTo(g, target, e);
        break;
      }
      case Partitioning::kBroadcast:
        for (size_t i = 0; i < gate.channels.size(); ++i) EmitTo(g, i, e);
        break;
      case Partitioning::kRebalance:
        EmitTo(g, gate.rr_cursor++ % gate.channels.size(), e);
        break;
    }
  }
}

void Task::EmitTo(size_t gate_index, size_t target, const StreamElement& e) {
  OutputGate& gate = outputs_[gate_index];
  if (gate.feedback != nullptr) {
    gate.feedback->in_flight.fetch_add(1, std::memory_order_acq_rel);
  }
  gate.channels[target]->Push(e);
}

void Task::BroadcastControl(const StreamElement& e) {
  for (OutputGate& gate : outputs_) {
    if (gate.feedback != nullptr) continue;  // control stays out of loops
    for (Channel* ch : gate.channels) ch->Push(e);
  }
}

void Task::ForwardLatencyMarker(const StreamElement& e) {
  // Source-to-here transit time: per-vertex operator latency.
  if (hist_marker_ms_ != nullptr && source_ == nullptr) {
    hist_marker_ms_->Record(
        static_cast<double>(runtime_->clock->NowMs() - e.time));
  }
  if (outputs_.empty()) {
    // Sink: record end-to-end latency.
    int64_t latency = runtime_->clock->NowMs() - e.time;
    if (hist_e2e_latency_ms_ == nullptr && runtime_->metrics != nullptr) {
      hist_e2e_latency_ms_ =
          runtime_->metrics->GetHistogram("pipeline_latency_ms");
    }
    if (hist_e2e_latency_ms_ != nullptr) {
      hist_e2e_latency_ms_->Record(static_cast<double>(latency));
    }
    if (runtime_->on_latency) {
      runtime_->on_latency(latency);
    }
    return;
  }
  OutputGate& gate = outputs_.front();
  if (gate.channels.empty()) return;
  gate.channels[gate.rr_cursor++ % gate.channels.size()]->Push(e);
}

void Task::EmitEndOfStream() {
  for (OutputGate& gate : outputs_) {
    if (gate.feedback != nullptr) continue;  // loops quiesce via the tracker
    for (Channel* ch : gate.channels) ch->Push(StreamElement::EndOfStream());
  }
}

bool Task::AllInputsEnded() const {
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (!inputs_[i].is_feedback() && !input_ended_[i]) return false;
  }
  return true;
}

bool Task::FeedbackQuiesced() const {
  for (const InputChannel& in : inputs_) {
    if (!in.is_feedback()) continue;
    if (in.feedback->in_flight.load(std::memory_order_acquire) != 0) {
      return false;
    }
    if (in.channel->Size() != 0) return false;
  }
  return true;
}

}  // namespace evo::dataflow
