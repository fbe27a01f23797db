#pragma once

/// \file job.h
/// \brief Job orchestration: compiles a Topology into tasks and channels,
/// runs them on threads, coordinates checkpoints, and restores jobs from
/// snapshots (recovery and rescaling).
///
/// The JobRunner is the in-process stand-in for a cluster JobManager. A
/// failure model is built in: InjectFailure() aborts a task like a process
/// crash; recovery is "global restart from last completed checkpoint",
/// exactly the model of 2nd-generation systems (§3.2): build a new JobRunner
/// from the same topology and the snapshot, and replayable sources rewind.

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "dataflow/channel.h"
#include "dataflow/task.h"
#include "dataflow/topology.h"
#include "obs/introspection.h"
#include "obs/journal.h"
#include "obs/reporter.h"
#include "obs/tracing.h"
#include "state/mem_backend.h"
#include "state/queryable.h"

namespace evo::dataflow {

/// \brief A completed, consistent snapshot of every task in a job.
struct JobSnapshot {
  uint64_t checkpoint_id = 0;
  std::vector<TaskSnapshot> tasks;

  void EncodeTo(BinaryWriter* w) const;
  static Status DecodeFrom(BinaryReader* r, JobSnapshot* out);
};

/// \brief Job-level configuration.
struct JobConfig {
  Clock* clock = SystemClock::Instance();
  CheckpointMode checkpoint_mode = CheckpointMode::kAligned;
  /// Periodic checkpoint interval; 0 disables the automatic coordinator
  /// (checkpoints can still be triggered manually).
  int64_t checkpoint_interval_ms = 0;
  /// Source latency-marker period; 0 disables markers.
  int64_t latency_marker_interval_ms = 0;
  size_t channel_capacity = 1024;
  uint32_t max_parallelism = KeyGroup::kDefaultMaxParallelism;
  /// Creates the keyed state backend for each (vertex, subtask). Defaults to
  /// MemBackend.
  std::function<std::unique_ptr<state::KeyedStateBackend>(
      const std::string& vertex, uint32_t subtask)>
      backend_factory;
  /// Receives side-output records (e.g. late data) from any task.
  std::function<void(const std::string& tag, const Record&)> side_output_handler;
  /// Receives end-to-end latency samples from latency markers at sinks.
  std::function<void(int64_t latency_ms)> latency_handler;

  // --- EvoScope reporting ---
  /// Background metrics-report period; 0 disables the reporter thread.
  int64_t metrics_report_interval_ms = 0;
  /// With the reporter enabled, also write each report to this path
  /// (".json" extension selects the JSON snapshot format).
  std::string report_file;
  /// Every Nth record per subtask records an operator span; 0 disables.
  uint32_t span_sample_every = 0;

  // --- EvoScope Live (introspection server + event journal) ---
  /// HTTP introspection server port: <0 disables, 0 binds an ephemeral port
  /// (read the bound port via JobRunner::IntrospectionPort()).
  int introspection_port = -1;
  std::string introspection_bind = "127.0.0.1";
  /// When non-empty, the journal also appends every event to this JSONL file.
  std::string journal_file;
  /// Route WARN/ERROR log lines into the journal (installs the process-wide
  /// logging hook for the lifetime of this runner).
  bool journal_capture_logs = false;
  /// Queryable-state registry tasks publish into. Defaults to a registry
  /// owned by the runner; pass one to share it across runners (rescaling).
  /// Not owned; must outlive the runner.
  state::QueryableStateRegistry* queryable_registry = nullptr;
};

/// \brief Runs one job instance. Create, Start, then Await/Stop. To recover
/// or rescale, construct a fresh runner passing the snapshot.
class JobRunner {
 public:
  JobRunner(const Topology& topology, JobConfig config);
  ~JobRunner();

  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  /// \brief Builds the execution graph and spawns task threads.
  /// \param restore_from when set, task state is restored before start;
  /// keyed state redistributes across the (possibly different) parallelism.
  Status Start(const JobSnapshot* restore_from = nullptr);

  /// \brief Blocks until all tasks finish (sources ended and pipeline
  /// drained) or `timeout_ms` elapses (0 = wait forever).
  Status AwaitCompletion(int64_t timeout_ms = 0);

  /// \brief Cancels all tasks and joins their threads.
  void Stop();

  /// \brief Triggers a checkpoint and waits for every task to acknowledge.
  Result<JobSnapshot> TriggerCheckpoint(int64_t timeout_ms = 10000);

  /// \brief Most recent completed checkpoint, if any (set by the periodic
  /// coordinator or by TriggerCheckpoint).
  std::optional<JobSnapshot> LastCompletedCheckpoint() const;

  /// \brief Simulates a crash of one subtask (whole-job restart semantics:
  /// after this, Stop() and recover from LastCompletedCheckpoint()).
  Status InjectFailure(const std::string& vertex, uint32_t subtask);

  /// \brief First task error observed, if any.
  std::optional<std::string> FirstError() const;

  /// \brief Looks up a running task (metrics, state inspection).
  Task* FindTask(const std::string& vertex, uint32_t subtask);
  std::vector<Task*> TasksOf(const std::string& vertex);

  /// \brief Aggregate busy ratio per vertex — the elasticity controller's
  /// per-operator utilization signal.
  std::map<std::string, double> BusyRatios();
  /// \brief Aggregate input records/sec per vertex since start.
  std::map<std::string, uint64_t> RecordsIn();

  MetricsRegistry* metrics() { return &metrics_; }
  obs::Tracer* tracer() { return &tracer_; }
  obs::MetricsReporter* reporter() { return reporter_.get(); }
  obs::EventJournal* journal() { return journal_.get(); }
  /// \brief The active queryable-state registry (config-provided or owned).
  state::QueryableStateRegistry* queryable() { return queryable_; }
  /// \brief The introspection server, when enabled (null otherwise).
  obs::IntrospectionServer* introspection() { return introspection_.get(); }
  /// \brief Bound introspection port; 0 when the server is disabled.
  uint16_t IntrospectionPort() const {
    return introspection_ ? introspection_->port() : 0;
  }
  /// \brief The /topology JSON document (valid after Start()).
  const std::string& TopologyJson() const { return topology_json_; }

  /// \brief Copies the poll-style runtime counters (per-task records in/out,
  /// busy ratio; per-channel depth/fullness/backpressure time) into registry
  /// gauges. Called automatically before each reporter tick; callable
  /// directly before a manual export.
  void PublishMetrics();

 private:
  void CoordinatorLoop();
  uint64_t BeginCheckpoint();
  /// Waits until checkpoint `id` (or a later one) completes; copies it into
  /// `out` unless `out` is null.
  bool WaitCheckpoint(uint64_t id, int64_t timeout_ms, JobSnapshot* out);
  void OnTaskSnapshot(uint64_t checkpoint_id, TaskSnapshot snapshot);
  std::string BuildTopologyJson() const;
  Status StartIntrospection();

  Topology topology_;
  JobConfig config_;
  TaskRuntime runtime_;
  MetricsRegistry metrics_;
  obs::Tracer tracer_;
  std::unique_ptr<obs::MetricsReporter> reporter_;
  std::unique_ptr<obs::EventJournal> journal_;
  state::QueryableStateRegistry owned_queryable_;
  state::QueryableStateRegistry* queryable_ = nullptr;  ///< active registry
  std::unique_ptr<obs::IntrospectionServer> introspection_;
  std::string topology_json_;

  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::unique_ptr<FeedbackTracker>> feedback_trackers_;
  std::vector<std::unique_ptr<Task>> tasks_;

  /// Per-task gauge set for PublishMetrics (parallel to tasks_).
  struct TaskGauges {
    Gauge* records_in = nullptr;
    Gauge* records_out = nullptr;
    Gauge* busy_ratio = nullptr;
    /// Pending timers as of the task's last watermark or checkpoint.
    Gauge* timers_pending = nullptr;
    /// Time parked on the task's wakeup word, and parks ended by a signal.
    Gauge* parked_ms = nullptr;
    Gauge* wakeups = nullptr;
  };
  std::vector<TaskGauges> task_gauges_;
  /// Per-channel probe for PublishMetrics (one per physical channel). All
  /// reads are relaxed-atomic channel counters, so polling never contends
  /// with the data path.
  struct ChannelProbe {
    Channel* channel = nullptr;
    Gauge* depth = nullptr;
    Gauge* fullness = nullptr;
    Gauge* blocked_ms = nullptr;
    /// Cumulative pushed count, exported with counter semantics (the
    /// channel's running total is folded in as deltas) so rate()/increase()
    /// behave across restarts.
    Counter* pushed = nullptr;
    /// Journal scope, e.g. "map->sink[0->1]".
    std::string scope;
    // Backpressure edge-transition tracking (guarded by bp_mu_).
    int64_t last_blocked_nanos = 0;
    uint64_t last_pushed = 0;
    bool backpressured = false;
  };
  std::vector<ChannelProbe> channel_probes_;
  /// Serializes backpressure transition detection (PublishMetrics may be
  /// called from the reporter thread and from /metrics handlers at once).
  std::mutex bp_mu_;
  /// Job-level checkpoint metrics.
  Histogram* hist_checkpoint_ms_ = nullptr;
  Gauge* gauge_checkpoint_bytes_ = nullptr;
  Counter* ctr_checkpoints_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable checkpoint_cv_;
  /// Notified when a task finishes or reports an error (AwaitCompletion).
  std::condition_variable task_done_cv_;
  uint64_t next_checkpoint_id_ = 0;
  size_t expected_acks_ = 0;
  struct Pending {
    std::vector<TaskSnapshot> acks;
    Stopwatch started;  ///< checkpoint wall time, armed at BeginCheckpoint
  };
  std::map<uint64_t, Pending> pending_;
  std::optional<JobSnapshot> last_completed_;
  std::optional<std::string> first_error_;

  std::thread coordinator_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
};

/// \brief Thread-safe record collector for sinks in tests/benches/examples.
class CollectingSink {
 public:
  /// \brief Returns a sink function capturing this collector.
  CallbackSink::Fn AsSinkFn() {
    return [this](const Record& r) {
      std::lock_guard<std::mutex> lock(mu_);
      records_.push_back(r);
    };
  }

  std::vector<Record> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }
  size_t Count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    records_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

}  // namespace evo::dataflow
