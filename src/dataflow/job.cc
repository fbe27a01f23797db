#include "dataflow/job.h"

#include "common/logging.h"
#include "obs/exporters.h"

namespace evo::dataflow {

namespace {
/// Feedback channels get a large capacity so cycles cannot deadlock on
/// backpressure (the engine's stand-in for spillable feedback buffers).
/// The ring is reserved, not constructed: a channel's memory becomes
/// resident only as its slots are first written, so an idle feedback edge
/// costs next to nothing. This is no bound, though: once 2^20 elements
/// have passed through one, all of its ring (2^20 128-byte slots, 128 MB)
/// is resident.
constexpr size_t kFeedbackChannelCapacity = 1 << 20;
}  // namespace

void JobSnapshot::EncodeTo(BinaryWriter* w) const {
  w->WriteU64(checkpoint_id);
  w->WriteVarU64(tasks.size());
  for (const TaskSnapshot& t : tasks) {
    w->WriteString(t.vertex);
    w->WriteU32(t.subtask);
    w->WriteBytes(t.data);
  }
}

Status JobSnapshot::DecodeFrom(BinaryReader* r, JobSnapshot* out) {
  EVO_RETURN_IF_ERROR(r->ReadU64(&out->checkpoint_id));
  uint64_t n = 0;
  EVO_RETURN_IF_ERROR(r->ReadVarU64(&n));
  out->tasks.clear();
  out->tasks.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    TaskSnapshot t;
    EVO_RETURN_IF_ERROR(r->ReadString(&t.vertex));
    EVO_RETURN_IF_ERROR(r->ReadU32(&t.subtask));
    std::string_view data;
    EVO_RETURN_IF_ERROR(r->ReadBytes(&data));
    t.data.assign(data);
    out->tasks.push_back(std::move(t));
  }
  return Status::OK();
}

JobRunner::JobRunner(const Topology& topology, JobConfig config)
    : topology_(topology), config_(std::move(config)) {
  if (!config_.backend_factory) {
    uint32_t max_par = config_.max_parallelism;
    config_.backend_factory = [max_par](const std::string&, uint32_t) {
      return std::make_unique<state::MemBackend>(max_par);
    };
  }
  runtime_.clock = config_.clock;
  runtime_.latency_marker_interval_ms = config_.latency_marker_interval_ms;
  runtime_.metrics = &metrics_;
  runtime_.tracer = &tracer_;
  runtime_.span_sample_every = config_.span_sample_every;
  runtime_.checkpoint_mode = config_.checkpoint_mode;
  hist_checkpoint_ms_ = metrics_.GetHistogram("checkpoint_duration_ms");
  gauge_checkpoint_bytes_ = metrics_.GetGauge("checkpoint_size_bytes");
  ctr_checkpoints_ = metrics_.GetCounter("checkpoints_completed_total");
  runtime_.on_snapshot = [this](uint64_t id, TaskSnapshot snapshot) {
    OnTaskSnapshot(id, std::move(snapshot));
  };
  runtime_.on_side_output = config_.side_output_handler;
  runtime_.on_latency = config_.latency_handler;
  runtime_.on_error = [this](const std::string& task, const Status& st) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_.has_value()) {
        first_error_ = task + ": " + st.ToString();
      }
    }
    task_done_cv_.notify_all();
    if (journal_ != nullptr) {
      journal_->Emit(obs::EventType::kTaskFailed, "task:" + task,
                     st.ToString());
    }
    EVO_LOG_WARN << "task failed: " << task << " " << st.ToString();
  };
  runtime_.on_finish = [this] {
    // Passing through mu_ orders the finished flag before a waiter's next
    // predicate check, so the notify cannot fall between check and wait.
    { std::lock_guard<std::mutex> lock(mu_); }
    task_done_cv_.notify_all();
  };

  // EvoScope Live: journal + queryable-state registry.
  obs::JournalOptions jopts;
  jopts.jsonl_path = config_.journal_file;
  jopts.clock = config_.clock;
  journal_ = std::make_unique<obs::EventJournal>(jopts);
  if (config_.journal_capture_logs) journal_->InstallLogHook();
  queryable_ = config_.queryable_registry != nullptr
                   ? config_.queryable_registry
                   : &owned_queryable_;
  runtime_.journal = journal_.get();
  runtime_.queryable = queryable_;
}

JobRunner::~JobRunner() { Stop(); }

Status JobRunner::Start(const JobSnapshot* restore_from) {
  if (started_) return Status::FailedPrecondition("job already started");
  started_ = true;

  const auto& vertices = topology_.vertices();
  const auto& edges = topology_.edges();

  // 1. Create tasks.
  std::vector<std::vector<Task*>> vertex_tasks(vertices.size());
  for (size_t v = 0; v < vertices.size(); ++v) {
    const Vertex& vertex = vertices[v];
    for (uint32_t s = 0; s < vertex.parallelism; ++s) {
      std::unique_ptr<Task> task;
      if (vertex.is_source()) {
        task = std::make_unique<Task>(vertex.name, s, vertex.parallelism,
                                      vertex.source(), &runtime_);
      } else {
        task = std::make_unique<Task>(
            vertex.name, s, vertex.parallelism, config_.max_parallelism,
            vertex.factory(), config_.backend_factory(vertex.name, s),
            &runtime_);
      }
      vertex_tasks[v].push_back(task.get());
      tasks_.push_back(std::move(task));
    }
  }

  // 2. Create one SPSC channel per (edge, upstream subtask, downstream
  // subtask) and wire gates/inputs. Each target vertex numbers its in-edges
  // (ordinals) in topology order so two-input operators can dispatch.
  std::vector<size_t> in_edge_count(vertices.size(), 0);
  for (const Edge& edge : edges) {
    const size_t ordinal = in_edge_count[edge.to]++;
    const Vertex& from = vertices[edge.from];
    const Vertex& to = vertices[edge.to];
    FeedbackTracker* tracker = nullptr;
    if (edge.feedback) {
      feedback_trackers_.push_back(std::make_unique<FeedbackTracker>());
      tracker = feedback_trackers_.back().get();
    }
    for (uint32_t up = 0; up < from.parallelism; ++up) {
      OutputGate gate;
      gate.partitioning = edge.partitioning;
      gate.feedback = tracker;
      gate.downstream_max_parallelism = config_.max_parallelism;
      for (uint32_t down = 0; down < to.parallelism; ++down) {
        size_t capacity = edge.feedback ? kFeedbackChannelCapacity
                                        : config_.channel_capacity;
        channels_.push_back(std::make_unique<Channel>(capacity));
        Channel* ch = channels_.back().get();
        {
          // One probe per physical channel; PublishMetrics refreshes them.
          std::string up_s = std::to_string(up);
          std::string down_s = std::to_string(down);
          auto name = [&](const char* base) {
            return obs::MetricName(base, {{"from", from.name},
                                          {"to", to.name},
                                          {"up", up_s},
                                          {"down", down_s}});
          };
          ChannelProbe probe;
          probe.channel = ch;
          probe.depth = metrics_.GetGauge(name("channel_depth"));
          probe.fullness = metrics_.GetGauge(name("channel_fullness"));
          probe.blocked_ms = metrics_.GetGauge(name("channel_blocked_ms"));
          probe.pushed = metrics_.GetCounter(name("channel_pushed_total"));
          probe.scope = "channel:" + from.name + "->" + to.name + "[" + up_s +
                        "->" + down_s + "]";
          channel_probes_.push_back(std::move(probe));
        }
        gate.channels.push_back(ch);
        InputChannel in;
        in.channel = ch;
        in.ordinal = ordinal;
        in.feedback = tracker;
        vertex_tasks[edge.to][down]->AddInput(in);
      }
      vertex_tasks[edge.from][up]->AddOutput(std::move(gate));
    }
  }

  // 3. Distribute restore payloads; each task copies the ones it needs.
  if (restore_from != nullptr) {
    for (size_t v = 0; v < vertices.size(); ++v) {
      std::vector<const TaskSnapshot*> for_vertex;
      for (const TaskSnapshot& t : restore_from->tasks) {
        if (t.vertex == vertices[v].name) for_vertex.push_back(&t);
      }
      if (for_vertex.empty()) continue;
      for (Task* task : vertex_tasks[v]) {
        EVO_RETURN_IF_ERROR(task->Restore(for_vertex));
      }
    }
  }

  // 4. Resolve per-task poll gauges (stable registry pointers).
  task_gauges_.clear();
  task_gauges_.reserve(tasks_.size());
  for (const auto& task : tasks_) {
    TaskGauges g;
    g.records_in = metrics_.GetGauge(
        obs::TaskMetricName("task_records_in", task->vertex(), task->subtask()));
    g.records_out = metrics_.GetGauge(obs::TaskMetricName(
        "task_records_out", task->vertex(), task->subtask()));
    g.busy_ratio = metrics_.GetGauge(
        obs::TaskMetricName("task_busy_ratio", task->vertex(), task->subtask()));
    g.timers_pending = metrics_.GetGauge(obs::TaskMetricName(
        "task_timers_pending", task->vertex(), task->subtask()));
    g.parked_ms = metrics_.GetGauge(
        obs::TaskMetricName("task_parked_ms", task->vertex(), task->subtask()));
    g.wakeups = metrics_.GetGauge(obs::TaskMetricName(
        "task_wakeups_total", task->vertex(), task->subtask()));
    task_gauges_.push_back(g);
  }

  // 5. Go.
  {
    std::lock_guard<std::mutex> lock(mu_);
    expected_acks_ = tasks_.size();
  }
  topology_json_ = BuildTopologyJson();
  journal_->Emit(obs::EventType::kJobStart, "job", "job started",
                 {obs::F("tasks", static_cast<uint64_t>(tasks_.size())),
                  obs::F("channels", static_cast<uint64_t>(channels_.size())),
                  obs::F("restored", restore_from != nullptr ? "true" : "false")});
  for (auto& task : tasks_) task->Start();

  if (config_.checkpoint_interval_ms > 0) {
    coordinator_ = std::thread([this] { CoordinatorLoop(); });
  }
  if (config_.metrics_report_interval_ms > 0) {
    obs::MetricsReporter::Options opts;
    opts.interval_ms = config_.metrics_report_interval_ms;
    reporter_ = std::make_unique<obs::MetricsReporter>(&metrics_, opts);
    reporter_->SetPreCollect([this] { PublishMetrics(); });
    if (!config_.report_file.empty()) {
      reporter_->AddSink(std::make_unique<obs::FileSink>(config_.report_file));
    }
    reporter_->Start();
  }
  if (config_.introspection_port >= 0) {
    EVO_RETURN_IF_ERROR(StartIntrospection());
  }
  return Status::OK();
}

Status JobRunner::StartIntrospection() {
  obs::HttpServerOptions opts;
  opts.bind_address = config_.introspection_bind;
  opts.port = static_cast<uint16_t>(config_.introspection_port);
  introspection_ = std::make_unique<obs::IntrospectionServer>(opts);
  introspection_->AttachMetrics(&metrics_, [this] { PublishMetrics(); });
  introspection_->AttachTracer(&tracer_);
  introspection_->AttachJournal(journal_.get());
  introspection_->AttachQueryableState(queryable_);
  introspection_->SetTopologyProvider([this] { return topology_json_; });
  Status st = introspection_->Start();
  if (!st.ok()) {
    introspection_.reset();
    return st;
  }
  EVO_LOG_INFO << "introspection server listening on "
               << config_.introspection_bind << ":" << introspection_->port();
  return Status::OK();
}

std::string JobRunner::BuildTopologyJson() const {
  const auto& vertices = topology_.vertices();
  const auto& edges = topology_.edges();
  std::string out = "{\"vertices\":[";
  for (size_t v = 0; v < vertices.size(); ++v) {
    if (v > 0) out += ",";
    const Vertex& vertex = vertices[v];
    out += "{\"name\":\"" + obs::JsonEscape(vertex.name) +
           "\",\"parallelism\":" + std::to_string(vertex.parallelism) +
           ",\"kind\":\"" + (vertex.is_source() ? "source" : "operator") +
           "\"}";
  }
  out += "],\"edges\":[";
  auto partitioning_name = [](Partitioning p) -> const char* {
    switch (p) {
      case Partitioning::kForward: return "forward";
      case Partitioning::kHash: return "hash";
      case Partitioning::kBroadcast: return "broadcast";
      case Partitioning::kRebalance: return "rebalance";
    }
    return "unknown";
  };
  for (size_t e = 0; e < edges.size(); ++e) {
    if (e > 0) out += ",";
    const Edge& edge = edges[e];
    out += "{\"from\":\"" + obs::JsonEscape(vertices[edge.from].name) +
           "\",\"to\":\"" + obs::JsonEscape(vertices[edge.to].name) +
           "\",\"partitioning\":\"" + partitioning_name(edge.partitioning) +
           "\",\"feedback\":" + (edge.feedback ? "true" : "false") + "}";
  }
  out += "],\"checkpoint_mode\":\"";
  out += config_.checkpoint_mode == CheckpointMode::kAligned ? "aligned"
                                                             : "unaligned";
  out += "\",\"max_parallelism\":" + std::to_string(config_.max_parallelism) +
         "}";
  return out;
}

Status JobRunner::AwaitCompletion(int64_t timeout_ms) {
  auto done = [this] {
    if (first_error_.has_value()) return true;
    for (const auto& task : tasks_) {
      if (!task->finished()) return false;
    }
    return true;
  };
  std::unique_lock<std::mutex> lock(mu_);
  if (timeout_ms > 0) {
    if (!task_done_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                                done)) {
      return Status::TimedOut("job did not finish in time");
    }
  } else {
    task_done_cv_.wait(lock, done);
  }
  if (first_error_.has_value()) return Status::Aborted(*first_error_);
  return Status::OK();
}

void JobRunner::Stop() {
  if (!stopping_.exchange(true)) {
    journal_->Emit(obs::EventType::kJobStop, "job", "job stopping");
  }
  // Introspection server first: its handlers read metrics, tasks, and state
  // backends, which are about to be torn down.
  if (introspection_ != nullptr) introspection_->Stop();
  // Reporter next: its final tick reads the tasks while they still exist.
  if (reporter_ != nullptr) reporter_->Stop();
  // Passing through mu_ orders the stopping_ store before any waiter's next
  // predicate check, so the wake-up below cannot fall between its check and
  // its wait.
  { std::lock_guard<std::mutex> lock(mu_); }
  checkpoint_cv_.notify_all();  // wake the coordinator out of any wait
  for (auto& task : tasks_) task->Cancel();
  for (auto& channel : channels_) channel->Close();
  for (auto& task : tasks_) task->Join();
  if (coordinator_.joinable()) coordinator_.join();
  // Backends survive until ~Task, but external queries must stop resolving
  // to them the moment the job is stopped.
  for (auto& task : tasks_) task->RevokeQueryableState();
}

uint64_t JobRunner::BeginCheckpoint() {
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = ++next_checkpoint_id_;
    pending_[id] = Pending{};
  }
  journal_->Emit(obs::EventType::kCheckpointTriggered, "job",
                 "checkpoint " + std::to_string(id) + " triggered",
                 {obs::F("checkpoint_id", id),
                  obs::F("mode", config_.checkpoint_mode == CheckpointMode::kAligned
                                     ? "aligned"
                                     : "unaligned")});
  for (auto& task : tasks_) {
    if (task->is_source()) task->RequestCheckpoint(id);
  }
  return id;
}

bool JobRunner::WaitCheckpoint(uint64_t id, int64_t timeout_ms,
                               JobSnapshot* out) {
  std::unique_lock<std::mutex> lock(mu_);
  bool done = checkpoint_cv_.wait_for(
      lock, std::chrono::milliseconds(timeout_ms), [&] {
        return stopping_.load(std::memory_order_acquire) ||
               (last_completed_.has_value() &&
                last_completed_->checkpoint_id >= id);
      });
  if (!done || !last_completed_.has_value() ||
      last_completed_->checkpoint_id < id) {
    return false;
  }
  if (out != nullptr) *out = *last_completed_;
  return true;
}

Result<JobSnapshot> JobRunner::TriggerCheckpoint(int64_t timeout_ms) {
  for (const auto& task : tasks_) {
    if (task->finished()) {
      return Status::FailedPrecondition(
          "cannot checkpoint: task already finished");
    }
  }
  uint64_t id = BeginCheckpoint();
  JobSnapshot snapshot;
  if (!WaitCheckpoint(id, timeout_ms, &snapshot)) {
    journal_->Emit(obs::EventType::kCheckpointFailed, "job",
                   "checkpoint " + std::to_string(id) + " timed out",
                   {obs::F("checkpoint_id", id),
                    obs::F("timeout_ms", static_cast<int64_t>(timeout_ms))});
    return Status::TimedOut("checkpoint " + std::to_string(id) +
                            " did not complete");
  }
  return snapshot;
}

std::optional<JobSnapshot> JobRunner::LastCompletedCheckpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_completed_;
}

void JobRunner::OnTaskSnapshot(uint64_t checkpoint_id, TaskSnapshot snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_.find(checkpoint_id);
  if (it == pending_.end()) return;  // aborted/unknown
  it->second.acks.push_back(std::move(snapshot));
  if (it->second.acks.size() < expected_acks_) return;
  JobSnapshot complete;
  complete.checkpoint_id = checkpoint_id;
  complete.tasks = std::move(it->second.acks);
  const int64_t duration_ms = it->second.started.ElapsedMillis();
  hist_checkpoint_ms_->Record(static_cast<double>(duration_ms));
  size_t total_bytes = 0;
  for (const TaskSnapshot& t : complete.tasks) total_bytes += t.data.size();
  gauge_checkpoint_bytes_->Set(static_cast<double>(total_bytes));
  ctr_checkpoints_->Inc();
  journal_->Emit(obs::EventType::kCheckpointCompleted, "job",
                 "checkpoint " + std::to_string(checkpoint_id) + " completed",
                 {obs::F("checkpoint_id", checkpoint_id),
                  obs::F("duration_ms", duration_ms),
                  obs::F("bytes", static_cast<uint64_t>(total_bytes))});
  pending_.erase(it);
  if (!last_completed_.has_value() ||
      last_completed_->checkpoint_id < checkpoint_id) {
    last_completed_ = std::move(complete);
  }
  for (auto& task : tasks_) task->NotifyCheckpointComplete(checkpoint_id);
  checkpoint_cv_.notify_all();
}

void JobRunner::CoordinatorLoop() {
  while (true) {
    {
      // Stop() notifies checkpoint_cv_, so it never waits out the interval.
      std::unique_lock<std::mutex> lock(mu_);
      if (checkpoint_cv_.wait_for(
              lock, std::chrono::milliseconds(config_.checkpoint_interval_ms),
              [this] { return stopping_.load(std::memory_order_acquire); })) {
        return;
      }
    }
    bool any_finished = false;
    for (const auto& task : tasks_) any_finished |= task->finished();
    if (any_finished) return;  // job draining: stop checkpointing
    uint64_t id = BeginCheckpoint();
    if (!WaitCheckpoint(id, /*timeout_ms=*/30000, /*out=*/nullptr) &&
        !stopping_.load(std::memory_order_acquire)) {
      journal_->Emit(obs::EventType::kCheckpointFailed, "job",
                     "periodic checkpoint " + std::to_string(id) +
                         " did not complete",
                     {obs::F("checkpoint_id", id)});
    }
  }
}

Status JobRunner::InjectFailure(const std::string& vertex, uint32_t subtask) {
  Task* task = FindTask(vertex, subtask);
  if (task == nullptr) return Status::NotFound("no task " + vertex);
  task->InjectFailure();
  return Status::OK();
}

std::optional<std::string> JobRunner::FirstError() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

Task* JobRunner::FindTask(const std::string& vertex, uint32_t subtask) {
  for (auto& task : tasks_) {
    if (task->vertex() == vertex && task->subtask() == subtask) {
      return task.get();
    }
  }
  return nullptr;
}

std::vector<Task*> JobRunner::TasksOf(const std::string& vertex) {
  std::vector<Task*> out;
  for (auto& task : tasks_) {
    if (task->vertex() == vertex) out.push_back(task.get());
  }
  return out;
}

std::map<std::string, double> JobRunner::BusyRatios() {
  std::map<std::string, double> out;
  std::map<std::string, int> counts;
  for (auto& task : tasks_) {
    out[task->vertex()] += task->BusyRatio();
    counts[task->vertex()]++;
  }
  for (auto& [vertex, sum] : out) sum /= counts[vertex];
  return out;
}

std::map<std::string, uint64_t> JobRunner::RecordsIn() {
  std::map<std::string, uint64_t> out;
  for (auto& task : tasks_) out[task->vertex()] += task->RecordsIn();
  return out;
}

void JobRunner::PublishMetrics() {
  for (size_t i = 0; i < tasks_.size() && i < task_gauges_.size(); ++i) {
    const Task& task = *tasks_[i];
    const TaskGauges& g = task_gauges_[i];
    g.records_in->Set(static_cast<double>(task.RecordsIn()));
    g.records_out->Set(static_cast<double>(task.RecordsOut()));
    g.busy_ratio->Set(task.BusyRatio());
    g.timers_pending->Set(static_cast<double>(task.TimersPending()));
    g.parked_ms->Set(task.ParkedMillis());
    g.wakeups->Set(static_cast<double>(task.Wakeups()));
  }
  {
    // Backpressure edge detection: a channel goes "backpressured" when it is
    // nearly full or writers accumulated new blocked time since the last
    // poll; it recovers once drained with no fresh blocking. Transitions are
    // journaled so /events shows when and where the pipeline pushed back.
    std::lock_guard<std::mutex> lock(bp_mu_);
    for (ChannelProbe& probe : channel_probes_) {
      const double fullness = probe.channel->Fullness();
      const int64_t blocked_nanos = probe.channel->BlockedNanos();
      probe.depth->Set(static_cast<double>(probe.channel->Size()));
      probe.fullness->Set(fullness);
      probe.blocked_ms->Set(static_cast<double>(blocked_nanos) / 1e6);
      const uint64_t pushed_now = probe.channel->PushedCount();
      probe.pushed->Inc(pushed_now - probe.last_pushed);
      probe.last_pushed = pushed_now;
      const bool newly_blocked = blocked_nanos > probe.last_blocked_nanos;
      if (!probe.backpressured && (fullness >= 0.9 || newly_blocked)) {
        probe.backpressured = true;
        if (journal_ != nullptr) {
          journal_->Emit(obs::EventType::kBackpressureOn, probe.scope,
                         "channel backpressured",
                         {obs::F("fullness", fullness),
                          obs::F("blocked_ms",
                                 static_cast<double>(blocked_nanos) / 1e6)});
        }
      } else if (probe.backpressured && fullness <= 0.5 && !newly_blocked) {
        probe.backpressured = false;
        if (journal_ != nullptr) {
          journal_->Emit(obs::EventType::kBackpressureOff, probe.scope,
                         "channel recovered",
                         {obs::F("fullness", fullness)});
        }
      }
      probe.last_blocked_nanos = blocked_nanos;
    }
  }
  for (auto& task : tasks_) {
    if (task->backend() != nullptr) task->backend()->PublishMetrics();
  }
}

}  // namespace evo::dataflow
