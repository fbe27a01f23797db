#include "trace.h"

#include <atomic>
#include <cstdio>
#include <unordered_map>

namespace evobench {

namespace {

std::atomic<uint64_t> g_next_generation{1};

struct ThreadLocalState {
  uint64_t generation = 0;
  Tracing::Thread* buffer = nullptr;
  int64_t parent = -1;
};
thread_local ThreadLocalState t_local;

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSourceEmit: return "source.emit";
    case SpanKind::kProcess: return "operators.process";
    case SpanKind::kTimer: return "operators.timer";
    case SpanKind::kStateGet: return "state.get";
    case SpanKind::kStatePut: return "state.put";
    case SpanKind::kStateRemove: return "state.remove";
    case SpanKind::kStateIterate: return "state.iterate";
    case SpanKind::kSink: return "sink";
  }
  return "unknown";
}

Tracing::Tracing() : generation_(g_next_generation.fetch_add(1)) {}

Tracing::~Tracing() = default;

CallStats* Tracing::NewSlot() {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.push_back(std::make_unique<CallStats>());
  return slots_.back().get();
}

Tracing::Thread* Tracing::Local() {
  if (t_local.generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<Thread>());
    threads_.back()->thread = static_cast<uint32_t>(threads_.size() - 1);
    threads_.back()->spans.reserve(1 << 14);
    t_local.buffer = threads_.back().get();
    t_local.generation = generation_;
    t_local.parent = -1;
  }
  return t_local.buffer;
}

int64_t Tracing::Push(const Span& span) {
  Thread* t = Local();
  t->spans.push_back(span);
  return static_cast<int64_t>(t->spans.size()) - 1;
}

void Tracing::End(int64_t index, int64_t end_ns) {
  Local()->spans[static_cast<size_t>(index)].end_ns = end_ns;
}

int64_t Tracing::CurrentParent() { return t_local.parent; }
void Tracing::SetCurrentParent(int64_t index) { t_local.parent = index; }

bool Tracing::Dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tindex\tkind\tid\tstart_ns\tend_ns\tparent\n");
  for (const auto& t : threads_) {
    for (size_t i = 0; i < t->spans.size(); ++i) {
      const Span& s = t->spans[i];
      std::fprintf(f, "%u\t%zu\t%s\t%llu\t%lld\t%lld\t%lld\n", t->thread, i,
                   SpanName(s.kind), static_cast<unsigned long long>(s.id),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent));
    }
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// TracedBackend
// ---------------------------------------------------------------------------

TracedBackend::TracedBackend(
    std::unique_ptr<evo::state::KeyedStateBackend> inner, Tracing* tracing)
    : evo::state::KeyedStateBackend(inner->max_parallelism()),
      inner_(std::move(inner)),
      tracing_(tracing),
      stats_(tracing->NewSlot()) {}

template <typename Fn>
auto TracedBackend::Timed(SpanKind kind, Fn&& fn) {
  const size_t k = static_cast<size_t>(kind);
  ++stats_->calls[k];
  if (!tracing_->on()) return fn();
  const int64_t start = NowNs();
  auto result = fn();
  const int64_t end = NowNs();
  ++stats_->timed[k];
  stats_->nanos[k] += end - start;
  const int64_t parent = Tracing::CurrentParent();
  if (parent >= 0) tracing_->Push(Span{kind, 0, start, end, parent});
  return result;
}

evo::Status TracedBackend::Put(evo::state::StateNamespace ns, uint64_t key,
                               std::string_view user_key,
                               std::string_view value) {
  stats_->put_bytes += user_key.size() + value.size();
  return Timed(SpanKind::kStatePut,
               [&] { return inner_->Put(ns, key, user_key, value); });
}

evo::Result<std::optional<std::string>> TracedBackend::Get(
    evo::state::StateNamespace ns, uint64_t key, std::string_view user_key) {
  return Timed(SpanKind::kStateGet, [&] { return inner_->Get(ns, key, user_key); });
}

evo::Status TracedBackend::Remove(evo::state::StateNamespace ns, uint64_t key,
                                  std::string_view user_key) {
  return Timed(SpanKind::kStateRemove,
               [&] { return inner_->Remove(ns, key, user_key); });
}

evo::Status TracedBackend::IterateKey(
    evo::state::StateNamespace ns, uint64_t key,
    const std::function<void(std::string_view, std::string_view)>& fn) {
  return Timed(SpanKind::kStateIterate,
               [&] { return inner_->IterateKey(ns, key, fn); });
}

evo::Status TracedBackend::IterateNamespace(
    evo::state::StateNamespace ns,
    const std::function<void(uint64_t, std::string_view, std::string_view)>&
        fn) {
  return Timed(SpanKind::kStateIterate,
               [&] { return inner_->IterateNamespace(ns, fn); });
}

evo::Result<std::string> TracedBackend::SnapshotKeyGroups(uint32_t from,
                                                          uint32_t to) {
  const int64_t start = NowNs();
  auto result = inner_->SnapshotKeyGroups(from, to);
  stats_->snapshot_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
  return result;
}

evo::Status TracedBackend::RestoreSnapshot(std::string_view snapshot) {
  const int64_t start = NowNs();
  evo::Status st = inner_->RestoreSnapshot(snapshot);
  stats_->restore_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
  return st;
}

evo::Status TracedBackend::DropKeyGroups(uint32_t from, uint32_t to) {
  return inner_->DropKeyGroups(from, to);
}

evo::Status TracedBackend::Clear() { return inner_->Clear(); }

uint64_t TracedBackend::ApproxEntryCount() const {
  return inner_->ApproxEntryCount();
}

void TracedBackend::AttachMetrics(evo::MetricsRegistry* registry,
                                  const std::string& scope) {
  inner_->AttachMetrics(registry, scope);
}

void TracedBackend::PublishMetrics() { inner_->PublishMetrics(); }

// ---------------------------------------------------------------------------
// TracedOperator
// ---------------------------------------------------------------------------

TracedOperator::TracedOperator(std::unique_ptr<evo::dataflow::Operator> inner,
                               Tracing* tracing, IdFn id_of)
    : inner_(std::move(inner)),
      tracing_(tracing),
      id_of_(id_of),
      stats_(tracing->NewSlot()) {}

template <typename Fn>
evo::Status TracedOperator::Timed(SpanKind kind, uint64_t id, Fn&& fn) {
  const size_t k = static_cast<size_t>(kind);
  ++stats_->calls[k];
  if (!tracing_->on()) return fn();
  const int64_t start = NowNs();
  const bool sampled = tracing_->Sampled(id);
  int64_t index = -1;
  if (sampled) {
    index = tracing_->Push(Span{kind, id, start, start, -1});
    Tracing::SetCurrentParent(index);
  }
  evo::Status st = fn();
  const int64_t end = NowNs();
  if (sampled) {
    Tracing::SetCurrentParent(-1);
    tracing_->End(index, end);
  }
  ++stats_->timed[k];
  stats_->nanos[k] += end - start;
  return st;
}

evo::Status TracedOperator::Open(evo::dataflow::OperatorContext* ctx) {
  EVO_RETURN_IF_ERROR(Operator::Open(ctx));
  return inner_->Open(ctx);
}

evo::Status TracedOperator::ProcessRecord(evo::Record& record,
                                          evo::dataflow::Collector* out) {
  return Timed(SpanKind::kProcess, id_of_(record.payload),
               [&] { return inner_->ProcessRecord(record, out); });
}

evo::Status TracedOperator::ProcessRecordFrom(size_t input, evo::Record& record,
                                              evo::dataflow::Collector* out) {
  return Timed(SpanKind::kProcess, id_of_(record.payload),
               [&] { return inner_->ProcessRecordFrom(input, record, out); });
}

evo::Status TracedOperator::OnWatermark(evo::TimeMs watermark,
                                        evo::dataflow::Collector* out) {
  // Due timers fire right before OnWatermark: what accumulated since the
  // last advance is this advance's firing burst.
  stats_->timer_burst_max = std::max(stats_->timer_burst_max, stats_->timer_burst);
  stats_->timer_burst = 0;
  return inner_->OnWatermark(watermark, out);
}

evo::Status TracedOperator::OnPunctuation(evo::TimeMs up_to, uint64_t key,
                                          bool key_scoped,
                                          evo::dataflow::Collector* out) {
  return inner_->OnPunctuation(up_to, key, key_scoped, out);
}

evo::Status TracedOperator::OnTimer(const evo::time::Timer& timer,
                                    evo::dataflow::Collector* out) {
  ++stats_->timer_burst;
  // Timers carry no record id; the span id is the timer's ordinal, which
  // also picks the sampled timers.
  return Timed(SpanKind::kTimer,
               stats_->calls[static_cast<size_t>(SpanKind::kTimer)],
               [&] { return inner_->OnTimer(timer, out); });
}

evo::Status TracedOperator::Close(evo::dataflow::Collector* out) {
  return inner_->Close(out);
}

evo::Status TracedOperator::OnCheckpointComplete(uint64_t checkpoint_id,
                                                 evo::dataflow::Collector* out) {
  return inner_->OnCheckpointComplete(checkpoint_id, out);
}

evo::Status TracedOperator::SnapshotState(evo::BinaryWriter* w) {
  return inner_->SnapshotState(w);
}

evo::Status TracedOperator::RestoreState(evo::BinaryReader* r) {
  return inner_->RestoreState(r);
}

// ---------------------------------------------------------------------------
// TracedSource and the sink callback
// ---------------------------------------------------------------------------

TracedSource::TracedSource(std::unique_ptr<evo::dataflow::Source> inner,
                           Tracing* tracing, IdFn id_of)
    : inner_(std::move(inner)),
      tracing_(tracing),
      id_of_(id_of),
      stats_(tracing->NewSlot()) {}

evo::Status TracedSource::Open(uint32_t subtask_index, uint32_t parallelism) {
  return inner_->Open(subtask_index, parallelism);
}

evo::dataflow::SourcePoll TracedSource::Next() {
  const bool on = tracing_->on();
  const int64_t start = on ? NowNs() : 0;
  evo::dataflow::SourcePoll poll = inner_->Next();
  if (poll.kind != evo::dataflow::SourcePoll::Kind::kRecord) return poll;
  const size_t k = static_cast<size_t>(SpanKind::kSourceEmit);
  ++stats_->calls[k];
  if (!on) return poll;
  const int64_t end = NowNs();
  ++stats_->timed[k];
  stats_->nanos[k] += end - start;
  const uint64_t id = id_of_(poll.record.payload);
  if (tracing_->Sampled(id)) {
    tracing_->Push(Span{SpanKind::kSourceEmit, id, start, end, -1});
  }
  return poll;
}

evo::Status TracedSource::SnapshotState(evo::BinaryWriter* w) {
  return inner_->SnapshotState(w);
}

evo::Status TracedSource::RestoreState(evo::BinaryReader* r) {
  return inner_->RestoreState(r);
}

std::function<void(const evo::Record&)> TraceSinkFn(
    std::function<void(const evo::Record&)> inner, Tracing* tracing,
    IdFn id_of) {
  CallStats* stats = tracing->NewSlot();
  return [inner = std::move(inner), tracing, id_of,
          stats](const evo::Record& record) {
    const size_t k = static_cast<size_t>(SpanKind::kSink);
    ++stats->calls[k];
    if (!tracing->on()) {
      inner(record);
      return;
    }
    const int64_t start = NowNs();
    inner(record);
    const int64_t end = NowNs();
    ++stats->timed[k];
    stats->nanos[k] += end - start;
    const uint64_t id = id_of(record.payload);
    if (tracing->Sampled(id)) {
      tracing->Push(Span{SpanKind::kSink, id, start, end, -1});
    }
  };
}

// ---------------------------------------------------------------------------
// Reconstruction
// ---------------------------------------------------------------------------

SpanSummary Summarize(const Tracing& tracing) {
  SpanSummary out;
  std::unordered_map<uint64_t, int64_t> emit_end;  // record id -> emit end
  for (const auto& t : tracing.threads()) {
    for (const Span& s : t->spans) {
      if (s.kind == SpanKind::kSourceEmit) emit_end[s.id] = s.end_ns;
    }
  }
  double process_self = 0, timer_self = 0;
  for (const auto& t : tracing.threads()) {
    std::vector<int64_t> child_ns(t->spans.size(), 0);
    for (const Span& s : t->spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < t->spans.size(); ++i) {
      const Span& s = t->spans[i];
      const double self = static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
      if (s.kind == SpanKind::kProcess) {
        process_self += self;
        ++out.process_spans;
        auto it = emit_end.find(s.id);
        if (it != emit_end.end() && s.start_ns >= it->second) {
          out.queue_wait_us.push_back(
              static_cast<double>(s.start_ns - it->second) / 1e3);
        }
      } else if (s.kind == SpanKind::kTimer) {
        timer_self += self;
        ++out.timer_spans;
      }
    }
  }
  if (out.process_spans > 0) {
    out.process_self_ns_mean = process_self / static_cast<double>(out.process_spans);
  }
  if (out.timer_spans > 0) {
    out.timer_self_ns_mean = timer_self / static_cast<double>(out.timer_spans);
  }
  return out;
}

}  // namespace evobench
