#include "bench.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/hash.h"
#include "dataflow/job.h"
#include "operators/window.h"
#include "state/lsm_backend.h"
#include "state/mem_backend.h"
#include "state/state_api.h"
#include "trace.h"

namespace evobench {

namespace df = evo::dataflow;
using evo::Record;
using evo::Status;
using evo::Value;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;
    WorkloadSpec win;
    win.kind = Kind::kWindow;
    win.name = "window_agg";
    win.op_vertex = "window";
    win.rate_rps = 50'000;
    win.keys = 100'000;
    win.theta = 0.99;
    win.checkpoint_interval_ms = 1000;
    win.disorder_ms = 20;
    win.displaced_frac = 0.05;
    win.window_size_ms = 1000;
    win.window_slide_ms = 250;
    win.jobs_per_run = 6;
    win.restores_per_job = 5;
    win.setups_per_job = 3;
    w.push_back(win);

    WorkloadSpec lsm;
    lsm.kind = Kind::kLsm;
    lsm.name = "stateful_lsm";
    lsm.op_vertex = "profile";
    lsm.rate_rps = 7'000;
    lsm.keys = 200'000;
    lsm.theta = 0.99;
    lsm.checkpoint_interval_ms = 2000;
    lsm.jobs_per_run = 4;
    lsm.restores_per_job = 2;
    w.push_back(lsm);
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Digest
// ---------------------------------------------------------------------------

uint64_t Digest::Count() const {
  uint64_t n = 0;
  for (const auto& [group, g] : groups) n += g.first;
  return n;
}

void Digest::EncodeTo(evo::BinaryWriter* w) const {
  w->WriteU64(groups.size());
  for (const auto& [group, g] : groups) {
    w->WriteI64(group);
    w->WriteU64(g.first);
    w->WriteU64(g.second);
  }
}

Status Digest::DecodeFrom(evo::BinaryReader* r) {
  groups.clear();
  uint64_t n = 0;
  EVO_RETURN_IF_ERROR(r->ReadU64(&n));
  for (uint64_t i = 0; i < n; ++i) {
    int64_t group = 0;
    uint64_t count = 0, sum = 0;
    EVO_RETURN_IF_ERROR(r->ReadI64(&group));
    EVO_RETURN_IF_ERROR(r->ReadU64(&count));
    EVO_RETURN_IF_ERROR(r->ReadU64(&sum));
    groups[group] = {count, sum};
  }
  return Status::OK();
}

uint64_t CountMismatches(const Digest& expected, const Digest& got) {
  uint64_t bad = 0;
  auto diff = [](const std::pair<uint64_t, uint64_t>& a,
                 const std::pair<uint64_t, uint64_t>& b) -> uint64_t {
    if (a == b) return 0;
    const uint64_t d = a.first > b.first ? a.first - b.first : b.first - a.first;
    return std::max<uint64_t>(d, 1);
  };
  const std::pair<uint64_t, uint64_t> none{0, 0};
  for (const auto& [group, g] : expected.groups) {
    auto it = got.groups.find(group);
    bad += diff(g, it == got.groups.end() ? none : it->second);
  }
  for (const auto& [group, g] : got.groups) {
    if (expected.groups.count(group) == 0) bad += diff(none, g);
  }
  return bad;
}

// ---------------------------------------------------------------------------
// Records, operators, results
// ---------------------------------------------------------------------------

EventClock MakeEventClock(const WorkloadSpec& spec) {
  EventClock c;
  c.disorder_ms = spec.disorder_ms;
  c.displaced_frac = spec.displaced_frac;
  return c;
}

int64_t FlushMarker(const WorkloadSpec& spec, const EventClock& clock,
                    uint64_t end) {
  return clock.Base(end == 0 ? 0 : end - 1) + spec.window_size_ms + 1;
}

int64_t NextSegmentBase(const WorkloadSpec& spec, int64_t marker) {
  const int64_t past = marker + spec.disorder_ms + spec.window_size_ms +
                       std::max<int64_t>(spec.window_slide_ms, 1);
  return (past / 1000 + 1) * 1000;
}

void StartSegment(const WorkloadSpec& spec, EventClock* clock, uint64_t end) {
  const int64_t marker = FlushMarker(spec, *clock, end);
  clock->segments.push_back({end, NextSegmentBase(spec, marker)});
}

Record MakeRecord(const WorkloadSpec& spec, const Zipf* zipf, uint64_t seed,
                  const EventClock& clock, uint64_t i, int64_t due_ns) {
  const int64_t id = static_cast<int64_t>(i);
  switch (spec.kind) {
    case Kind::kWindow: {
      const KeyedAmount ka = KeyedAmountOf(seed, i, *zipf, 1000);
      return Record(clock.EventTime(seed, i), KeyHash(ka.key_id),
                    Value::Tuple(id, due_ns, ka.amount));
    }
    case Kind::kLsm: {
      const KeyedAmount ka = KeyedAmountOf(seed, i, *zipf, 100);
      return Record(clock.Base(i), KeyHash(ka.key_id),
                    Value::Tuple(id, due_ns, ka.amount));
    }
  }
  return Record();
}

namespace {

/// window_agg's window function: sum, count, latest due time, largest id.
Value SumCountFn(uint64_t, const evo::op::Window&,
                 const std::vector<Value>& contents) {
  int64_t sum = 0, max_due = INT64_MIN, max_id = -1;
  for (const Value& v : contents) {
    const evo::ValueList& f = v.AsList();
    max_id = std::max(max_id, f[0].AsInt());
    max_due = std::max(max_due, f[1].AsInt());
    sum += f[2].AsInt();
  }
  return Value::Tuple(sum, static_cast<int64_t>(contents.size()), max_due,
                      max_id);
}

/// stateful_lsm's middle operator: ValueState get + put per record.
std::unique_ptr<df::Operator> MakeProfileOperator() {
  using ProfileState = evo::state::ValueState<std::string>;
  auto state = std::make_shared<std::unique_ptr<ProfileState>>();
  df::ProcessOperator::Hooks hooks;
  hooks.on_record = [state](df::OperatorContext* ctx, Record& record,
                            df::Collector* out) -> Status {
    if (*state == nullptr) {
      *state = std::make_unique<ProfileState>(ctx->state(), "profile");
    }
    EVO_ASSIGN_OR_RETURN(auto raw, (*state)->Get());
    // A key missing from state reads as an empty profile, so lost state
    // shows up as wrong results rather than being masked.
    Profile p;
    if (raw.has_value() && !DecodeProfile(*raw, &p)) {
      return Status::DataLoss("corrupt profile");
    }
    const evo::ValueList& f = record.payload.AsList();
    p.count += 1;
    p.total += f[2].AsInt();
    p.last_id = static_cast<uint64_t>(f[0].AsInt());
    EVO_RETURN_IF_ERROR((*state)->Put(EncodeProfile(p)));
    out->Emit(Record(record.event_time, record.key,
                     Value::Tuple(f[0], f[1], p.count, p.total)));
    return Status::OK();
  };
  return std::make_unique<df::ProcessOperator>(std::move(hooks));
}

}  // namespace

std::unique_ptr<df::Operator> MakeWorkOperator(const WorkloadSpec& spec) {
  switch (spec.kind) {
    case Kind::kWindow:
      return std::make_unique<evo::op::WindowOperator>(
          std::make_shared<evo::op::SlidingWindows>(spec.window_size_ms,
                                                    spec.window_slide_ms),
          &SumCountFn);
    case Kind::kLsm:
      return MakeProfileOperator();
  }
  return nullptr;
}

namespace {
uint64_t U(int64_t v) { return static_cast<uint64_t>(v); }
}  // namespace

void DigestOfResult(const WorkloadSpec& spec, const Record& result,
                    int64_t* group, uint64_t* hash, int64_t* due_ns) {
  const evo::ValueList& f = result.payload.AsList();
  switch (spec.kind) {
    case Kind::kWindow: {
      const int64_t start = f[0].AsInt();
      const evo::ValueList& r = f[2].AsList();
      *group = start;
      *hash = ResultHash(result.key ^ Mix(U(start)), U(r[0].AsInt()),
                         U(r[1].AsInt()), U(r[3].AsInt()));
      *due_ns = r[2].AsInt();
      return;
    }
    case Kind::kLsm: {
      const int64_t id = f[0].AsInt();
      *group = id >> 16;
      *hash = ResultHash(U(id), U(f[2].AsInt()), U(f[3].AsInt()), result.key);
      *due_ns = f[1].AsInt();
      return;
    }
  }
}

uint64_t InputIdOf(const Value& payload) {
  return U(payload.AsList()[0].AsInt());
}

uint64_t ResultIdOf(const Value& payload) {
  const evo::ValueList& f = payload.AsList();
  if (f[2].is_list()) return U(f[2].AsList()[3].AsInt());  // window result
  return U(f[0].AsInt());
}

// ---------------------------------------------------------------------------
// Reference
// ---------------------------------------------------------------------------

Digest Reference(const WorkloadSpec& spec, uint64_t seed,
                 const EventClock& clock, uint64_t n_total, const Zipf* zipf) {
  Digest d;
  switch (spec.kind) {
    case Kind::kWindow: {
      struct Acc {
        int64_t sum = 0, count = 0, max_id = -1;
      };
      // Open windows by start; a window is final once no later record can
      // fall into it (every later event time is >= Base(i) - disorder).
      std::map<int64_t, std::unordered_map<uint64_t, Acc>> open;
      auto finalize = [&d](int64_t start,
                           const std::unordered_map<uint64_t, Acc>& keys) {
        for (const auto& [key, a] : keys) {
          d.Add(start, ResultHash(key ^ Mix(U(start)), U(a.sum), U(a.count),
                                  U(a.max_id)));
        }
      };
      const int64_t size = spec.window_size_ms, slide = spec.window_slide_ms;
      for (uint64_t i = 0; i < n_total; ++i) {
        const KeyedAmount ka = KeyedAmountOf(seed, i, *zipf, 1000);
        const uint64_t key = KeyHash(ka.key_id);
        const int64_t ts = clock.EventTime(seed, i);
        for (int64_t start = (ts / slide) * slide; start > ts - size;
             start -= slide) {
          Acc& a = open[start][key];
          a.sum += ka.amount;
          ++a.count;
          a.max_id = std::max(a.max_id, static_cast<int64_t>(i));
          if (start < slide) break;
        }
        const int64_t safe = clock.Base(i) - spec.disorder_ms;
        while (!open.empty() && open.begin()->first + size <= safe) {
          finalize(open.begin()->first, open.begin()->second);
          open.erase(open.begin());
        }
      }
      for (const auto& [start, keys] : open) finalize(start, keys);
      break;
    }
    case Kind::kLsm: {
      std::unordered_map<uint64_t, Profile> touched;
      touched.reserve(std::min<uint64_t>(n_total, zipf->n()));
      for (uint64_t i = 0; i < n_total; ++i) {
        const KeyedAmount ka = KeyedAmountOf(seed, i, *zipf, 100);
        auto [it, inserted] = touched.try_emplace(ka.key_id);
        if (inserted) it->second = InitialProfile(ka.key_id);
        Profile& p = it->second;
        p.count += 1;
        p.total += ka.amount;
        d.Add(static_cast<int64_t>(i >> 16),
              ResultHash(i, U(p.count), U(p.total), KeyHash(ka.key_id)));
      }
      break;
    }
  }
  return d;
}

// ---------------------------------------------------------------------------
// Job instances
// ---------------------------------------------------------------------------

namespace {

constexpr int64_t kCheckpointTimeoutMs = 60'000;
constexpr int64_t kAwaitTimeoutMs = 120'000;
constexpr uint64_t kWatermarkEvery = 100;
/// Every job starts with this many untimed saturated bursts. A vCPU left
/// idle (as during a single-threaded set-up) ran up to 4x slower for about
/// a second on a 4-vCPU VM. The warm-up also starts every job's timed
/// bursts from the same state (for stateful_lsm: a tree that has taken
/// writes since its compaction).
constexpr int kWarmupBursts = 1;

/// \brief Fixed-size log-linear histogram of non-negative nanosecond
/// durations: exact below 256 ns, then 256 buckets per power of two (bucket
/// width under 0.4% of the value). Recording never allocates, so the
/// benchmark's own memory does not grow with the number of samples.
class NsHistogram {
 public:
  void Add(int64_t ns) {
    ++counts_[Index(ns > 0 ? static_cast<uint64_t>(ns) : 0)];
    ++n_;
  }
  uint64_t count() const { return n_; }
  void Merge(const NsHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    n_ += other.n_;
  }
  /// The q-quantile in microseconds, interpolated inside its bucket.
  double QuantileUs(double q) const {
    if (n_ == 0) return 0;
    const double rank = q * static_cast<double>(n_ - 1);
    uint64_t below = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      if (static_cast<double>(below + counts_[i]) > rank) {
        const double frac = (rank - static_cast<double>(below) + 0.5) /
                            static_cast<double>(counts_[i]);
        const double lower = static_cast<double>(Lower(i));
        const double width = static_cast<double>(Lower(i + 1)) - lower;
        return (lower + frac * width) / 1e3;
      }
      below += counts_[i];
    }
    return static_cast<double>(Lower(kBuckets - 1)) / 1e3;
  }

 private:
  static constexpr int kSubBits = 8;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kBuckets = (64 - kSubBits + 1) * kSub;

  static size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int shift = 63 - __builtin_clzll(v) - kSubBits;
    return static_cast<size_t>(shift + 1) * kSub + ((v >> shift) & (kSub - 1));
  }
  static uint64_t Lower(size_t i) {
    const size_t block = i / kSub;
    const uint64_t sub = i % kSub;
    return block == 0 ? sub : (kSub | sub) << (block - 1);
  }

  std::vector<uint32_t> counts_ = std::vector<uint32_t>(kBuckets);
  uint64_t n_ = 0;
};

/// A directory removed (recursively) when the object dies.
class TempDir {
 public:
  explicit TempDir(std::string path) : path_(std::move(path)) {
    std::error_code ec;
    std::filesystem::create_directories(path_, ec);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string NewTempPath(const std::string& work_dir) {
  static std::atomic<uint64_t> counter{0};
  return work_dir + "/tmp/evobench-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1));
}

/// Coordination between the main thread, the source and the sink.
struct SourceControl {
  std::atomic<bool> started{false};        ///< main: begin phase 1
  std::atomic<bool> phase2_done{false};    ///< source: phase 2 emitted
  std::atomic<bool> finish{false};         ///< main: end the stream
  std::atomic<bool> released{false};       ///< main: start the replay
  /// Current segment (bursts 0..bursts-1, then phase 2) and its start; the
  /// main thread schedules checkpoints from them.
  std::atomic<int> segment{-1};
  std::atomic<int64_t> segment_start_ns{0};
  /// Flush watermark of the last ended burst; bursts ended / drained.
  std::atomic<int64_t> marker{INT64_MAX};
  std::atomic<int> bursts_ended{0};
  std::atomic<int> bursts_drained{0};
};

/// Written by the sink thread only; read after the job stopped.
struct SinkState {
  Digest digest;
  uint64_t results = 0;
  uint64_t corrupt_at = 0;
  int bursts = 0;   ///< results after this many drained bursts are phase 2
  int drained = 0;
  int64_t last_result_ns = 0;
  std::vector<int64_t> burst_last_result_ns;
  int64_t slice_ns = 1;            ///< phase-2 slice: a checkpoint interval
  int64_t phase2_start_ns = 0;     ///< read on the first phase-2 result
  std::vector<NsHistogram> latency;  ///< phase 2, by slice
};

/// Written by the source thread only; read after the job stopped.
struct SourceLog {
  std::vector<int64_t> burst_first_emit_ns;
  std::vector<uint64_t> burst_records;
  NsHistogram gen_lag;              ///< phase 2: emit time - due time
  EventClock clock;                 ///< the stream's final segment layout
  uint64_t total_records = 0;
};

struct JobCtx {
  const WorkloadSpec* spec = nullptr;
  std::shared_ptr<const Zipf> zipf;
  uint64_t seed = 0;
  bool replay = false;
  int bursts = 0;               ///< live: saturated bursts, warm-up included
  int first_burst = 0;          ///< live: run-wide index of the first timed burst
  int64_t burst_ns = 0;         ///< live: length of one saturated burst
  uint64_t phase2_records = 0;  ///< live: open-loop record count
  EventClock clock;             ///< replay: the full layout
  uint64_t replay_end = 0;      ///< replay: stream length
  Tracing* tracing = nullptr;
  SourceControl ctl;
  SinkState sink;
  SourceLog source;
  std::unique_ptr<TempDir> dir;
  std::vector<std::unique_ptr<evo::state::KeyedStateBackend>> backends;
  std::vector<evo::state::LsmBackend*> lsm;  ///< owned by the tasks
  std::unique_ptr<df::JobRunner> runner;     ///< last: dies first
};

/// Whether run-wide saturated burst `burst` of a traced pass is traced: every
/// other one (each job's second), so the tracing overhead compares
/// interleaved bursts.
bool BurstTraced(int burst) { return burst % 2 == 1; }

/// The benchmark's source: generates records on the fly from the seed, runs
/// the phases, and snapshots/restores its own offset for exactly-once replay.
class BenchSource final : public df::Source {
 public:
  explicit BenchSource(JobCtx* job)
      : job_(job),
        clock_(job->replay ? job->clock : MakeEventClock(*job->spec)),
        state_(job->replay ? State::kReplayGate : State::kWaitStart) {}

  df::SourcePoll Next() override {
    if (pending_wm_) {
      pending_wm_ = false;
      wm_ = pending_wm_value_;
      return df::SourcePoll::Wm(wm_);
    }
    SourceControl& ctl = job_->ctl;
    switch (state_) {
      case State::kWaitStart:
        if (!ctl.started.load(std::memory_order_acquire)) return Heartbeat();
        BeginSegment(State::kBurst);
        [[fallthrough]];
      case State::kBurst:
        if ((next_ & 63) == 0 && next_ > segment_first_ &&
            NowNs() >= segment_start_ns_ + job_->burst_ns) {
          return EndBurst();
        }
        return Emit(NowNs());
      case State::kDrain:
        if (ctl.bursts_drained.load(std::memory_order_acquire) <
            ctl.bursts_ended.load(std::memory_order_relaxed)) {
          return Heartbeat();
        }
        if (segment_ + 1 < job_->bursts) {
          BeginSegment(State::kBurst);
          return Emit(NowNs());
        }
        BeginSegment(State::kPhase2);
        n_total_ = next_ + job_->phase2_records;
        [[fallthrough]];
      case State::kPhase2: {
        if (next_ >= n_total_) {
          state_ = State::kDone;
          job_->source.clock = clock_;
          job_->source.total_records = n_total_;
          ctl.phase2_done.store(true, std::memory_order_release);
          return Heartbeat();
        }
        const uint64_t k = next_ - segment_first_;
        const int64_t due =
            segment_start_ns_ +
            static_cast<int64_t>(static_cast<double>(k) * 1e9 /
                                 static_cast<double>(job_->spec->rate_rps));
        WaitUntil(due);
        job_->source.gen_lag.Add(NowNs() - due);
        return Emit(due);
      }
      case State::kDone:
        if (!ctl.finish.load(std::memory_order_acquire)) return Heartbeat();
        state_ = State::kEnded;
        return df::SourcePoll::Wm(evo::kMaxWatermark);
      case State::kReplayGate:
        if (!ctl.released.load(std::memory_order_acquire)) return Heartbeat();
        state_ = State::kReplay;
        [[fallthrough]];
      case State::kReplay:
        if (next_ >= job_->replay_end) {
          state_ = State::kEnded;
          return df::SourcePoll::Wm(evo::kMaxWatermark);
        }
        return Emit(NowNs());
      case State::kEnded:
        return df::SourcePoll::End();
    }
    return df::SourcePoll::End();
  }

  Status SnapshotState(evo::BinaryWriter* w) override {
    // The emitted watermark, not a pending one: the restored job must not
    // see a watermark the snapshot's operators never saw.
    w->WriteU64(next_);
    w->WriteI64(max_et_);
    w->WriteI64(wm_);
    return Status::OK();
  }

  Status RestoreState(evo::BinaryReader* r) override {
    EVO_RETURN_IF_ERROR(r->ReadU64(&next_));
    EVO_RETURN_IF_ERROR(r->ReadI64(&max_et_));
    return r->ReadI64(&wm_);
  }

 private:
  enum class State { kWaitStart, kBurst, kDrain, kPhase2, kDone, kReplayGate, kReplay, kEnded };

  /// Keeps the task loop turning (so checkpoint requests are served) while
  /// the source has nothing to emit; a repeated watermark is a no-op.
  df::SourcePoll Heartbeat() {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    return df::SourcePoll::Wm(wm_);
  }

  /// Sleeps (never spins) until a record is due: the generator must not
  /// take a CPU from the job. Oversleeping shows as generator lag, and the
  /// records that fell due meanwhile go out back to back, stamped with
  /// their due times.
  static void WaitUntil(int64_t due_ns) {
    const int64_t now = NowNs();
    if (due_ns > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
    }
  }

  void BeginSegment(State state) {
    state_ = state;
    ++segment_;
    segment_first_ = next_;
    if (job_->tracing != nullptr) {
      // The pipeline is drained between segments, so no call straddles the
      // switch.
      job_->tracing->SetOn(
          state != State::kBurst ||
          BurstTraced(job_->first_burst + segment_ - kWarmupBursts));
    }
    segment_start_ns_ = NowNs();
    if (state == State::kBurst) {
      job_->source.burst_first_emit_ns.push_back(segment_start_ns_);
    }
    job_->ctl.segment_start_ns.store(segment_start_ns_, std::memory_order_relaxed);
    job_->ctl.segment.store(segment_, std::memory_order_release);
  }

  /// Closes a burst: a flush watermark past all of its windows, and a new
  /// event-time segment for what follows.
  df::SourcePoll EndBurst() {
    SourceControl& ctl = job_->ctl;
    job_->source.burst_records.push_back(next_ - segment_first_);
    const int64_t marker = FlushMarker(*job_->spec, clock_, next_);
    StartSegment(*job_->spec, &clock_, next_);
    ctl.marker.store(marker, std::memory_order_relaxed);
    ctl.bursts_ended.store(segment_ + 1, std::memory_order_release);
    state_ = State::kDrain;
    wm_ = marker;
    return df::SourcePoll::Wm(marker);
  }

  df::SourcePoll Emit(int64_t due_ns) {
    Record r = MakeRecord(*job_->spec, job_->zipf.get(), job_->seed, clock_,
                          next_, due_ns);
    ++next_;
    max_et_ = std::max(max_et_, r.event_time);
    if (next_ % kWatermarkEvery == 0) {
      const int64_t wm = max_et_ - job_->spec->disorder_ms - 1;
      if (wm > wm_) {
        pending_wm_ = true;
        pending_wm_value_ = wm;
      }
    }
    return df::SourcePoll::Of(std::move(r));
  }

  JobCtx* job_;
  EventClock clock_;
  State state_;
  uint64_t next_ = 0;
  int64_t max_et_ = evo::kMinWatermark;
  int64_t wm_ = evo::kMinWatermark;  ///< last emitted watermark
  bool pending_wm_ = false;
  int64_t pending_wm_value_ = evo::kMinWatermark;
  int segment_ = -1;
  uint64_t segment_first_ = 0;
  int64_t segment_start_ns_ = 0;
  uint64_t n_total_ = 0;
};

/// The sink: hands each result to the (decoratable) callback, detects each
/// burst's flush watermark, and checkpoints its result digest so a restored
/// job continues the digest exactly once.
class ResultSink final : public df::Operator {
 public:
  ResultSink(std::function<void(const Record&)> fn, JobCtx* job)
      : fn_(std::move(fn)), job_(job) {}

  Status ProcessRecord(Record& record, df::Collector*) override {
    fn_(record);
    return Status::OK();
  }
  Status OnWatermark(evo::TimeMs watermark, df::Collector*) override {
    SinkState& s = job_->sink;
    SourceControl& ctl = job_->ctl;
    if (s.drained < ctl.bursts_ended.load(std::memory_order_acquire) &&
        watermark >= ctl.marker.load(std::memory_order_relaxed)) {
      s.burst_last_result_ns.push_back(s.last_result_ns);
      ++s.drained;
      ctl.bursts_drained.store(s.drained, std::memory_order_release);
    }
    return Status::OK();
  }
  Status SnapshotState(evo::BinaryWriter* w) override {
    job_->sink.digest.EncodeTo(w);
    return Status::OK();
  }
  Status RestoreState(evo::BinaryReader* r) override {
    return job_->sink.digest.DecodeFrom(r);
  }

 private:
  std::function<void(const Record&)> fn_;
  JobCtx* job_;
};

void OnResult(JobCtx* job, const Record& result) {
  SinkState& s = job->sink;
  int64_t group = 0, due = 0;
  uint64_t hash = 0;
  DigestOfResult(*job->spec, result, &group, &hash, &due);
  if (++s.results == s.corrupt_at) hash ^= 1;
  s.digest.Add(group, hash);
  s.last_result_ns = NowNs();
  if (s.drained < s.bursts || s.latency.empty()) return;
  if (s.phase2_start_ns == 0) {
    s.phase2_start_ns = job->ctl.segment_start_ns.load(std::memory_order_acquire);
  }
  const int64_t since = std::max<int64_t>(due - s.phase2_start_ns, 0);
  const size_t slice = std::min<size_t>(static_cast<size_t>(since / s.slice_ns),
                                        s.latency.size() - 1);
  s.latency[slice].Add(s.last_result_ns - due);
}

df::Topology BuildTopology(JobCtx* job) {
  const WorkloadSpec& spec = *job->spec;
  df::Topology t;
  auto src = t.AddSource("source", [job]() -> std::unique_ptr<df::Source> {
    std::unique_ptr<df::Source> s = std::make_unique<BenchSource>(job);
    if (job->tracing != nullptr) {
      s = std::make_unique<TracedSource>(std::move(s), job->tracing, &InputIdOf);
    }
    return s;
  });
  auto op = t.AddOperator(
      spec.op_vertex,
      [job]() -> std::unique_ptr<df::Operator> {
        std::unique_ptr<df::Operator> o = MakeWorkOperator(*job->spec);
        if (job->tracing != nullptr) {
          o = std::make_unique<TracedOperator>(std::move(o), job->tracing,
                                               &InputIdOf);
        }
        return o;
      },
      2);
  EVO_CHECK_OK_TOPO(t.Connect(src, op, df::Partitioning::kHash));
  auto sink = t.AddOperator("sink", [job]() -> std::unique_ptr<df::Operator> {
    std::function<void(const Record&)> fn = [job](const Record& r) {
      OnResult(job, r);
    };
    if (job->tracing != nullptr) {
      fn = TraceSinkFn(std::move(fn), job->tracing, &ResultIdOf);
    }
    return std::make_unique<ResultSink>(std::move(fn), job);
  });
  EVO_CHECK_OK_TOPO(t.Connect(op, sink, df::Partitioning::kRebalance));
  return t;
}

/// Opens one LsmBackend per middle subtask (default LsmOptions in a per-run
/// temp dir) and, for a live job, preloads every key's initial profile.
Status OpenStateBackends(JobCtx* job, bool preload) {
  const uint32_t parallelism = 2;
  const uint32_t max_par = evo::KeyGroup::kDefaultMaxParallelism;
  job->backends.clear();
  job->backends.resize(parallelism);
  if (job->spec->kind != Kind::kLsm) return Status::OK();
  for (uint32_t s = 0; s < parallelism; ++s) {
    evo::state::LsmOptions options;
    options.dir = job->dir->path() + "/" + job->spec->op_vertex + "-" +
                  std::to_string(s);
    EVO_ASSIGN_OR_RETURN(auto backend,
                         evo::state::LsmBackend::Open(options, max_par));
    job->lsm.push_back(backend.get());
    job->backends[s] = std::move(backend);
  }
  if (!preload) return Status::OK();
  std::vector<Status> results(parallelism);
  std::vector<std::thread> loaders;
  for (uint32_t s = 0; s < parallelism; ++s) {
    loaders.emplace_back([job, s, max_par, parallelism, &results] {
      evo::state::KeyedStateBackend* b = job->backends[s].get();
      for (uint64_t k = 0; k < job->zipf->n(); ++k) {
        const uint64_t key = KeyHash(k);
        const uint32_t kg = evo::KeyGroup::OfHash(key, max_par);
        if (evo::KeyGroup::Owner(kg, max_par, parallelism) != s) continue;
        // Namespace 0 is the operator's first (only) registered state.
        Status st = b->Put(0, key, "",
                           evo::SerializeToString(EncodeProfile(InitialProfile(k))));
        if (!st.ok()) {
          results[s] = st;
          return;
        }
      }
    });
  }
  for (std::thread& t : loaders) t.join();
  for (const Status& st : results) EVO_RETURN_IF_ERROR(st);
  // Start every run from the same tree shape (all of it in the bottom
  // level), so no run inherits a half-built compaction from the preload.
  for (evo::state::LsmBackend* b : job->lsm) {
    EVO_RETURN_IF_ERROR(b->tree()->CompactAll());
  }
  return Status::OK();
}

Status StartJob(JobCtx* job, const df::JobSnapshot* restore) {
  df::JobConfig config;  // engine defaults, apart from the state backends
  config.backend_factory =
      [job](const std::string& vertex,
            uint32_t subtask) -> std::unique_ptr<evo::state::KeyedStateBackend> {
    if (vertex != job->spec->op_vertex) {
      return std::make_unique<evo::state::MemBackend>();
    }
    std::unique_ptr<evo::state::KeyedStateBackend> b;
    if (subtask < job->backends.size()) b = std::move(job->backends[subtask]);
    if (b == nullptr) b = std::make_unique<evo::state::MemBackend>();
    if (job->tracing != nullptr) {
      b = std::make_unique<TracedBackend>(std::move(b), job->tracing);
    }
    return b;
  };
  job->runner = std::make_unique<df::JobRunner>(BuildTopology(job), config);
  return job->runner->Start(restore);
}

std::unique_ptr<JobCtx> NewJob(const WorkloadSpec& spec,
                               const RunOptions& options,
                               std::shared_ptr<const Zipf> zipf,
                               Tracing* tracing) {
  auto job = std::make_unique<JobCtx>();
  job->spec = &spec;
  job->zipf = std::move(zipf);
  job->seed = options.seed;
  job->tracing = tracing;
  job->dir = std::make_unique<TempDir>(NewTempPath(options.work_dir));
  return job;
}

// ---------------------------------------------------------------------------
// Statistics helpers
// ---------------------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Splits a task snapshot into operator/source state, timers and backend.
Status SplitTaskSnapshot(std::string_view blob, std::string_view* custom,
                         std::string_view* backend) {
  evo::BinaryReader r(blob);
  std::string_view timers;
  EVO_RETURN_IF_ERROR(r.ReadBytes(custom));
  EVO_RETURN_IF_ERROR(r.ReadBytes(&timers));
  return r.ReadBytes(backend);
}

/// Keyed-state entries of `vertex` in a job snapshot (the backend sections
/// all start with their entry count).
uint64_t SnapshotEntries(const df::JobSnapshot& snap, const std::string& vertex) {
  uint64_t total = 0;
  for (const df::TaskSnapshot& t : snap.tasks) {
    if (t.vertex != vertex) continue;
    std::string_view custom, backend;
    if (!SplitTaskSnapshot(t.data, &custom, &backend).ok() || backend.empty()) {
      continue;
    }
    evo::BinaryReader r(backend);
    uint64_t n = 0;
    if (r.ReadU64(&n).ok()) total += n;
  }
  return total;
}

uint64_t SnapshotBytes(const df::JobSnapshot& snap) {
  uint64_t total = 0;
  for (const df::TaskSnapshot& t : snap.tasks) total += t.data.size();
  return total;
}

/// Source offset recorded in a job snapshot (0 if absent).
uint64_t SnapshotSourceOffset(const df::JobSnapshot& snap) {
  for (const df::TaskSnapshot& t : snap.tasks) {
    if (t.vertex != "source") continue;
    std::string_view custom, backend;
    if (!SplitTaskSnapshot(t.data, &custom, &backend).ok()) return 0;
    evo::BinaryReader r(custom);
    uint64_t offset = 0;
    if (r.ReadU64(&offset).ok()) return offset;
  }
  return 0;
}

/// Starts a new peak-memory interval: resets the process's resident-memory
/// high-water mark (VmHWM) to its current resident size. Without the reset
/// (an older kernel), PeakRssMb() is the peak since the process started.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Peak resident memory since the last ResetPeakRss(), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Returns the heap memory freed by a finished job to the system, so the
/// next job's peak is its own and not the allocator's leftovers from the
/// jobs before it (a process normally runs one job).
void ReleaseFreedMemory() { malloc_trim(0); }

// ---------------------------------------------------------------------------
// One pass: jobs running both phases, recovery, reference check
// ---------------------------------------------------------------------------

/// What one job of a pass leaves for the reference check.
struct JobOutput {
  EventClock clock;
  uint64_t n_total = 0;
  Digest digest;
};

/// Figures read from each job's runner and trees (traced pass).
struct RunnerFigures {
  double busy_max = 0;
  double blocked_ms = 0;
  std::vector<double> records_in;  ///< per middle subtask, over all jobs
  double align_p50_ms = 0;
  double task_snapshot_p50_ms = 0;
  evo::state::LsmStats lsm;
};

struct PassResult {
  std::vector<double> burst_rps;      ///< every burst of every job
  std::vector<double> burst_records;
  std::vector<bool> burst_traced;
  std::vector<double> latency_p50_us, latency_p99_us;  ///< per phase-2 slice
  uint64_t latency_samples = 0;
  NsHistogram gen_lag;
  std::vector<double> checkpoint_ms;
  std::vector<double> checkpoint_bytes;
  std::vector<double> recovery_ms;
  std::vector<double> setup_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t tasks = 0;
  uint64_t records = 0;       ///< input records over all jobs
  double ref_seconds = 0;
  std::vector<double> peak_rss_mb;    ///< per job
  uint64_t entries = 0;       ///< keyed-state entries of the last checkpoint
  RunnerFigures runner;
  std::vector<std::string> problems;
};

void Fail(PassResult* res, uint64_t n, std::string why) {
  res->failed += n;
  res->problems.push_back(std::move(why));
}

/// Adds the runner's view of a finished traced job.
void AddRunnerFigures(JobCtx* job, const std::map<std::string, double>& busy,
                      RunnerFigures* f) {
  const WorkloadSpec& spec = *job->spec;
  df::JobRunner& runner = *job->runner;
  for (const auto& [vertex, ratio] : busy) f->busy_max = std::max(f->busy_max, ratio);
  runner.PublishMetrics();
  runner.metrics()->ForEachGauge([&](const std::string& name, const evo::Gauge& g) {
    if (name.rfind("channel_blocked_ms", 0) == 0) f->blocked_ms += g.Value();
  });
  const std::vector<df::Task*> tasks = runner.TasksOf(spec.op_vertex);
  f->records_in.resize(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    f->records_in[i] += static_cast<double>(tasks[i]->RecordsIn());
  }
  // The registry's per-task histograms of the middle vertex.
  const std::string vertex_label = "vertex=\"" + spec.op_vertex + "\"";
  runner.metrics()->ForEachHistogram(
      [&](const std::string& name, const evo::Histogram& h) {
        if (name.find(vertex_label) == std::string::npos) return;
        if (name.rfind("checkpoint_alignment_ms", 0) == 0) {
          f->align_p50_ms = std::max(f->align_p50_ms, h.Quantile(0.5));
        } else if (name.rfind("task_snapshot_time_ms", 0) == 0) {
          f->task_snapshot_p50_ms = std::max(f->task_snapshot_p50_ms, h.Quantile(0.5));
        }
      });
  for (evo::state::LsmBackend* b : job->lsm) {
    const evo::state::LsmStats s = b->tree()->GetStats();
    f->lsm.sst_reads += s.sst_reads;
    f->lsm.bloom_skips += s.bloom_skips;
    f->lsm.flushes += s.flushes;
    f->lsm.compactions += s.compactions;
  }
}

/// Drives one started job through both phases, triggering checkpoints from
/// this thread, waits for it to end and adds its figures to `res`.
/// Checkpoints are due at (j + 1/2) intervals from the start of each
/// segment (burst or open-loop phase) and only inside it, so every run
/// checkpoints at the same points of the stream and none lands on a
/// segment boundary.
void RunPhases(JobCtx* job, int64_t interval_ns, int64_t phase2_ns,
               PassResult* res, std::optional<df::JobSnapshot>* last) {
  df::JobRunner& runner = *job->runner;
  const int bursts = job->bursts;
  const int64_t deadline =
      NowNs() + 4 * (bursts * job->burst_ns + phase2_ns) + 60'000'000'000;
  job->ctl.started.store(true, std::memory_order_release);
  int segment = -1;
  int64_t base = 0, end = 0, j = 0;
  while (!job->ctl.phase2_done.load(std::memory_order_acquire)) {
    if (runner.FirstError().has_value()) break;
    const int64_t now = NowNs();
    if (now > deadline) {
      Fail(res, 1, "phases did not finish in time");
      break;
    }
    const int current = job->ctl.segment.load(std::memory_order_acquire);
    if (current != segment) {
      segment = current;
      base = job->ctl.segment_start_ns.load(std::memory_order_relaxed);
      end = base + (segment < bursts ? job->burst_ns : phase2_ns);
      j = 0;
    }
    const int64_t due = base + j * interval_ns + interval_ns / 2;
    if (segment < kWarmupBursts || due >= end || now < due) {
      const int64_t wait = (segment >= 0 && due < end) ? due - now : 5'000'000;
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::clamp<int64_t>(wait, 50'000, 10'000'000)));
      continue;
    }
    ++j;
    ++res->attempted;
    const int64_t c0 = NowNs();
    auto snap = runner.TriggerCheckpoint(kCheckpointTimeoutMs);
    const int64_t c1 = NowNs();
    if (snap.ok()) {
      res->checkpoint_ms.push_back(static_cast<double>(c1 - c0) / 1e6);
      res->checkpoint_bytes.push_back(static_cast<double>(SnapshotBytes(*snap)));
      *last = std::move(snap).value();
    } else {
      Fail(res, 1, "checkpoint failed: " + snap.status().ToString());
    }
  }
  const std::map<std::string, double> busy = runner.BusyRatios();
  job->ctl.finish.store(true, std::memory_order_release);
  Status done = runner.AwaitCompletion(kAwaitTimeoutMs);
  ++res->attempted;
  if (!done.ok()) Fail(res, 1, "job did not complete: " + done.ToString());
  if (auto err = runner.FirstError()) Fail(res, 1, "task error: " + *err);
  if (job->tracing != nullptr) AddRunnerFigures(job, busy, &res->runner);

  const SinkState& sink = job->sink;
  const SourceLog& source = job->source;
  const size_t ended = std::min(source.burst_records.size(),
                                sink.burst_last_result_ns.size());
  for (size_t k = kWarmupBursts; k < ended; ++k) {
    const int64_t span = sink.burst_last_result_ns[k] - source.burst_first_emit_ns[k];
    if (span <= 0) continue;
    res->burst_records.push_back(static_cast<double>(source.burst_records[k]));
    res->burst_rps.push_back(static_cast<double>(source.burst_records[k]) * 1e9 /
                             static_cast<double>(span));
    res->burst_traced.push_back(
        BurstTraced(job->first_burst + static_cast<int>(k) - kWarmupBursts));
  }
  if (ended != static_cast<size_t>(bursts)) Fail(res, 1, "saturated bursts incomplete");
  // Latency percentiles per checkpoint-interval slice of phase 2 (each holds
  // one checkpoint); the run reports the median over slices, so one
  // disturbance outside the job moves one slice, not the run's figure.
  for (const NsHistogram& slice : sink.latency) {
    res->latency_samples += slice.count();
    if (slice.count() < 1000) continue;
    res->latency_p50_us.push_back(slice.QuantileUs(0.50));
    res->latency_p99_us.push_back(slice.QuantileUs(0.99));
  }
  res->gen_lag.Merge(source.gen_lag);
}

/// Restores `last` into fresh runners `spec.restores_per_job` times and
/// times each restore (Start() -> first checkpoint of the restored job).
/// With `replayed`, the last restore then replays the rest of the stream
/// and its result digest is stored there.
void RecoverJob(const WorkloadSpec& spec, const RunOptions& options,
                const std::shared_ptr<const Zipf>& zipf, Tracing* tracing,
                const std::optional<df::JobSnapshot>& last, uint64_t n1,
                const JobOutput& output, std::optional<Digest>* replayed,
                PassResult* res) {
  ++res->attempted;
  if (!last.has_value()) {
    Fail(res, 1, "no completed checkpoint to recover from");
    return;
  }
  if (SnapshotSourceOffset(*last) < n1) Fail(res, 1, "last checkpoint precedes phase 2");
  res->entries = SnapshotEntries(*last, spec.op_vertex);
  for (int rep = 0; rep < spec.restores_per_job; ++rep) {
    // Each restore starts from the memory the one before it freed.
    if (rep > 0) ReleaseFreedMemory();
    std::unique_ptr<JobCtx> rjob = NewJob(spec, options, zipf, tracing);
    rjob->replay = true;
    rjob->sink.bursts = INT_MAX;  // no phases: nothing is a latency sample
    rjob->clock = output.clock;
    rjob->replay_end = output.n_total;
    Status st = OpenStateBackends(rjob.get(), /*preload=*/false);
    ++res->attempted;
    const int64_t t0 = NowNs();
    if (st.ok()) st = StartJob(rjob.get(), &*last);
    evo::Result<df::JobSnapshot> first =
        st.ok() ? rjob->runner->TriggerCheckpoint(kCheckpointTimeoutMs)
                : evo::Result<df::JobSnapshot>(st);
    const int64_t t1 = NowNs();
    if (!first.ok()) {
      Fail(res, 1, "recovery checkpoint failed: " + first.status().ToString());
      continue;
    }
    res->recovery_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    const uint64_t restored = SnapshotEntries(*first, spec.op_vertex);
    if (restored != res->entries) {
      Fail(res, 1, "restored " + std::to_string(restored) + " entries, snapshot has " +
                       std::to_string(res->entries));
    }
    if (replayed == nullptr || rep + 1 < spec.restores_per_job) continue;
    // Exactly-once: the restored digest plus the replay must equal the
    // reference (checked by the caller).
    rjob->ctl.released.store(true, std::memory_order_release);
    Status done = rjob->runner->AwaitCompletion(kAwaitTimeoutMs);
    ++res->attempted;
    if (!done.ok()) Fail(res, 1, "replay did not complete: " + done.ToString());
    *replayed = rjob->sink.digest;
  }
}

PassResult RunPass(const WorkloadSpec& spec, const RunOptions& options,
                   Tracing* tracing, Tracing* restore_tracing) {
  PassResult res;
  // Each job gets an equal share of the run: a quarter of it saturated
  // bursts of about one checkpoint interval each, the rest open loop. The
  // open-loop phase holds two to three times as many checkpoints as the
  // saturated one, whose checkpoints wait behind full queues, so the median
  // checkpoint time falls inside the open-loop group.
  const int jobs = spec.jobs_per_run;
  const double job_s = options.seconds / jobs;
  const double phase1_s = 0.25 * job_s;
  const double phase2_s = job_s - phase1_s;
  const int64_t interval_ns = spec.checkpoint_interval_ms * 1'000'000;
  const double interval_s = static_cast<double>(interval_ns) / 1e9;
  // A traced pass splits each job's saturated phase into an untraced and a
  // traced burst, so the tracing overhead compares bursts of the same job.
  const int bursts =
      tracing != nullptr ? 2
                         : std::max(1, static_cast<int>(std::lround(phase1_s / interval_s)));
  const int64_t burst_ns = static_cast<int64_t>(phase1_s / bursts * 1e9);
  const size_t slices =
      static_cast<size_t>(std::max<int64_t>(1, std::llround(phase2_s / interval_s)));
  const int setups = tracing != nullptr ? 1 : spec.setups_per_job;

  std::vector<JobOutput> outputs;
  std::optional<Digest> replayed;
  std::shared_ptr<const Zipf> zipf;
  for (int j = 0; j < jobs; ++j) {
    // --- set-up, repeated; the last one is kept ------------------------------
    std::unique_ptr<JobCtx> job;
    ResetPeakRss();
    for (int rep = 0; rep < setups; ++rep) {
      job.reset();
      const int64_t t0 = NowNs();
      zipf = std::make_shared<const Zipf>(spec.keys, spec.theta);
      job = NewJob(spec, options, zipf, tracing);
      job->bursts = kWarmupBursts + bursts;
      job->first_burst = j * bursts;
      job->burst_ns = burst_ns;
      job->sink.bursts = job->bursts;
      job->phase2_records =
          static_cast<uint64_t>(phase2_s * static_cast<double>(spec.rate_rps));
      job->sink.corrupt_at = j == 0 ? options.corrupt_result : 0;
      job->sink.slice_ns = interval_ns;
      job->sink.latency.resize(slices);
      Status st = OpenStateBackends(job.get(), /*preload=*/true);
      if (st.ok()) st = StartJob(job.get(), nullptr);
      res.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      if (!st.ok()) {
        ++res.attempted;
        Fail(&res, 1, "set-up failed: " + st.ToString());
        return res;
      }
    }
    df::JobRunner& runner = *job->runner;
    res.tasks = runner.TasksOf("source").size() +
                runner.TasksOf(spec.op_vertex).size() + runner.TasksOf("sink").size();

    // --- phases 1 and 2 ---------------------------------------------------------
    std::optional<df::JobSnapshot> last;
    RunPhases(job.get(), interval_ns, static_cast<int64_t>(phase2_s * 1e9), &res, &last);
    outputs.push_back({job->source.clock, job->source.total_records, job->sink.digest});
    res.records += job->source.total_records;
    const uint64_t n1 = job->source.clock.segments.back().first;
    job.reset();  // frees the job's state before the restores
    ReleaseFreedMemory();

    // --- recovery from the job's last checkpoint --------------------------------
    // Every job is restored, so the restores sample the whole run rather
    // than one moment of it. The last job's last restore replays the rest
    // of its stream.
    const bool replay = j + 1 == jobs;
    RecoverJob(spec, options, zipf, restore_tracing, last, n1, outputs.back(),
               replay ? &replayed : nullptr, &res);
    // The job's peak: its set-ups, phases and restores. The reference runs
    // after the last job, so its memory is not counted.
    res.peak_rss_mb.push_back(PeakRssMb());
    last.reset();
    ReleaseFreedMemory();
  }

  // --- reference check ------------------------------------------------------------
  const int64_t r0 = NowNs();
  std::vector<Digest> expected;
  for (const JobOutput& out : outputs) {
    expected.push_back(Reference(spec, options.seed, out.clock, out.n_total, zipf.get()));
  }
  res.ref_seconds = static_cast<double>(NowNs() - r0) / 1e9;
  for (size_t j = 0; j < outputs.size(); ++j) {
    res.attempted += expected[j].Count();
    if (const uint64_t bad = CountMismatches(expected[j], outputs[j].digest)) {
      Fail(&res, bad, "job " + std::to_string(j) + ": " + std::to_string(bad) +
                          " wrong or missing results");
    }
  }
  if (replayed.has_value()) {
    res.attempted += expected.back().Count();
    if (const uint64_t bad = CountMismatches(expected.back(), *replayed)) {
      Fail(&res, bad, std::to_string(bad) + " wrong or missing results after recovery");
    }
  }
  return res;
}

/// The per-layer metrics of a traced pass, by name.
std::map<std::string, double> LayerMetrics(const Tracing& tracing,
                                           const Tracing& restore_tracing,
                                           const PassResult& res) {
  std::map<std::string, double> m;
  CallStats total;
  for (const auto& slot : tracing.slots()) {
    for (size_t k = 0; k < kNumSpanKinds; ++k) {
      total.calls[k] += slot->calls[k];
      total.timed[k] += slot->timed[k];
      total.nanos[k] += slot->nanos[k];
    }
    total.put_bytes += slot->put_bytes;
    total.timer_burst_max = std::max(total.timer_burst_max, slot->timer_burst_max);
    total.snapshot_ms.insert(total.snapshot_ms.end(), slot->snapshot_ms.begin(),
                             slot->snapshot_ms.end());
  }
  auto calls = [&](SpanKind k) {
    return static_cast<double>(total.calls[static_cast<size_t>(k)]);
  };
  auto mean_ns = [&](SpanKind k) {
    const size_t i = static_cast<size_t>(k);
    return total.timed[i] > 0 ? static_cast<double>(total.nanos[i]) /
                                    static_cast<double>(total.timed[i])
                              : 0;
  };
  const SpanSummary spans = Summarize(tracing);
  const RunnerFigures& r = res.runner;

  // dataflow
  m["source.records"] = calls(SpanKind::kSourceEmit);
  m["source.gen_lag_p99_us"] = res.gen_lag.QuantileUs(0.99);
  m["dataflow.queue_wait_p50_us"] = Quantile(spans.queue_wait_us, 0.50);
  m["dataflow.queue_wait_p99_us"] = Quantile(spans.queue_wait_us, 0.99);
  m["dataflow.busy_ratio_max"] = r.busy_max;
  m["dataflow.channel_blocked_ms"] = r.blocked_ms;
  double in_max = 0, in_sum = 0;
  for (double in : r.records_in) {
    in_max = std::max(in_max, in);
    in_sum += in;
  }
  m["dataflow.partition_skew"] =
      in_sum > 0 ? in_max / (in_sum / static_cast<double>(r.records_in.size())) : 0;

  // operators, time
  const double process_calls = calls(SpanKind::kProcess);
  m["operators.process_calls"] = process_calls;
  m["operators.process_self_ns_mean"] = spans.process_self_ns_mean;
  m["operators.timer_self_ns_mean"] = spans.timer_self_ns_mean;
  m["sink.results"] = calls(SpanKind::kSink);
  m["sink.fn_ns_mean"] = mean_ns(SpanKind::kSink);
  m["time.timers_fired"] = calls(SpanKind::kTimer);
  m["time.timer_burst_max"] = static_cast<double>(total.timer_burst_max);

  // state
  m["state.get_calls"] = calls(SpanKind::kStateGet);
  m["state.get_ns_mean"] = mean_ns(SpanKind::kStateGet);
  m["state.put_calls"] = calls(SpanKind::kStatePut);
  m["state.put_ns_mean"] = mean_ns(SpanKind::kStatePut);
  m["state.put_bytes_per_record"] =
      process_calls > 0 ? static_cast<double>(total.put_bytes) / process_calls : 0;
  m["state.entries"] = static_cast<double>(res.entries);
  m["state.lsm_sst_reads"] = static_cast<double>(r.lsm.sst_reads);
  m["state.lsm_bloom_skips"] = static_cast<double>(r.lsm.bloom_skips);
  const double probes = static_cast<double>(r.lsm.sst_reads + r.lsm.bloom_skips);
  m["state.lsm_bloom_useful_frac"] =
      probes > 0 ? static_cast<double>(r.lsm.bloom_skips) / probes : 0;
  m["state.lsm_flushes"] = static_cast<double>(r.lsm.flushes);
  m["state.lsm_compactions"] = static_cast<double>(r.lsm.compactions);

  // checkpoint
  m["state.snapshot_ms_p50"] = Quantile(total.snapshot_ms, 0.5);
  std::vector<double> restore_ms;
  for (const auto& slot : restore_tracing.slots()) {
    restore_ms.insert(restore_ms.end(), slot->restore_ms.begin(), slot->restore_ms.end());
  }
  m["state.restore_ms"] = Quantile(restore_ms, 0.5);
  m["checkpoint.count"] =
      static_cast<double>(res.checkpoint_ms.size() + res.recovery_ms.size());
  m["checkpoint.bytes_p50"] = Quantile(res.checkpoint_bytes, 0.5);
  m["checkpoint.align_p50_ms"] = r.align_p50_ms;
  m["checkpoint.task_snapshot_p50_ms"] = r.task_snapshot_p50_ms;

  // obs: tracing overhead from each job's untraced burst and the traced
  // burst right after it
  std::vector<double> ratios;
  for (size_t i = 0; i + 1 < res.burst_rps.size(); i += 2) {
    if (!res.burst_traced[i] && res.burst_traced[i + 1]) {
      ratios.push_back(res.burst_rps[i + 1] / res.burst_rps[i]);
    }
  }
  m["obs.trace_overhead_frac"] = ratios.empty() ? 0 : 1.0 - Quantile(ratios, 0.5);
  m["ref_1t_rps"] = res.ref_seconds > 0
                        ? static_cast<double>(res.records) / res.ref_seconds
                        : 0;
  return m;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JoinNumbers(const std::vector<double>& values) {
  std::string out;
  for (double v : values) out += (out.empty() ? "" : ", ") + JsonNumber(v);
  return out;
}

/// Per-layer metrics with their units, in print order. Every traced run
/// prints all of them; see README.md for the ones that read 0 on a workload
/// whose layers have no such object.
constexpr const char* kLayerUnits[][2] = {
    {"source.records", "count"},
    {"source.gen_lag_p99_us", "us"},
    {"dataflow.queue_wait_p50_us", "us"},
    {"dataflow.queue_wait_p99_us", "us"},
    {"dataflow.busy_ratio_max", "ratio"},
    {"dataflow.channel_blocked_ms", "ms"},
    {"dataflow.partition_skew", "ratio"},
    {"operators.process_calls", "count"},
    {"operators.process_self_ns_mean", "ns"},
    {"operators.timer_self_ns_mean", "ns"},
    {"sink.results", "count"},
    {"sink.fn_ns_mean", "ns"},
    {"time.timers_fired", "count"},
    {"time.timer_burst_max", "count"},
    {"state.get_calls", "count"},
    {"state.get_ns_mean", "ns"},
    {"state.put_calls", "count"},
    {"state.put_ns_mean", "ns"},
    {"state.put_bytes_per_record", "B"},
    {"state.entries", "count"},
    {"state.lsm_sst_reads", "count"},
    {"state.lsm_bloom_skips", "count"},
    {"state.lsm_bloom_useful_frac", "ratio"},
    {"state.lsm_flushes", "count"},
    {"state.lsm_compactions", "count"},
    {"state.snapshot_ms_p50", "ms"},
    {"state.restore_ms", "ms"},
    {"checkpoint.count", "count"},
    {"checkpoint.bytes_p50", "B"},
    {"checkpoint.align_p50_ms", "ms"},
    {"checkpoint.task_snapshot_p50_ms", "ms"},
    {"obs.trace_overhead_frac", "ratio"},
    {"ref_1t_rps", "1/s"},
};

}  // namespace

RunReport RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  RunReport report;
  std::unique_ptr<Tracing> tracing, restore_tracing;
  if (options.trace) {
    tracing = std::make_unique<Tracing>();
    restore_tracing = std::make_unique<Tracing>();
  }
  const PassResult res = RunPass(spec, options, tracing.get(), restore_tracing.get());
  report.attempted = res.attempted;
  report.failed = res.failed;
  report.problems = res.problems;
  if (!options.trace) {
    report.metrics = {
        {"throughput_rps", Quantile(res.burst_rps, 0.5), "1/s"},
        {"latency_p50_us", Quantile(res.latency_p50_us, 0.5), "us"},
        {"latency_p99_us", Quantile(res.latency_p99_us, 0.5), "us"},
        {"checkpoint_p50_ms", Quantile(res.checkpoint_ms, 0.5), "ms"},
        {"recovery_ms", Quantile(res.recovery_ms, 0.5), "ms"},
        {"setup_s", Quantile(res.setup_s, 0.5), "s"},
        {"peak_rss_mb", Quantile(res.peak_rss_mb, 0.5), "MB"},
    };
  } else {
    const std::map<std::string, double> layer =
        LayerMetrics(*tracing, *restore_tracing, res);
    for (const auto& [name, unit] : kLayerUnits) {
      report.metrics.push_back({name, layer.at(name), unit});
    }
    std::error_code ec;
    std::filesystem::create_directories(options.work_dir + "/spans", ec);
    const std::string path = options.work_dir + "/spans/" + spec.name + "-seed" +
                             std::to_string(options.seed) + ".tsv";
    if (!tracing->Dump(path)) {
      ++report.failed;
      report.problems.push_back("could not write " + path);
    }
  }
  report.correct = report.failed == 0 && report.attempted > 0;
  const double failed_frac =
      report.attempted > 0
          ? static_cast<double>(report.failed) / static_cast<double>(report.attempted)
          : 1.0;
  report.info_json =
      "{\"workload\": \"" + spec.name + "\", \"seed\": " + std::to_string(options.seed) +
      ", \"jobs\": " + std::to_string(spec.jobs_per_run) +
      ", \"tasks\": " + std::to_string(res.tasks) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"rate_rps\": " + std::to_string(spec.rate_rps) +
      ", \"records\": " + std::to_string(res.records) +
      ", \"latency_samples\": " + std::to_string(res.latency_samples) +
      ", \"burst_rps\": [" + JoinNumbers(res.burst_rps) + "]" +
      ", \"burst_records\": [" + JoinNumbers(res.burst_records) + "]" +
      ", \"checkpoint_ms\": [" + JoinNumbers(res.checkpoint_ms) + "]" +
      ", \"recovery_ms\": [" + JoinNumbers(res.recovery_ms) + "]" +
      ", \"peak_rss_mb\": [" + JoinNumbers(res.peak_rss_mb) + "]" +
      ", \"gen_lag_p99_us\": " + JsonNumber(res.gen_lag.QuantileUs(0.99)) +
      ", \"ref_1t_rps\": " +
      JsonNumber(res.ref_seconds > 0 ? static_cast<double>(res.records) / res.ref_seconds : 0) +
      ", \"failed_frac\": " + JsonNumber(failed_frac) + "}";
  return report;
}

}  // namespace evobench
