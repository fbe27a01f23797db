#pragma once

/// \file bench.h
/// \brief EvoBench: seeded end-to-end workloads driven through a real
/// JobRunner job, checked against a single-threaded reference.
///
/// One run of a workload is several jobs, one after the other, each on its
/// share of the run's time:
///   set-up      build the job (and preload LSM state); the median over all
///               set-ups is reported as setup_s
///   phase 1     saturated, in bursts: the source emits as fast as the job
///               accepts records; a flush watermark closes each burst and
///               the sink reports when it has seen it. Per burst,
///               throughput = records / (last result - first emit); the
///               median over the bursts of every job is reported
///   phase 2     open loop at the workload's fixed rate; every record is
///               stamped with its due time, latency = sink time - due time
///   recovery    fresh runners restore the job's last checkpoint;
///               recovery_ms = Start() -> first checkpoint of the restored
///               job (median over all restores); the last job's last
///               restore then replays to the end of its stream
/// and at the end of the run:
///   check       digests of every job's results, and of the replay, are
///               compared with the single-threaded reference
/// The main thread triggers aligned checkpoints at the workload's interval
/// through both phases.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/serde.h"
#include "common/status.h"
#include "dataflow/operator.h"
#include "dataflow/source.h"
#include "gen.h"

namespace evobench {

enum class Kind { kWindow, kLsm };

/// \brief A workload's frozen parameters (documented in BENCHMARK.json).
struct WorkloadSpec {
  Kind kind = Kind::kWindow;
  std::string name;
  std::string op_vertex;          ///< the middle (parallelism 2) vertex
  int64_t rate_rps = 0;           ///< open-loop phase rate
  uint64_t keys = 0;              ///< distinct keys
  double theta = 0;               ///< Zipf skew of keyed accesses
  int64_t checkpoint_interval_ms = 1000;
  int64_t disorder_ms = 0;        ///< watermark bound = max displacement
  double displaced_frac = 0;
  int64_t window_size_ms = 0;     ///< sliding window size (0: no window)
  int64_t window_slide_ms = 0;
  int jobs_per_run = 3;           ///< jobs run one after the other
  int setups_per_job = 1;         ///< set-ups per job (median -> setup_s)
  int restores_per_job = 1;       ///< timed restores (median -> recovery_ms)
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// \brief Order-independent result digest: per group, the result count and
/// the sum of result hashes. Groups are window starts (window_agg) or
/// record-id blocks (stateful_lsm).
struct Digest {
  std::map<int64_t, std::pair<uint64_t, uint64_t>> groups;

  void Add(int64_t group, uint64_t hash) {
    auto& g = groups[group];
    ++g.first;
    g.second += hash;
  }
  uint64_t Count() const;
  void EncodeTo(evo::BinaryWriter* w) const;
  evo::Status DecodeFrom(evo::BinaryReader* r);
};

/// Wrong or missing results of `got` against `expected`: per mismatching
/// group, max(|count difference|, 1).
uint64_t CountMismatches(const Digest& expected, const Digest& got);

/// \brief Event-time parameters of a workload (one segment so far).
EventClock MakeEventClock(const WorkloadSpec& spec);
/// Flush watermark closing the segment that ends before record `end`
/// (covers every window of that segment).
int64_t FlushMarker(const WorkloadSpec& spec, const EventClock& clock,
                    uint64_t end);
/// Base event time of the next segment: past the marker, the bound and a
/// window.
int64_t NextSegmentBase(const WorkloadSpec& spec, int64_t marker);
/// Ends the last segment before record `end` and starts a new one there.
void StartSegment(const WorkloadSpec& spec, EventClock* clock, uint64_t end);

/// \brief The source record with index i (payload field 0 is always i).
evo::Record MakeRecord(const WorkloadSpec& spec, const Zipf* zipf,
                       uint64_t seed, const EventClock& clock, uint64_t i,
                       int64_t due_ns);

/// \brief The middle operator of a workload (the sliding window, or the
/// profile read-modify-write).
std::unique_ptr<evo::dataflow::Operator> MakeWorkOperator(
    const WorkloadSpec& spec);

/// \brief Digest group and hash of one sink result, and the due time of the
/// (latest) input it answers.
void DigestOfResult(const WorkloadSpec& spec, const evo::Record& result,
                    int64_t* group, uint64_t* hash, int64_t* due_ns);

/// Record id carried by a source payload / by a sink result.
uint64_t InputIdOf(const evo::Value& payload);
uint64_t ResultIdOf(const evo::Value& payload);

/// \brief Single-threaded reference: regenerates records [0, n_total) from
/// the seed and computes the digest the job must produce.
Digest Reference(const WorkloadSpec& spec, uint64_t seed,
                 const EventClock& clock, uint64_t n_total, const Zipf* zipf);

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";     ///< temp dirs and the span dump go here
  /// Test hook: perturb the Nth sink result (0 = off) so the check fails.
  uint64_t corrupt_result = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string info_json;  ///< run facts: tasks, samples, failed_frac, ...
  std::vector<std::string> problems;  ///< human-readable failure reasons
};

/// Runs `spec` (one of Workloads(); tests pass a copy with fewer keys).
RunReport RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace evobench
