#pragma once

/// \file chaos_runner.h
/// \brief EvoChaos drivers: randomized crash-recovery harnesses built on the
/// FaultInjector, one per protocol under test.
///
/// This is a *test utility* header (it reaches up into dataflow/checkpoint/
/// state/txn and is included only from tests), not part of the evo_testing
/// library proper — the library stays at the bottom of the layering so
/// production code can declare fault points.
///
/// Four drivers, each consuming one seed and returning a ChaosReport:
///
///  - ChaosRunner::Run(): a stateful exactly-once pipeline
///    (replayable source -> keyed running count -> two-phase-commit sink)
///    in a restartable JobRunner loop. The seeded schedule kills tasks at
///    barrier alignment, drops snapshot acks, duplicates/drops barriers on
///    the wire, crashes the sink between prepare and commit, and fails
///    snapshot-store saves. After every crash the job restarts from the
///    latest *completed* checkpoint. With `parked_kills` the schedule is
///    instead a seeded series of kills of operator tasks parked on their
///    wakeup word: each kill must end the park at once and surface as the
///    job's first error. With `lsm_state` the counts live on LsmBackend,
///    whose snapshots stay pending for a few steps after the barrier, and
///    the schedule also kills tasks inside such a step. Invariants:
///    committed output is always
///    a sub-multiset of the fault-free output (no uncommitted epoch becomes
///    visible, no duplicates), and the run ends with the two equal — exactly
///    once despite every fault.
///  - RunLsmChaos(): differential test of the WAL/LSM stack (puts, deletes,
///    flushes, compactions and SST ingests) under injected short writes,
///    fsync errors, crash-before/after-fsync and faults between an ingest's
///    SST write and its install. Invariant: with sync_wal, every
///    acknowledged write or ingest survives crash+reopen (the LSM recovers
///    to the last durable sequence); injected silent SSTable corruption must
///    surface as an error (DataLoss), never as a wrong value.
///  - RunTpcProtocolChaos(): the TwoPhaseCommitSink epoch protocol driven
///    directly (no threads), crashing between prepare and commit and during
///    recovery re-commit. Invariant: the target never sees part of an epoch,
///    and every record commits exactly once.
///  - RunSagaChaos(): saga execution with failing forward steps and injected
///    compensation-path failures. Invariant: completed steps are either
///    compensated or reported as failed compensations (never silently
///    dropped), in reverse order; steps past the failure never execute.
///
/// Determinism: the injector's per-point decision streams depend only on
/// (seed, point, hit ordinal) — see fault_injector.h — so the *fault
/// schedule* replays exactly from a seed. Driver-level choices (which rules
/// to install, scheduled task kills) come from the same seed. Thread timing
/// can still shift where a schedule lands relative to the record stream; the
/// invariants hold for every interleaving, and a failure message carries the
/// seed plus the fired schedule for replay.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checkpoint/snapshot_store.h"
#include "checkpoint/two_phase_commit.h"
#include "common/rng.h"
#include "common/status.h"
#include "dataflow/job.h"
#include "dataflow/source.h"
#include "dataflow/topology.h"
#include "state/env.h"
#include "state/lsm_backend.h"
#include "state/lsm_tree.h"
#include "state/mem_backend.h"
#include "state/state_api.h"
#include "testing/fault_injector.h"
#include "txn/saga.h"

namespace evo::testing {

/// \brief Outcome of one seeded chaos run.
struct ChaosReport {
  bool ok = true;
  /// First invariant violation, with seed and fired fault schedule.
  std::string error;
  int restarts = 0;
  uint64_t faults_fired = 0;
  /// The fired fault schedule (captured before disarm) — two runs with the
  /// same seed must produce the same schedule.
  std::string schedule;
  /// LSM only: the run ended early because injected corruption was
  /// *detected* (DataLoss surfaced to the caller) — a pass, not a failure.
  bool detected_corruption = false;

  void Fail(uint64_t seed, const std::string& what) {
    if (!ok) return;  // keep the first violation
    ok = false;
    error = what + "\n" + "reproduce with --seed=" + std::to_string(seed) +
            "\n" + FaultInjector::Instance().ScheduleToString();
  }
};

// ---------------------------------------------------------------------------
// Exactly-once pipeline chaos
// ---------------------------------------------------------------------------

/// \brief Crash-recovery harness for the full exactly-once pipeline.
class ChaosRunner {
 public:
  struct Options {
    uint64_t seed = 1;
    size_t num_records = 2000;
    int num_keys = 13;
    int max_restarts = 30;
    /// Hard wall-clock bound for one seed; exceeding it fails the run.
    int64_t wall_budget_ms = 60000;
    /// Per-attempt checkpoint wait (short: failed checkpoints are expected).
    int64_t checkpoint_timeout_ms = 1500;
    /// When false, arm the injector but install no rules: the fault-free
    /// baseline the chaotic runs are compared against.
    bool install_rules = true;
    /// Kill 1-3 operator tasks, each once it is parked (idle) and after a
    /// seeded number of completed checkpoints in its incarnation.
    bool parked_kills = false;
    /// Keep the keyed counts on LsmBackend (one MemEnv per incarnation),
    /// whose snapshots the tasks serialize in steps after the barrier; the
    /// schedule then also kills tasks in a step of a pending snapshot.
    bool lsm_state = false;
  };

  explicit ChaosRunner(Options options) : options_(options) {}

  ChaosReport Run() {
    ChaosReport report;
    ScopedFaultInjection arm(options_.seed);
    Rng driver_rng(options_.seed ^ 0x9e3779b97f4a7c15ull);
    if (options_.install_rules) {
      InstallRules(&driver_rng);
      kills_left_ = driver_rng.NextBounded(3);
    }
    if (options_.parked_kills) kills_left_ = 1 + driver_rng.NextBounded(3);

    dataflow::ReplayableLog log;
    for (size_t i = 0; i < options_.num_records; ++i) {
      log.Append(static_cast<TimeMs>(i),
                 Value::Tuple(KeyOf(i), static_cast<int64_t>(i)));
    }
    const auto expected = ExpectedOutput();

    // The snapshot store runs on its own MemEnv so snapshot_store/env fault
    // points get exercised by real durable-save traffic.
    state::MemEnv store_env;
    checkpoint::SnapshotStore store(&store_env, "/chaos-ckpts");
    (void)store.Init();

    checkpoint::CommitTarget target;
    std::optional<dataflow::JobSnapshot> latest;
    Stopwatch budget;

    while (true) {
      if (budget.ElapsedMillis() > options_.wall_budget_ms) {
        report.Fail(options_.seed, "wall-time budget exceeded with committed=" +
                                       std::to_string(target.CommittedCount()) +
                                       "/" +
                                       std::to_string(options_.num_records));
        break;
      }
      const Outcome outcome = RunOneIncarnation(
          &log, &target, &store, &latest, expected, &driver_rng, &report,
          &budget);
      if (outcome == Outcome::kViolation || outcome == Outcome::kCompleted) {
        break;
      }
      if (++report.restarts > options_.max_restarts) {
        report.Fail(options_.seed, "too many restarts");
        break;
      }
    }

    if (report.ok) {
      // Exactly once: the committed multiset equals the fault-free output.
      std::string diff = DiffAgainstExpected(target, expected, true);
      if (!diff.empty()) report.Fail(options_.seed, diff);
    }
    report.faults_fired = FaultInjector::Instance().TotalFires();
    report.schedule = FaultInjector::Instance().ScheduleToString();
    return report;
  }

 private:
  enum class Outcome { kCompleted, kCrashed, kViolation };

  std::string KeyOf(size_t i) const {
    return "k" + std::to_string(i % static_cast<size_t>(options_.num_keys));
  }

  /// The fault-free output: for each key, running counts 1..n_k.
  std::map<std::pair<std::string, int64_t>, int> ExpectedOutput() const {
    std::map<std::pair<std::string, int64_t>, int> expected;
    std::map<std::string, int64_t> per_key;
    for (size_t i = 0; i < options_.num_records; ++i) {
      expected[{KeyOf(i), ++per_key[KeyOf(i)]}] = 1;
    }
    return expected;
  }

  void InstallRules(Rng* rng) {
    auto& inj = FaultInjector::Instance();
    int installed = 0;
    if (rng->NextBool(0.6)) {
      FaultRule rule;
      rule.action = FaultAction::kCrash;
      rule.after_n_hits = rng->NextBounded(8);
      rule.message = "task killed at barrier alignment";
      inj.SetRule("task.barrier.align", rule);
      ++installed;
    }
    if (rng->NextBool(0.5)) {
      FaultRule rule;
      rule.action = FaultAction::kDrop;
      rule.probability = 0.7;
      rule.after_n_hits = rng->NextBounded(3);
      rule.max_fires = 1 + rng->NextBounded(2);
      inj.SetRule("task.snapshot.ack", rule);
      ++installed;
    }
    if (rng->NextBool(0.5)) {
      FaultRule rule;
      static constexpr FaultAction kWire[] = {
          FaultAction::kDuplicate, FaultAction::kDrop, FaultAction::kDelay};
      rule.action = kWire[rng->NextBounded(3)];
      rule.probability = 0.5;
      rule.max_fires = 2;
      rule.delay_ms = 2;
      inj.SetRule("channel.barrier.push", rule);
      ++installed;
    }
    if (rng->NextBool(0.5)) {
      FaultRule rule;
      rule.action = FaultAction::kCrash;
      rule.after_n_hits = rng->NextBounded(3);
      rule.message = "sink crash before phase-2 commit";
      inj.SetRule("2pc.commit.pre", rule);
      ++installed;
    }
    if (rng->NextBool(0.5)) {
      FaultRule rule;
      rule.action = FaultAction::kCrash;
      rule.after_n_hits = rng->NextBounded(4);
      rule.message = "sink crash mid epoch-commit sequence";
      inj.SetRule("2pc.commit.mid", rule);
      ++installed;
    }
    if (rng->NextBool(0.4)) {
      FaultRule rule;
      rule.action = FaultAction::kError;
      rule.probability = 0.6;
      rule.max_fires = 2;
      rule.message = "durable snapshot store outage";
      inj.SetRule("snapshot_store.save.pre", rule);
      ++installed;
    }
    if (options_.lsm_state && rng->NextBool(0.8)) {
      FaultRule rule;
      rule.action = FaultAction::kCrash;
      rule.after_n_hits = rng->NextBounded(12);
      rule.max_fires = 1 + rng->NextBounded(2);
      rule.message = "task killed in a pending snapshot's step";
      inj.SetRule("task.snapshot.step", rule);
      ++installed;
    }
    if (installed == 0) {
      // Never run a completely fault-free "chaos" seed.
      FaultRule rule;
      rule.action = FaultAction::kCrash;
      rule.after_n_hits = 2;
      inj.SetRule("task.barrier.align", rule);
    }
  }

  dataflow::Topology BuildTopology(const dataflow::ReplayableLog* log,
                                   checkpoint::CommitTarget* target) const {
    dataflow::Topology topo;
    auto src = topo.AddSource("src", [log] {
      dataflow::LogSourceOptions options;
      options.end_at_eof = false;  // unbounded: commits stay checkpoint-
                                   // anchored, the stop-with-savepoint model
      options.watermark_every = 50;
      return std::make_unique<dataflow::LogSource>(log, options);
    });
    auto keyed = topo.KeyBy(
        src, "key", [](const Value& v) { return v.AsList()[0]; });
    auto count = topo.AddOperator(
        "count",
        [] {
          dataflow::ProcessOperator::Hooks hooks;
          hooks.on_record = [](dataflow::OperatorContext* ctx, Record& r,
                               dataflow::Collector* out) {
            state::ValueState<int64_t> c(ctx->state(), "c");
            int64_t n = c.GetOr(0).ValueOr(0) + 1;
            EVO_RETURN_IF_ERROR(c.Put(n));
            out->Emit(Record(r.event_time, r.key,
                             Value::Tuple(r.payload.AsList()[0].AsString(), n)));
            return Status::OK();
          };
          return std::make_unique<dataflow::ProcessOperator>(hooks);
        },
        2);
    EVO_CHECK_OK(topo.Connect(keyed, count, dataflow::Partitioning::kHash));
    auto sink = topo.AddOperator("tpc-sink", [target] {
      return std::make_unique<checkpoint::TwoPhaseCommitSink>(target);
    });
    EVO_CHECK_OK(topo.Connect(count, sink, dataflow::Partitioning::kRebalance));
    return topo;
  }

  /// Empty string when `target` is consistent; otherwise a description.
  /// With `exact` the committed multiset must equal `expected`; otherwise it
  /// must be a sub-multiset (nothing uncommitted visible, no duplicates).
  std::string DiffAgainstExpected(
      const checkpoint::CommitTarget& target,
      const std::map<std::pair<std::string, int64_t>, int>& expected,
      bool exact) const {
    std::map<std::pair<std::string, int64_t>, int> seen;
    for (const Record& r : target.Committed()) {
      const auto& tuple = r.payload.AsList();
      ++seen[{tuple[0].AsString(), tuple[1].AsInt()}];
    }
    for (const auto& [pair, n] : seen) {
      auto it = expected.find(pair);
      if (it == expected.end()) {
        return "committed record (" + pair.first + "," +
               std::to_string(pair.second) + ") not in fault-free output";
      }
      if (n > it->second) {
        return "duplicate committed record (" + pair.first + "," +
               std::to_string(pair.second) + ") x" + std::to_string(n);
      }
    }
    if (exact && seen != expected) {
      return "committed output incomplete: " + std::to_string(seen.size()) +
             "/" + std::to_string(expected.size()) + " distinct records";
    }
    return "";
  }

  Outcome RunOneIncarnation(
      const dataflow::ReplayableLog* log, checkpoint::CommitTarget* target,
      checkpoint::SnapshotStore* store,
      std::optional<dataflow::JobSnapshot>* latest,
      const std::map<std::pair<std::string, int64_t>, int>& expected,
      Rng* driver_rng, ChaosReport* report, const Stopwatch* budget) {
    auto& inj = FaultInjector::Instance();
    dataflow::JobConfig config;
    config.channel_capacity = 128;
    state::MemEnv lsm_env;  // outlives the runner's backends
    if (options_.lsm_state) {
      config.backend_factory = [&lsm_env](const std::string& vertex,
                                          uint32_t subtask)
          -> std::unique_ptr<state::KeyedStateBackend> {
        if (vertex != "count") return std::make_unique<state::MemBackend>();
        state::LsmOptions lsm;
        lsm.env = &lsm_env;
        lsm.dir = "/count-" + std::to_string(subtask);
        lsm.memtable_bytes = 4096;  // flushes and compactions mid-snapshot
        auto backend = state::LsmBackend::Open(lsm);
        EVO_CHECK_OK(backend.status());
        return std::move(*backend);
      };
    }
    dataflow::JobRunner runner(BuildTopology(log, target), config);
    inj.AttachJournal(runner.journal());

    Outcome outcome = Outcome::kCrashed;
    Status started = runner.Start(latest->has_value() ? &**latest : nullptr);
    if (started.ok()) {
      int stalled_checkpoints = 0;
      int checkpoints_done = 0;
      const int checkpoints_before_kill =
          static_cast<int>(driver_rng->NextBounded(3));
      while (true) {
        if (inj.TakeCrashRequest() || runner.FirstError().has_value()) break;
        if (budget->ElapsedMillis() > options_.wall_budget_ms) break;
        std::string diff = DiffAgainstExpected(*target, expected, false);
        if (!diff.empty()) {
          report->Fail(options_.seed, diff);
          outcome = Outcome::kViolation;
          break;
        }
        if (target->CommittedCount() >= options_.num_records) {
          outcome = Outcome::kCompleted;
          break;
        }
        if (options_.parked_kills && kills_left_ > 0 &&
            checkpoints_done >= checkpoints_before_kill) {
          --kills_left_;
          if (!KillParkedTask(&runner, driver_rng, report)) {
            outcome = Outcome::kViolation;
          }
          break;  // crashed: restart from the latest completed checkpoint
        }
        // Driver-scheduled process kill, on top of the injector's own.
        if (!options_.parked_kills && kills_left_ > 0 &&
            driver_rng->NextBool(0.15)) {
          --kills_left_;
          static constexpr const char* kVictims[] = {"src", "count", "count",
                                                     "tpc-sink"};
          (void)runner.InjectFailure(kVictims[driver_rng->NextBounded(4)],
                                     driver_rng->NextBounded(2));
          break;  // treat as a crash: stop and restart from the checkpoint
        }
        if (runner.TriggerCheckpoint(options_.checkpoint_timeout_ms).ok()) {
          stalled_checkpoints = 0;
          ++checkpoints_done;
        } else if (++stalled_checkpoints >= 2) {
          // A dropped barrier wedges alignment for good (blocked inputs wait
          // for a barrier that never arrives). A real coordinator aborts the
          // stalled attempt and fails the job over, so do the same: restart
          // from the latest completed checkpoint.
          break;
        }
      }
    }
    runner.Stop();
    // Restart from the *latest completed* checkpoint (read after Stop so no
    // completion is in flight). Restoring anything older would re-seal
    // already-committed epoch ids with different content.
    if (auto snap = runner.LastCompletedCheckpoint()) {
      *latest = std::move(snap);
      // The HA-metadata stand-in: persist through the (fault-injected)
      // durable store; a failed save only costs retries, never consistency.
      for (int attempt = 0; attempt < 4; ++attempt) {
        if (store->Save(**latest).ok()) break;
      }
    }
    inj.AttachJournal(nullptr);
    return outcome;
  }

  /// Picks a seeded operator task, waits until it is parked on its wakeup
  /// word and kills it. The kill must end the park and fail the job at
  /// once; false (with `report` failed) when it does not.
  bool KillParkedTask(dataflow::JobRunner* runner, Rng* driver_rng,
                      ChaosReport* report) {
    static constexpr std::pair<const char*, uint32_t> kVictims[] = {
        {"count", 0}, {"count", 1}, {"tpc-sink", 0}};
    const auto& [vertex, subtask] = kVictims[driver_rng->NextBounded(3)];
    dataflow::Task* victim = runner->FindTask(vertex, subtask);
    Stopwatch waited;
    while (!victim->parked()) {
      if (waited.ElapsedMillis() > 5000) {
        report->Fail(options_.seed,
                     std::string(vertex) + " never parked while idle");
        return false;
      }
      std::this_thread::yield();
    }
    (void)runner->InjectFailure(vertex, subtask);
    Status st = runner->AwaitCompletion(/*timeout_ms=*/5000);
    if (st.code() != StatusCode::kAborted ||
        st.ToString().find("injected failure") == std::string::npos) {
      report->Fail(options_.seed, "killing parked " + std::string(vertex) +
                                      " did not fail the job: " +
                                      st.ToString());
      return false;
    }
    return true;
  }

  Options options_;
  uint64_t kills_left_ = 0;
};

// ---------------------------------------------------------------------------
// WAL / LSM differential chaos
// ---------------------------------------------------------------------------

/// \brief One seeded LSM crash-recovery run with a differential model.
inline ChaosReport RunLsmChaos(uint64_t seed) {
  ChaosReport report;
  ScopedFaultInjection arm(seed);
  auto& inj = FaultInjector::Instance();
  Rng rng(seed ^ 0x51edb3a5u);

  // Storage-fault schedule. Every rule is bounded (max_fires) so retries
  // eventually run fault-free and the run always terminates.
  if (rng.NextBool(0.6)) {
    FaultRule rule;
    rule.action = rng.NextBool(0.5) ? FaultAction::kShortWrite
                                    : FaultAction::kError;
    rule.probability = 0.5;
    rule.after_n_hits = rng.NextBounded(40);
    rule.max_fires = rule.action == FaultAction::kShortWrite ? 1 : 2;
    inj.SetRule("wal.append.pre_fsync", rule);
  }
  if (rng.NextBool(0.3)) {
    FaultRule rule;
    rule.action = FaultAction::kError;
    rule.after_n_hits = rng.NextBounded(30);
    inj.SetRule("wal.sync", rule);
  }
  if (rng.NextBool(0.4)) {
    FaultRule rule;
    rule.action = FaultAction::kCrash;  // power loss before fsync
    rule.after_n_hits = rng.NextBounded(60);
    inj.SetRule("env.file.sync.pre", rule);
  }
  if (rng.NextBool(0.3)) {
    FaultRule rule;
    rule.action = FaultAction::kError;  // fsync done, ack lost
    rule.after_n_hits = rng.NextBounded(60);
    inj.SetRule("env.file.sync.post", rule);
  }
  if (rng.NextBool(0.4)) {
    FaultRule rule;
    rule.action = FaultAction::kError;
    rule.probability = 0.05;
    rule.max_fires = 2;
    inj.SetRule("env.file.append", rule);
  }
  if (rng.NextBool(0.3)) {
    FaultRule rule;
    rule.action = FaultAction::kError;
    rule.after_n_hits = rng.NextBounded(6);
    inj.SetRule("env.rename", rule);
  }
  if (rng.NextBool(0.25)) {
    FaultRule rule;
    rule.action = FaultAction::kShortWrite;  // silent data-block corruption
    rule.after_n_hits = rng.NextBounded(3);
    inj.SetRule("sstable.finish", rule);
  }
  if (rng.NextBool(0.3)) {
    FaultRule rule;
    rule.action = rng.NextBool(0.5) ? FaultAction::kCrash : FaultAction::kError;
    rule.after_n_hits = rng.NextBounded(3);
    rule.max_fires = 1;
    inj.SetRule("lsm.ingest.install", rule);  // SST written, not yet listed
  }

  state::MemEnv env;
  auto lsm_options = [&env] {
    state::LsmOptions options;
    options.env = &env;
    options.dir = "/chaosdb";
    options.memtable_bytes = 2048;
    options.l0_compaction_trigger = 3;
    options.sync_wal = true;  // acked => durable is the invariant under test
    return options;
  };

  std::map<std::string, std::string> model;  // acked (certain) state
  std::set<std::string> uncertain;           // failed ops: old or new value
  std::unique_ptr<state::LsmTree> tree;

  // Opens (with retries around injected faults) and re-verifies the model.
  // Returns false when the run must end; report.ok says whether that end is
  // a detected-corruption pass or a violation.
  auto crash_reopen = [&](const char* where) {
    env.SimulateCrash();
    tree.reset();
    Status last;
    for (int attempt = 0; attempt < 10 && tree == nullptr; ++attempt) {
      auto reopened = state::LsmTree::Open(lsm_options());
      if (reopened.ok()) {
        tree = std::move(*reopened);
        break;
      }
      last = reopened.status();
      if (inj.TakeCrashRequest()) env.SimulateCrash();
    }
    if (tree == nullptr) {
      if (inj.Fires("sstable.finish") > 0) {
        report.detected_corruption = true;  // corruption detected at open
      } else {
        report.Fail(seed, std::string("LSM failed to recover (") + where +
                              "): " + last.ToString());
      }
      return false;
    }
    // Differential check: every acked key must be present and exact. A read
    // error is acceptable only as *detected* injected corruption.
    for (const auto& [key, value] : model) {
      if (uncertain.count(key) != 0) continue;
      auto got = tree->Get(key);
      if (!got.ok()) {
        if (inj.Fires("sstable.finish") > 0) {
          report.detected_corruption = true;
          return false;
        }
        report.Fail(seed, "Get(" + key + ") failed after recovery: " +
                              got.status().ToString());
        return false;
      }
      if (!got->has_value()) {
        report.Fail(seed, "acked write lost after crash: " + key);
        return false;
      }
      if (**got != value) {
        report.Fail(seed, "silent wrong value for " + key + ": got " + **got +
                              " want " + value);
        return false;
      }
    }
    // Uncertain keys: the store may legitimately hold the old value, the
    // attempted one, or none. Adopt whatever is durable and re-certify.
    for (const std::string& key : uncertain) {
      auto got = tree->Get(key);
      if (!got.ok()) {
        if (inj.Fires("sstable.finish") > 0) {
          report.detected_corruption = true;
          return false;
        }
        report.Fail(seed, "Get(" + key + ") failed after recovery: " +
                              got.status().ToString());
        return false;
      }
      if (got->has_value()) {
        model[key] = **got;
      } else {
        model.erase(key);
      }
    }
    uncertain.clear();
    return true;
  };

  {
    auto opened = state::LsmTree::Open(lsm_options());
    if (!opened.ok()) {
      // Injected faults can hit even the first open; go through the retry
      // path with an empty model.
      if (!crash_reopen("initial open")) {
        report.faults_fired = inj.TotalFires();
        report.schedule = inj.ScheduleToString();
        return report;
      }
    } else {
      tree = std::move(*opened);
    }
  }

  bool ended = false;
  for (int round = 0; round < 6 && !ended; ++round) {
    for (int i = 0; i < 250 && !ended; ++i) {
      std::string key = "k" + std::to_string(rng.NextBounded(60));
      if (rng.NextBool(0.75)) {
        std::string value =
            "v" + std::to_string(round) + "-" + std::to_string(i);
        Status st = tree->Put(key, value);
        if (st.ok()) {
          model[key] = value;
          uncertain.erase(key);
        } else {
          uncertain.insert(key);
        }
      } else {
        Status st = tree->Delete(key);
        if (st.ok()) {
          model.erase(key);
          uncertain.erase(key);
        } else {
          uncertain.insert(key);
        }
      }
      // A crash-type fault fired inside this op: the "process" dies here.
      if (inj.CrashRequested()) {
        inj.TakeCrashRequest();
        ended = !crash_reopen("mid-round crash");
      }
    }
    if (ended) break;
    if (rng.NextBool(0.4)) {
      // Bulk-load a sorted batch as one SST. Acked, it is in the manifest and
      // must survive a crash exactly; failed, each key may hold either value.
      std::map<std::string, std::string> batch;
      for (uint64_t n = 1 + rng.NextBounded(20); n > 0; --n) {
        batch["k" + std::to_string(rng.NextBounded(60))] =
            "i" + std::to_string(round) + "-" + std::to_string(n);
      }
      Status st = tree->Ingest(batch.size(), [&](const auto& put) {
        for (const auto& [key, value] : batch) {
          EVO_RETURN_IF_ERROR(put(key, value));
        }
        return Status::OK();
      });
      for (const auto& [key, value] : batch) {
        if (st.ok()) {
          model[key] = value;
          uncertain.erase(key);
        } else {
          uncertain.insert(key);
        }
      }
      if (!st.ok()) {
        inj.TakeCrashRequest();
        ended = !crash_reopen("failed ingest");
        continue;
      }
    }
    if (rng.NextBool(0.3)) {
      // Flush/compaction failures are recoverable by definition: everything
      // acked is in the synced WAL, so crash-and-reopen must restore it.
      if (!tree->Flush().ok()) {
        ended = !crash_reopen("failed flush");
        continue;
      }
    }
    if (rng.NextBool(0.2) && !tree->CompactAll().ok()) {
      ended = !crash_reopen("failed compaction");
      continue;
    }
    if (rng.NextBool(0.5)) ended = !crash_reopen("scheduled crash");
  }

  if (!ended) {
    (void)crash_reopen("final verification");  // one last differential pass
  }
  report.faults_fired = inj.TotalFires();
  report.schedule = inj.ScheduleToString();
  return report;
}

// ---------------------------------------------------------------------------
// Two-phase-commit protocol chaos (threadless)
// ---------------------------------------------------------------------------

/// \brief Drives the TwoPhaseCommitSink epoch protocol directly, crashing
/// between prepare and commit and during recovery re-commit.
inline ChaosReport RunTpcProtocolChaos(uint64_t seed) {
  ChaosReport report;
  ScopedFaultInjection arm(seed);
  auto& inj = FaultInjector::Instance();
  Rng rng(seed ^ 0x2bcd7f3du);

  {
    FaultRule rule;
    rule.action = FaultAction::kCrash;
    rule.probability = 0.4;
    rule.max_fires = 1 + rng.NextBounded(2);
    rule.message = "crash between prepare and commit";
    inj.SetRule("2pc.commit.pre", rule);
  }
  {
    FaultRule rule;
    rule.action = FaultAction::kCrash;
    rule.probability = 0.35;
    rule.after_n_hits = rng.NextBounded(4);
    rule.max_fires = 1 + rng.NextBounded(3);
    rule.message = "crash mid commit sequence";
    inj.SetRule("2pc.commit.mid", rule);
  }

  checkpoint::CommitTarget target;
  auto sink = std::make_unique<checkpoint::TwoPhaseCommitSink>(&target);

  // Driver epochs: each feeds a batch, seals it (prepare), and maybe
  // completes the checkpoint (commit). Records encode (epoch, index) so the
  // committed multiset can be grouped back into driver epochs.
  const int kEpochs = 10;
  std::vector<std::vector<Record>> epochs(kEpochs + 1);
  for (int e = 1; e <= kEpochs; ++e) {
    int n = 1 + static_cast<int>(rng.NextBounded(5));
    for (int i = 0; i < n; ++i) {
      epochs[e].emplace_back(static_cast<TimeMs>(e), 0,
                             Value(static_cast<int64_t>(e * 1000 + i)));
    }
  }

  // Latest *completed* checkpoint: serialized sink state plus the driver
  // epoch it covers (the "source offset" of this threadless job).
  std::string latest_bytes;
  int latest_fed = 0;
  bool have_latest = false;

  auto feed = [&](int e) {
    for (Record r : epochs[e]) {
      EVO_CHECK_OK(sink->ProcessRecord(r, nullptr));
    }
  };
  // A "process crash": new sink instance, restore from the latest completed
  // checkpoint (re-commit may itself crash — retry bounded by max_fires),
  // then re-feed everything after it.
  auto recover = [&](int fed_through) {
    ++report.restarts;
    for (int attempt = 0; attempt < 12; ++attempt) {
      sink = std::make_unique<checkpoint::TwoPhaseCommitSink>(&target);
      if (!have_latest) break;
      BinaryReader r(latest_bytes);
      if (sink->RestoreState(&r).ok()) break;
    }
    for (int e = latest_fed + 1; e <= fed_through; ++e) feed(e);
  };
  // Half-commit detector: per driver epoch the target holds all or nothing,
  // and never more than one copy of a record.
  auto check = [&](const char* when) {
    std::map<int, std::map<int64_t, int>> by_epoch;
    for (const Record& r : target.Committed()) {
      int64_t v = r.payload.AsInt();
      ++by_epoch[static_cast<int>(v / 1000)][v];
    }
    for (const auto& [e, recs] : by_epoch) {
      for (const auto& [v, n] : recs) {
        if (n > 1) {
          report.Fail(seed, std::string(when) + ": record " +
                                std::to_string(v) + " committed " +
                                std::to_string(n) + " times");
          return false;
        }
      }
      if (recs.size() != epochs[e].size()) {
        report.Fail(seed, std::string(when) + ": epoch " + std::to_string(e) +
                              " half-committed: " +
                              std::to_string(recs.size()) + "/" +
                              std::to_string(epochs[e].size()));
        return false;
      }
    }
    return true;
  };

  for (int e = 1; e <= kEpochs && report.ok; ++e) {
    feed(e);
    BinaryWriter w;
    EVO_CHECK_OK(sink->SnapshotState(&w));  // prepare: seal the epoch
    if (rng.NextBool(0.8)) {
      // Checkpoint completes job-wide; phase 2 must now happen (possibly
      // via recovery re-commit if the commit call crashes).
      latest_bytes = std::string(w.buffer());
      latest_fed = e;
      have_latest = true;
      if (!sink->OnCheckpointComplete(static_cast<uint64_t>(e), nullptr)
               .ok()) {
        recover(e);
      }
    } else if (rng.NextBool(0.3)) {
      // Checkpoint failed job-wide AND the process crashed: the sealed
      // epoch must stay invisible until a later completed checkpoint.
      recover(e);
    }
    if (!check("after epoch")) break;
  }

  if (report.ok) {
    // Drain: complete one final checkpoint so every pending epoch commits.
    for (int attempt = 0; attempt < 12 && report.ok; ++attempt) {
      BinaryWriter w;
      EVO_CHECK_OK(sink->SnapshotState(&w));
      latest_bytes = std::string(w.buffer());
      latest_fed = kEpochs;
      have_latest = true;
      if (sink->OnCheckpointComplete(kEpochs + 1 + attempt, nullptr).ok()) {
        break;
      }
      recover(kEpochs);
    }
    if (check("after drain")) {
      size_t expected = 0;
      for (const auto& e : epochs) expected += e.size();
      if (target.CommittedCount() != expected) {
        report.Fail(seed, "exactly-once violated: committed " +
                              std::to_string(target.CommittedCount()) + "/" +
                              std::to_string(expected));
      }
    }
  }
  report.faults_fired = inj.TotalFires();
  report.schedule = inj.ScheduleToString();
  return report;
}

// ---------------------------------------------------------------------------
// Saga compensation-path chaos
// ---------------------------------------------------------------------------

/// \brief Randomized saga with failing steps and injected compensation
/// failures; every completed step must be accounted for either way.
inline ChaosReport RunSagaChaos(uint64_t seed) {
  ChaosReport report;
  ScopedFaultInjection arm(seed);
  auto& inj = FaultInjector::Instance();
  Rng rng(seed ^ 0x54a6b1c9u);

  if (rng.NextBool(0.8)) {
    FaultRule rule;
    rule.action = FaultAction::kError;
    rule.probability = 0.25 * static_cast<double>(1 + rng.NextBounded(4));
    rule.after_n_hits = rng.NextBounded(2);
    rule.max_fires = 1 + rng.NextBounded(3);
    rule.message = "compensation endpoint down";
    inj.SetRule("saga.compensate", rule);
  }

  const size_t n = 3 + rng.NextBounded(6);
  const size_t fail_at = rng.NextBounded(n + 2);  // >= n means all succeed

  std::vector<size_t> executed;
  std::vector<size_t> compensated;
  std::vector<txn::SagaStep> steps;
  for (size_t i = 0; i < n; ++i) {
    txn::SagaStep step;
    step.name = "step" + std::to_string(i);
    step.action = [i, fail_at, &executed] {
      executed.push_back(i);
      if (i == fail_at) return Status::Unavailable("service down");
      return Status::OK();
    };
    step.compensation = [i, &compensated] {
      compensated.push_back(i);
      return Status::OK();
    };
    steps.push_back(std::move(step));
  }

  txn::SagaCoordinator coordinator;
  txn::SagaReport saga = coordinator.Execute(steps);

  if (fail_at >= n) {
    if (!saga.committed) report.Fail(seed, "fault-free saga did not commit");
    if (executed.size() != n) {
      report.Fail(seed, "committed saga skipped steps");
    }
    if (!compensated.empty() || !saga.compensated_steps.empty()) {
      report.Fail(seed, "committed saga ran compensations");
    }
  } else {
    if (saga.committed) report.Fail(seed, "failed saga reported committed");
    if (saga.failed_step != fail_at) {
      report.Fail(seed, "wrong failed_step: " +
                            std::to_string(saga.failed_step) + " want " +
                            std::to_string(fail_at));
    }
    // Steps after the failure never execute; prefix executed in order.
    if (executed.size() != fail_at + 1) {
      report.Fail(seed, "executed " + std::to_string(executed.size()) +
                            " steps, want " + std::to_string(fail_at + 1));
    }
    // Every completed step is accounted for: compensated, or reported as a
    // failed compensation (the injected compensation-path failures).
    if (saga.compensated_steps.size() + saga.failed_compensations.size() !=
        fail_at) {
      report.Fail(seed, "rollback dropped a step: " +
                            std::to_string(saga.compensated_steps.size()) +
                            " compensated + " +
                            std::to_string(saga.failed_compensations.size()) +
                            " failed != " + std::to_string(fail_at));
    }
    if (saga.failed_compensations.size() !=
        inj.Fires("saga.compensate")) {
      report.Fail(seed, "failed-compensation count does not match injected "
                        "fault fires");
    }
    // Actual compensation calls ran in strict reverse order, and only for
    // the steps reported as compensated.
    for (size_t i = 1; i < compensated.size(); ++i) {
      if (compensated[i - 1] <= compensated[i]) {
        report.Fail(seed, "compensations ran out of order");
        break;
      }
    }
    if (compensated.size() != saga.compensated_steps.size()) {
      report.Fail(seed, "compensation calls do not match the report");
    }
  }
  report.faults_fired = inj.TotalFires();
  report.schedule = inj.ScheduleToString();
  return report;
}

}  // namespace evo::testing
