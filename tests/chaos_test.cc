// EvoChaos randomized crash-recovery suite.
//
// Each seeded test drives one protocol (exactly-once pipeline, WAL/LSM,
// two-phase commit, saga rollback) through a deterministic fault schedule
// derived from the seed; see src/testing/chaos_runner.h for the drivers and
// the invariants they assert. A failure prints the seed and the fired fault
// schedule; re-run a single schedule across every protocol with
//
//   ./chaos_test --seed=N
//
// CI runs a fixed block of seeds per protocol (>= 100 schedules in total);
// set EVO_CHAOS_SEEDS=<n> to widen each block to n seeds.

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "testing/chaos_runner.h"
#include "testing/fault_injector.h"

namespace evo::testing {
namespace {

// Set by --seed=N: replay exactly this schedule in every seeded suite.
bool g_has_single_seed = false;
uint64_t g_single_seed = 0;

// Disjoint per-protocol seed blocks, widened by EVO_CHAOS_SEEDS.
std::vector<uint64_t> SeedsFor(uint64_t base, size_t default_count) {
  if (g_has_single_seed) return {g_single_seed};
  size_t count = default_count;
  if (const char* env = std::getenv("EVO_CHAOS_SEEDS")) {
    long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) count = static_cast<size_t>(parsed);
  }
  std::vector<uint64_t> seeds;
  seeds.reserve(count);
  for (size_t i = 0; i < count; ++i) seeds.push_back(base + i);
  return seeds;
}

// ---------------------------------------------------------------------------
// Exactly-once pipeline under crash-restart
// ---------------------------------------------------------------------------

TEST(ChaosPipelineTest, FaultFreeBaselineProducesExpectedOutput) {
  ChaosRunner::Options options;
  options.seed = 4242;
  options.install_rules = false;  // armed injector, empty schedule
  options.num_records = 1500;
  ChaosReport report = ChaosRunner(options).Run();
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.faults_fired, 0u);
  EXPECT_EQ(report.restarts, 0);
}

TEST(ChaosPipelineTest, ExactlyOnceAcrossSeededCrashSchedules) {
  for (uint64_t seed : SeedsFor(1000, 12)) {
    ChaosRunner::Options options;
    options.seed = seed;
    ChaosReport report = ChaosRunner(options).Run();
    ASSERT_TRUE(report.ok) << report.error;
  }
}

TEST(ChaosPipelineTest, ExactlyOnceWhenParkedOperatorTasksAreKilled) {
  // Every kill lands on a task parked on its wakeup word: the failure
  // signal must end the park, the job must fail over, and the restored
  // runs must still commit exactly the fault-free output.
  for (uint64_t seed : SeedsFor(5000, 6)) {
    ChaosRunner::Options options;
    options.seed = seed;
    options.install_rules = false;
    options.parked_kills = true;
    ChaosReport report = ChaosRunner(options).Run();
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_GE(report.restarts, 1);
  }
}

TEST(ChaosPipelineTest, ExactlyOnceOnLsmStateWithTasksDyingMidSnapshot) {
  // Counts on LsmBackend over enough keys that each snapshot is serialized
  // in several steps after its barrier; tasks die inside those steps (and
  // by the usual schedule). No partial snapshot may ever be acknowledged.
  for (uint64_t seed : SeedsFor(6000, 6)) {
    ChaosRunner::Options options;
    options.seed = seed;
    options.lsm_state = true;
    options.num_keys = 1200;
    options.num_records = 3000;
    ChaosReport report = ChaosRunner(options).Run();
    ASSERT_TRUE(report.ok) << report.error;
  }
}

// ---------------------------------------------------------------------------
// WAL / LSM storage faults
// ---------------------------------------------------------------------------

TEST(ChaosLsmTest, AckedWritesSurviveSeededStorageFaults) {
  for (uint64_t seed : SeedsFor(2000, 40)) {
    ChaosReport report = RunLsmChaos(seed);
    ASSERT_TRUE(report.ok) << report.error;
  }
}

// ---------------------------------------------------------------------------
// Two-phase-commit epoch protocol
// ---------------------------------------------------------------------------

TEST(ChaosTpcTest, NeverHalfCommitsAcrossSeededCrashSchedules) {
  for (uint64_t seed : SeedsFor(3000, 30)) {
    ChaosReport report = RunTpcProtocolChaos(seed);
    ASSERT_TRUE(report.ok) << report.error;
  }
}

// ---------------------------------------------------------------------------
// Saga compensation paths
// ---------------------------------------------------------------------------

TEST(ChaosSagaTest, RollbackAccountsForEveryStepAcrossSeeds) {
  for (uint64_t seed : SeedsFor(4000, 30)) {
    ChaosReport report = RunSagaChaos(seed);
    ASSERT_TRUE(report.ok) << report.error;
  }
}

// ---------------------------------------------------------------------------
// Harness properties: determinism and observability
// ---------------------------------------------------------------------------

TEST(ChaosHarnessTest, SameSeedReplaysTheSameFaultSchedule) {
  // The threadless drivers must reproduce their schedule bit-for-bit.
  for (uint64_t seed : {3001u, 3002u, 4007u}) {
    ChaosReport first =
        seed < 4000 ? RunTpcProtocolChaos(seed) : RunSagaChaos(seed);
    ChaosReport second =
        seed < 4000 ? RunTpcProtocolChaos(seed) : RunSagaChaos(seed);
    EXPECT_EQ(first.schedule, second.schedule) << "seed " << seed;
    EXPECT_EQ(first.faults_fired, second.faults_fired) << "seed " << seed;
  }
}

TEST(ChaosHarnessTest, DistinctSeedsProduceDistinctSchedules) {
  // Not a hard guarantee per pair, but across a block the schedules must not
  // all collapse to one (the seed must actually steer the randomness).
  std::set<std::string> schedules;
  for (uint64_t seed = 2000; seed < 2010; ++seed) {
    schedules.insert(RunLsmChaos(seed).schedule);
  }
  EXPECT_GT(schedules.size(), 1u);
}

TEST(ChaosHarnessTest, FiredFaultsEmitJournalEvents) {
  obs::EventJournal journal;
  {
    ScopedFaultInjection arm(7);
    auto& injector = FaultInjector::Instance();
    injector.AttachJournal(&journal);
    FaultRule rule;
    rule.action = FaultAction::kError;
    rule.max_fires = 2;
    injector.SetRule("chaos.test.point", rule);
    EXPECT_EQ(injector.Evaluate("chaos.test.point"), FaultAction::kError);
    EXPECT_EQ(injector.Evaluate("chaos.test.point"), FaultAction::kError);
    EXPECT_EQ(injector.Evaluate("chaos.test.point"), FaultAction::kNone);
    injector.AttachJournal(nullptr);
  }
  auto events = journal.Since(0);
  ASSERT_EQ(events.size(), 2u);
  for (const auto& event : events) {
    EXPECT_EQ(event.type, obs::EventType::kFaultInjected);
    EXPECT_NE(event.message.find("chaos.test.point"), std::string::npos);
  }
}

TEST(ChaosHarnessTest, DisarmedPointsAreInert) {
  // No ScopedFaultInjection: production configuration.
  auto& injector = FaultInjector::Instance();
  ASSERT_FALSE(injector.armed());
  EXPECT_EQ(EVO_FAULT_POINT("chaos.test.inert"), FaultAction::kNone);
  EXPECT_EQ(injector.TotalFires(), 0u);
}

}  // namespace
}  // namespace evo::testing

// Custom main: gtest + the --seed=N replay flag (prints schedules on
// failure, so a failing CI seed reproduces locally with one flag).
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const std::string prefix = "--seed=";
    if (arg.rfind(prefix, 0) == 0) {
      evo::testing::g_single_seed =
          std::strtoull(arg.c_str() + prefix.size(), nullptr, 10);
      evo::testing::g_has_single_seed = true;
    }
  }
  return RUN_ALL_TESTS();
}
