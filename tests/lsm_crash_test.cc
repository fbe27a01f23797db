// Randomized differential testing of the LSM tree: a long random op
// sequence interleaved with flushes, compactions, crashes (with and without
// per-write WAL sync), and reopen cycles, continuously compared against an
// in-memory model of the durable prefix. Also covers prefix scans across
// levels and a pinned scan under compaction.

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "state/env.h"
#include "state/lsm_tree.h"
#include "test_util.h"

namespace evo::state {
namespace {

LsmOptions CrashyOptions(Env* env, bool sync_wal) {
  return test_util::SmallLsmOptions(env, "/crashdb", 2048, sync_wal);
}

TEST(LsmCrashTest, RandomOpsWithSyncSurviveCrashesExactly) {
  // With sync_wal, *every* acknowledged write must survive a crash.
  MemEnv env;
  Rng rng(101);
  std::map<std::string, std::string> model;

  auto tree_result = LsmTree::Open(CrashyOptions(&env, true));
  ASSERT_TRUE(tree_result.ok());
  std::unique_ptr<LsmTree> tree = std::move(*tree_result);

  for (int round = 0; round < 8; ++round) {
    // A burst of random operations.
    for (int i = 0; i < 400; ++i) {
      std::string key = "k" + std::to_string(rng.NextBounded(150));
      if (rng.NextBool(0.75)) {
        std::string value =
            "v" + std::to_string(round) + "-" + std::to_string(i);
        ASSERT_TRUE(tree->Put(key, value).ok());
        model[key] = value;
      } else {
        ASSERT_TRUE(tree->Delete(key).ok());
        model.erase(key);
      }
    }
    if (rng.NextBool(0.3)) ASSERT_TRUE(tree->Flush().ok());
    if (rng.NextBool(0.2)) ASSERT_TRUE(tree->CompactAll().ok());

    // Crash (unsynced data discarded — but sync_wal synced everything) and
    // reopen.
    env.SimulateCrash();
    tree.reset();
    auto reopened = LsmTree::Open(CrashyOptions(&env, true));
    ASSERT_TRUE(reopened.ok()) << "round " << round;
    tree = std::move(*reopened);

    // Differential check: every model key matches; sampled absent keys are
    // absent.
    for (const auto& [key, value] : model) {
      auto got = tree->Get(key);
      ASSERT_TRUE(got.ok()) << key;
      ASSERT_TRUE(got->has_value()) << "round " << round << " lost " << key;
      EXPECT_EQ(**got, value) << key;
    }
    for (int probe = 0; probe < 50; ++probe) {
      std::string key = "absent" + std::to_string(rng.NextBounded(1000));
      auto got = tree->Get(key);
      ASSERT_TRUE(got.ok());
      EXPECT_FALSE(got->has_value());
    }
  }
}

TEST(LsmCrashTest, WithoutSyncCrashLosesOnlyASuffix) {
  // Without per-write sync, a crash may lose recent writes — but never
  // corrupt older ones: the surviving store must equal the model at *some*
  // prefix of the op log.
  MemEnv env;
  Rng rng(103);

  struct Op {
    bool is_put;
    std::string key, value;
  };
  std::vector<Op> ops;
  for (int i = 0; i < 3000; ++i) {
    std::string key = "k" + std::to_string(rng.NextBounded(80));
    if (rng.NextBool(0.8)) {
      ops.push_back({true, key, "v" + std::to_string(i)});
    } else {
      ops.push_back({false, key, ""});
    }
  }

  {
    auto tree = LsmTree::Open(CrashyOptions(&env, false));
    ASSERT_TRUE(tree.ok());
    for (const Op& op : ops) {
      if (op.is_put) {
        ASSERT_TRUE((*tree)->Put(op.key, op.value).ok());
      } else {
        ASSERT_TRUE((*tree)->Delete(op.key).ok());
      }
    }
    env.SimulateCrash();  // tree destroyed after crash, sync in dtor is moot
  }

  auto reopened = LsmTree::Open(CrashyOptions(&env, false));
  ASSERT_TRUE(reopened.ok());

  // Collect the survivor's full contents.
  std::map<std::string, std::string> survivor;
  ASSERT_TRUE((*reopened)
                  ->ScanPrefix("",
                               [&](std::string_view k, std::string_view v) {
                                 survivor[std::string(k)] = std::string(v);
                               })
                  .ok());

  // It must equal the model after SOME prefix of ops (prefix durability).
  std::map<std::string, std::string> model;
  bool matched = survivor.empty();
  for (const Op& op : ops) {
    if (op.is_put) {
      model[op.key] = op.value;
    } else {
      model.erase(op.key);
    }
    if (model == survivor) {
      matched = true;
      break;
    }
  }
  EXPECT_TRUE(matched) << "survivor state is not any prefix of the op log";
}

TEST(LsmCrashTest, ScanPrefixHonorsBoundsAcrossLevels) {
  MemEnv env;
  auto tree = LsmTree::Open(CrashyOptions(&env, false));
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 500; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%04d", i);
    ASSERT_TRUE((*tree)->Put(buf, "v").ok());
    if (i % 100 == 99) ASSERT_TRUE((*tree)->Flush().ok());
  }
  ASSERT_GT((*tree)->GetStats().compactions, 0u);  // keys on several levels
  std::vector<std::string> seen;
  ASSERT_TRUE((*tree)
                  ->ScanPrefix("key01",
                               [&](std::string_view k, std::string_view) {
                                 seen.emplace_back(k);
                               })
                  .ok());
  ASSERT_EQ(seen.size(), 100u);
  EXPECT_EQ(seen.front(), "key0100");
  EXPECT_EQ(seen.back(), "key0199");
  // Ordered.
  for (size_t i = 1; i < seen.size(); ++i) EXPECT_LT(seen[i - 1], seen[i]);
}

TEST(LsmCrashTest, PinnedSnapshotSurvivesCompaction) {
  MemEnv env;
  LsmOptions options = CrashyOptions(&env, false);
  auto tree = LsmTree::Open(options);
  ASSERT_TRUE(tree.ok());

  ASSERT_TRUE((*tree)->Put("k", "old").ok());
  LsmTree::PinnedScan scan(tree->get());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*tree)->Put("k", "new" + std::to_string(i)).ok());
    ASSERT_TRUE((*tree)->Put("filler" + std::to_string(i), "x").ok());
  }
  ASSERT_TRUE((*tree)->Flush().ok());
  ASSERT_GT((*tree)->GetStats().compactions, 0u);  // small memtable
  // The pinned version must still be visible because the pin holds the
  // horizon; nothing written after the pin is.
  std::vector<std::pair<std::string, std::string>> rows;
  auto done = scan.Step(SIZE_MAX, [&](std::string_view k, std::string_view v) {
    rows.emplace_back(k, v);
  });
  ASSERT_TRUE(done.ok() && *done);
  EXPECT_EQ(rows, (std::vector<std::pair<std::string, std::string>>{
                      {"k", "old"}}));
}

}  // namespace
}  // namespace evo::state
