// Differential test of the keyed state backends: seeded random sequences of
// every KeyedStateBackend operation run against MemBackend, LsmBackend,
// ExternalBackend and a std::map model. Every read and every visit order
// must match the model, and every snapshot must decode to the model's
// entries for the requested key-group range.
//
// Replay one seed: state_diff_test --gtest_filter='*/<seed>'.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "state/env.h"
#include "state/external_backend.h"
#include "state/lsm_backend.h"
#include "state/mem_backend.h"
#include "test_util.h"

namespace evo::state {
namespace {

// Few key groups, so random ranges cover partial, empty and full splits.
constexpr uint32_t kMaxParallelism = 8;
constexpr int kOpsPerSeed = 2500;

// (namespace, key group, key, user key): the visit order IterateNamespace
// promises within one namespace.
using ModelKey = std::tuple<StateNamespace, uint32_t, uint64_t, std::string>;
using Model = std::map<ModelKey, std::string>;

struct Entry {
  StateNamespace ns;
  uint64_t key;
  std::string user_key;
  std::string value;
  bool operator<(const Entry& o) const {
    return std::tie(ns, key, user_key, value) <
           std::tie(o.ns, o.key, o.user_key, o.value);
  }
  bool operator==(const Entry& o) const {
    return std::tie(ns, key, user_key, value) ==
           std::tie(o.ns, o.key, o.user_key, o.value);
  }
};

// Decodes the snapshot wire format independently of the engine:
// u64 count | (u32 ns, u64 key, bytes user_key, bytes value)*.
std::vector<Entry> DecodeSnapshot(std::string_view snapshot) {
  std::vector<Entry> out;
  BinaryReader r(snapshot);
  uint64_t count = 0;
  EXPECT_TRUE(r.ReadU64(&count).ok());
  for (uint64_t i = 0; i < count; ++i) {
    Entry e;
    std::string_view uk, value;
    EXPECT_TRUE(r.ReadU32(&e.ns).ok());
    EXPECT_TRUE(r.ReadU64(&e.key).ok());
    EXPECT_TRUE(r.ReadBytes(&uk).ok());
    EXPECT_TRUE(r.ReadBytes(&value).ok());
    e.user_key = std::string(uk);
    e.value = std::string(value);
    out.push_back(std::move(e));
  }
  EXPECT_TRUE(r.AtEnd()) << "trailing bytes after " << count << " entries";
  return out;
}

class BackendDiffTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    backends_.push_back(std::make_unique<MemBackend>(kMaxParallelism));
    auto lsm = LsmBackend::Open(
        test_util::SmallLsmOptions(&env_, "/diff", 1024), kMaxParallelism);
    ASSERT_TRUE(lsm.ok());
    backends_.push_back(std::move(*lsm));
    ExternalStoreModel model;
    model.virtual_time = true;
    backends_.push_back(
        std::make_unique<ExternalBackend>(model, kMaxParallelism));
    names_ = {"mem", "lsm", "external"};

    Rng keys(GetParam() ^ 0x5eed);
    for (int i = 0; i < 24; ++i) {
      // Small keys and full-width ones, so big-endian order is exercised.
      key_pool_.push_back(i < 8 ? static_cast<uint64_t>(i) : keys.NextU64());
    }
    user_key_pool_ = {"", "a", "ab", "b", std::string(1, '\0'),
                      std::string("\0\x01", 2), "\xff", "\x7f\x80",
                      "zz", std::string(8, '\x01')};
  }

  StateNamespace RandomNs(Rng* rng) {
    return static_cast<StateNamespace>(rng->NextBounded(3));
  }
  uint64_t RandomKey(Rng* rng) {
    return key_pool_[rng->NextBounded(key_pool_.size())];
  }
  std::string RandomUserKey(Rng* rng) {
    return user_key_pool_[rng->NextBounded(user_key_pool_.size())];
  }
  ModelKey Key(StateNamespace ns, uint64_t key, const std::string& uk) const {
    return {ns, KeyGroup::OfHash(key, kMaxParallelism), key, uk};
  }
  // A key-group range [from, to), possibly empty.
  std::pair<uint32_t, uint32_t> RandomRange(Rng* rng) {
    uint32_t a = static_cast<uint32_t>(rng->NextBounded(kMaxParallelism + 1));
    uint32_t b = static_cast<uint32_t>(rng->NextBounded(kMaxParallelism + 1));
    return {std::min(a, b), std::max(a, b)};
  }

  std::vector<Entry> ModelRange(uint32_t from, uint32_t to) const {
    std::vector<Entry> out;
    for (const auto& [k, v] : model_) {
      const auto& [ns, kg, key, uk] = k;
      if (kg >= from && kg < to) out.push_back({ns, key, uk, v});
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void CheckEverything(const std::string& where) {
    for (StateNamespace ns = 0; ns < 3; ++ns) {
      std::vector<std::tuple<uint64_t, std::string, std::string>> want;
      for (const auto& [k, v] : model_) {
        if (std::get<0>(k) == ns) {
          want.emplace_back(std::get<2>(k), std::get<3>(k), v);
        }
      }
      for (size_t b = 0; b < backends_.size(); ++b) {
        std::vector<std::tuple<uint64_t, std::string, std::string>> got;
        ASSERT_TRUE(backends_[b]
                        ->IterateNamespace(ns,
                                           [&](uint64_t key,
                                               std::string_view uk,
                                               std::string_view v) {
                                             got.emplace_back(
                                                 key, std::string(uk),
                                                 std::string(v));
                                           })
                        .ok());
        ASSERT_EQ(got, want) << names_[b] << " ns " << ns << " " << where;
      }
    }
  }

  MemEnv env_;
  std::vector<std::unique_ptr<KeyedStateBackend>> backends_;
  std::vector<std::string> names_;
  std::vector<uint64_t> key_pool_;
  std::vector<std::string> user_key_pool_;
  Model model_;
};

TEST_P(BackendDiffTest, RandomOperationsMatchModel) {
  Rng rng(GetParam());
  std::vector<std::string> old_snapshots;
  for (int step = 0; step < kOpsPerSeed; ++step) {
    const std::string where = "at step " + std::to_string(step);
    const uint64_t op = rng.NextBounded(100);
    if (op < 35) {  // Put
      StateNamespace ns = RandomNs(&rng);
      uint64_t key = RandomKey(&rng);
      std::string uk = RandomUserKey(&rng);
      std::string value = "v" + std::to_string(rng.NextBounded(1000));
      if (rng.NextBool(0.1)) value.clear();
      model_[Key(ns, key, uk)] = value;
      for (auto& b : backends_) ASSERT_TRUE(b->Put(ns, key, uk, value).ok());
    } else if (op < 55) {  // Get
      StateNamespace ns = RandomNs(&rng);
      uint64_t key = RandomKey(&rng);
      std::string uk = RandomUserKey(&rng);
      auto it = model_.find(Key(ns, key, uk));
      for (size_t b = 0; b < backends_.size(); ++b) {
        auto got = backends_[b]->Get(ns, key, uk);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got->has_value(), it != model_.end())
            << names_[b] << " " << where;
        if (it != model_.end()) {
          ASSERT_EQ(**got, it->second) << names_[b] << " " << where;
        }
      }
    } else if (op < 68) {  // Remove (present or not)
      StateNamespace ns = RandomNs(&rng);
      uint64_t key = RandomKey(&rng);
      std::string uk = RandomUserKey(&rng);
      model_.erase(Key(ns, key, uk));
      for (auto& b : backends_) ASSERT_TRUE(b->Remove(ns, key, uk).ok());
    } else if (op < 80) {  // IterateKey
      StateNamespace ns = RandomNs(&rng);
      uint64_t key = RandomKey(&rng);
      std::vector<std::pair<std::string, std::string>> want;
      for (const auto& [k, v] : model_) {
        if (std::get<0>(k) == ns && std::get<2>(k) == key) {
          want.emplace_back(std::get<3>(k), v);
        }
      }
      for (size_t b = 0; b < backends_.size(); ++b) {
        std::vector<std::pair<std::string, std::string>> got;
        ASSERT_TRUE(backends_[b]
                        ->IterateKey(ns, key,
                                     [&](std::string_view uk,
                                         std::string_view v) {
                                       got.emplace_back(uk, v);
                                     })
                        .ok());
        ASSERT_EQ(got, want) << names_[b] << " " << where;
      }
    } else if (op < 85) {  // IterateNamespace
      CheckEverything(where);
    } else if (op < 92) {  // SnapshotKeyGroups
      auto [from, to] = RandomRange(&rng);
      const std::vector<Entry> want = ModelRange(from, to);
      for (size_t b = 0; b < backends_.size(); ++b) {
        auto snap = backends_[b]->SnapshotKeyGroups(from, to);
        ASSERT_TRUE(snap.ok());
        std::vector<Entry> got = DecodeSnapshot(*snap);
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, want) << names_[b] << " [" << from << "," << to
                             << ") " << where;
        if (b == static_cast<size_t>(step) % backends_.size()) {
          old_snapshots.push_back(std::move(*snap));
        }
      }
    } else if (op < 96) {  // RestoreSnapshot: merge an older snapshot back
      if (old_snapshots.empty()) continue;
      const std::string& snap =
          old_snapshots[rng.NextBounded(old_snapshots.size())];
      for (const Entry& e : DecodeSnapshot(snap)) {
        model_[Key(e.ns, e.key, e.user_key)] = e.value;
      }
      for (auto& b : backends_) ASSERT_TRUE(b->RestoreSnapshot(snap).ok());
    } else {  // DropKeyGroups
      auto [from, to] = RandomRange(&rng);
      for (auto it = model_.begin(); it != model_.end();) {
        const uint32_t kg = std::get<1>(it->first);
        it = (kg >= from && kg < to) ? model_.erase(it) : std::next(it);
      }
      for (auto& b : backends_) ASSERT_TRUE(b->DropKeyGroups(from, to).ok());
    }
  }
  CheckEverything("at end");

  // A full snapshot of any backend restores into any other backend type.
  for (size_t src = 0; src < backends_.size(); ++src) {
    auto snap = backends_[src]->SnapshotAll();
    ASSERT_TRUE(snap.ok());
    MemBackend mem(kMaxParallelism);
    ASSERT_TRUE(mem.RestoreSnapshot(*snap).ok());
    auto again = mem.SnapshotAll();
    ASSERT_TRUE(again.ok());
    std::vector<Entry> a = DecodeSnapshot(*snap), b = DecodeSnapshot(*again);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << names_[src];
    EXPECT_EQ(a, ModelRange(0, kMaxParallelism)) << names_[src];
  }

  // Clear leaves nothing behind.
  for (auto& b : backends_) ASSERT_TRUE(b->Clear().ok());
  model_.clear();
  CheckEverything("after Clear");
}

// LsmBackend restores by ingesting one SST per snapshot; the base class's
// Put-per-entry replay is the reference. Both must leave byte-identical
// state, for snapshots in the LSM's own sorted order and in MemBackend's hash
// order, into empty and non-empty trees, and through a two-snapshot rescale.
class IngestRestoreTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // Random puts over a small key space, so restores overwrite live keys.
  void Fill(KeyedStateBackend* b, Rng* rng, int n) {
    for (int i = 0; i < n; ++i) {
      const uint64_t key = rng->NextBounded(40) * 0x9e3779b97f4a7c15ull;
      const std::string uk(rng->NextBounded(3), static_cast<char>(rng->NextU64()));
      ASSERT_TRUE(b->Put(static_cast<StateNamespace>(rng->NextBounded(3)), key,
                         uk, "v" + std::to_string(rng->NextU64() % 1000))
                      .ok());
    }
  }

  std::unique_ptr<LsmBackend> NewLsm() {
    auto lsm = LsmBackend::Open(
        test_util::SmallLsmOptions(&env_, "/ingest" + std::to_string(dirs_++),
                                   1024),
        kMaxParallelism);
    EXPECT_TRUE(lsm.ok());
    return lsm.ok() ? std::move(*lsm) : nullptr;
  }

  // A pair of trees in the same state: `prefill` puts spread over the
  // memtable, L0 and deeper levels (nothing when zero).
  std::pair<std::unique_ptr<LsmBackend>, std::unique_ptr<LsmBackend>> Targets(
      int prefill) {
    auto ingest = NewLsm(), replay = NewLsm();
    for (LsmBackend* b : {ingest.get(), replay.get()}) {
      Rng rng(GetParam() ^ 0x7a26e7);
      Fill(b, &rng, prefill / 2);
      EXPECT_TRUE(b->tree()->CompactAll().ok());
      Fill(b, &rng, prefill / 4);
      EXPECT_TRUE(b->tree()->Flush().ok());
      Fill(b, &rng, prefill / 4);
    }
    return {std::move(ingest), std::move(replay)};
  }

  static void ExpectSameState(KeyedStateBackend* a, KeyedStateBackend* b,
                              const std::string& where) {
    auto sa = a->SnapshotAll(), sb = b->SnapshotAll();
    ASSERT_TRUE(sa.ok() && sb.ok()) << where;
    EXPECT_EQ(*sa, *sb) << where;
  }

  MemEnv env_;
  int dirs_ = 0;
};

TEST_P(IngestRestoreTest, MatchesPutReplay) {
  Rng rng(GetParam());
  MemBackend mem(kMaxParallelism);
  std::unique_ptr<LsmBackend> lsm = NewLsm();
  for (KeyedStateBackend* b : {static_cast<KeyedStateBackend*>(&mem),
                               static_cast<KeyedStateBackend*>(lsm.get())}) {
    Rng fill(GetParam());
    Fill(b, &fill, 300);
  }
  auto mem_snap = mem.SnapshotAll();
  auto lsm_snap = lsm->SnapshotAll();
  ASSERT_TRUE(mem_snap.ok() && lsm_snap.ok());
  ASSERT_NE(*mem_snap, *lsm_snap) << "expected MemBackend's unsorted order";

  for (int prefill : {0, 200}) {
    for (const auto& [name, snap] :
         {std::pair<std::string, std::string>{"lsm-made", *lsm_snap},
          {"mem-made", *mem_snap}}) {
      const std::string where = name + " snapshot, prefill " + std::to_string(prefill);
      auto [ingest, replay] = Targets(prefill);
      ASSERT_TRUE(ingest->RestoreSnapshot(snap).ok()) << where;
      ASSERT_TRUE(replay->KeyedStateBackend::RestoreSnapshot(snap).ok()) << where;
      ExpectSameState(ingest.get(), replay.get(), where);
      if (prefill == 0) ExpectSameState(ingest.get(), lsm.get(), where);
    }
  }

  // Rescale: two old subtasks' snapshots into one new subtask, which then
  // drops the key groups it does not own.
  const uint32_t half = kMaxParallelism / 2;
  for (KeyedStateBackend* src : {static_cast<KeyedStateBackend*>(&mem),
                                 static_cast<KeyedStateBackend*>(lsm.get())}) {
    auto lo = src->SnapshotKeyGroups(0, half);
    auto hi = src->SnapshotKeyGroups(half, kMaxParallelism);
    ASSERT_TRUE(lo.ok() && hi.ok());
    auto [ingest, replay] = Targets(rng.NextBool(0.5) ? 200 : 0);
    for (const std::string* snap : {&*lo, &*hi}) {
      ASSERT_TRUE(ingest->RestoreSnapshot(*snap).ok());
      ASSERT_TRUE(replay->KeyedStateBackend::RestoreSnapshot(*snap).ok());
    }
    for (LsmBackend* b : {ingest.get(), replay.get()}) {
      ASSERT_TRUE(b->DropKeyGroups(0, 2).ok());
      ASSERT_TRUE(b->DropKeyGroups(6, kMaxParallelism).ok());
    }
    ExpectSameState(ingest.get(), replay.get(), "rescale");
  }
}

// LsmBackend::PinKeyGroups serializes a snapshot in steps while the backend
// keeps taking writes, flushes, compactions, ingesting restores and drops.
// Each finished snapshot must be byte-identical to SnapshotKeyGroups taken
// at its pin, for full and partial key-group ranges.
class PinnedSnapshotTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PinnedSnapshotTest, StepsMatchSnapshotTakenAtThePin) {
  MemEnv env;
  auto opened = LsmBackend::Open(
      test_util::SmallLsmOptions(&env, "/pinned", 1024), kMaxParallelism);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<LsmBackend> lsm = std::move(*opened);
  Rng rng(GetParam());
  auto write = [&] {
    const uint64_t key = rng.NextBounded(60) * 0x9e3779b97f4a7c15ull;
    const auto ns = static_cast<StateNamespace>(rng.NextBounded(3));
    const std::string uk(rng.NextBounded(3), 'u');
    if (rng.NextBool(0.2)) return lsm->Remove(ns, key, uk);
    return lsm->Put(ns, key, uk, "v" + std::to_string(rng.NextU64() % 1000));
  };
  for (int i = 0; i < 400; ++i) ASSERT_TRUE(write().ok());

  struct Pinned {
    std::unique_ptr<KeyedStateBackend::PendingSnapshot> pending;
    std::string want;
    bool full = false;
  };
  std::vector<Pinned> pinned;
  std::vector<std::string> finished;  // restored back in now and then
  int partial = 0, steps_between_ops = 0;
  for (int op = 0; op < 4000; ++op) {
    if (pinned.size() < 2 && rng.NextBool(0.05)) {
      uint32_t from = 0, to = kMaxParallelism;
      if (rng.NextBool(0.5)) {
        from = static_cast<uint32_t>(rng.NextBounded(kMaxParallelism));
        to = from + 1 + static_cast<uint32_t>(rng.NextBounded(kMaxParallelism - from));
      }
      Pinned p;
      p.pending = lsm->PinKeyGroups(from, to);
      auto want = lsm->SnapshotKeyGroups(from, to);
      ASSERT_TRUE(want.ok());
      p.want = std::move(*want);
      p.full = from == 0 && to == kMaxParallelism;
      pinned.push_back(std::move(p));
    }
    const uint64_t roll = rng.NextBounded(100);
    if (roll < 80) {
      ASSERT_TRUE(write().ok());
    } else if (roll < 87) {
      ASSERT_TRUE(lsm->tree()->Flush().ok());
    } else if (roll < 91) {
      ASSERT_TRUE(lsm->tree()->CompactAll().ok());
    } else if (roll < 96) {
      if (!finished.empty()) {
        ASSERT_TRUE(
            lsm->RestoreSnapshot(finished[rng.NextBounded(finished.size())]).ok());
      }
    } else {
      const auto kg = static_cast<uint32_t>(rng.NextBounded(kMaxParallelism));
      ASSERT_TRUE(lsm->DropKeyGroups(kg, kg + 1).ok());
    }
    for (auto it = pinned.begin(); it != pinned.end();) {
      if (!rng.NextBool(0.3)) {
        ++it;
        continue;
      }
      ++steps_between_ops;
      auto done = it->pending->Advance(
          1 + rng.NextBounded(rng.NextBool(0.8) ? 8 : 300));
      ASSERT_TRUE(done.ok()) << done.status().ToString();
      if (!*done) {
        ++it;
        continue;
      }
      const std::string got = it->pending->Take();
      ASSERT_EQ(got, it->want) << "at op " << op << (it->full ? ", full" : "");
      partial += !it->full;
      finished.push_back(got);
      it = pinned.erase(it);
    }
  }
  EXPECT_GT(finished.size(), 40u);
  EXPECT_GT(partial, 10);
  EXPECT_GT(steps_between_ops, static_cast<int>(finished.size()) * 3);
}

TEST(PinnedSnapshotReleaseTest, PinGoesWithTheCompletedOrDroppedSnapshot) {
  for (const bool complete : {true, false}) {
    SCOPED_TRACE(complete ? "completed" : "dropped");
    MemEnv env;
    auto opened = LsmBackend::Open(
        test_util::SmallLsmOptions(&env, "/release", 1024), kMaxParallelism);
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<LsmBackend> lsm = std::move(*opened);
    LsmTree* tree = lsm->tree();
    ASSERT_TRUE(lsm->Put(0, 42, "", "old").ok());
    // The new version carries the old one's file into the compaction, which
    // keeps a superseded version only for a pin. Each version is one entry.
    auto overwrite_and_compact = [&] {
      EXPECT_TRUE(lsm->Put(0, 42, "", "new").ok());
      EXPECT_TRUE(tree->CompactAll().ok());
      return tree->GetStats().entries;
    };

    auto pending = lsm->PinKeyGroups(0, kMaxParallelism);
    EXPECT_EQ(overwrite_and_compact(), 2u);  // "old" kept for the pin
    if (complete) {
      auto done = pending->Advance(SIZE_MAX);
      ASSERT_TRUE(done.ok() && *done);
      const std::vector<Entry> want = {{0, 42, "", "old"}};
      EXPECT_EQ(DecodeSnapshot(pending->Take()), want);
    } else {
      pending.reset();
    }
    EXPECT_EQ(overwrite_and_compact(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PinnedSnapshotTest,
                         ::testing::Values(1, 2, 3, 4, 424242),
                         [](const auto& info) {
                           return std::to_string(info.param);
                         });

INSTANTIATE_TEST_SUITE_P(Seeds, IngestRestoreTest,
                         ::testing::Values(1, 2, 3, 4, 424242),
                         [](const auto& info) {
                           return std::to_string(info.param);
                         });

INSTANTIATE_TEST_SUITE_P(Seeds, BackendDiffTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 424242),
                         [](const auto& info) {
                           return std::to_string(info.param);
                         });

}  // namespace
}  // namespace evo::state
