// Tests for the keyed-state layer: backends (mem, LSM, external), the typed
// state API, TTL expiration, queryable state, schema versioning, key-group
// snapshots/migration, and the synopses.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "state/backend.h"
#include "state/env.h"
#include "state/external_backend.h"
#include "state/lsm_backend.h"
#include "state/mem_backend.h"
#include "state/queryable.h"
#include "state/state_api.h"
#include "state/synopses.h"
#include "state/ttl.h"
#include "state/versioning.h"
#include "test_util.h"

namespace evo::state {
namespace {

// Shared behavioural suite run against every backend implementation.
class BackendTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "mem") {
      backend_ = std::make_unique<MemBackend>();
    } else if (GetParam() == "lsm") {
      env_ = std::make_unique<MemEnv>();
      auto b = LsmBackend::Open(
          test_util::SmallLsmOptions(env_.get(), "/lsm", 2048));
      ASSERT_TRUE(b.ok());
      backend_ = std::move(*b);
    } else {
      ExternalStoreModel model;
      model.virtual_time = true;  // don't sleep in tests
      backend_ = std::make_unique<ExternalBackend>(model);
    }
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<KeyedStateBackend> backend_;
};

TEST_P(BackendTest, PutGetRemove) {
  ASSERT_TRUE(backend_->Put(1, 42, "uk", "value").ok());
  auto got = backend_->Get(1, 42, "uk");
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ(**got, "value");
  ASSERT_TRUE(backend_->Remove(1, 42, "uk").ok());
  auto gone = backend_->Get(1, 42, "uk");
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(gone->has_value());
}

TEST_P(BackendTest, NamespacesAreIsolated) {
  ASSERT_TRUE(backend_->Put(1, 7, "", "ns1").ok());
  ASSERT_TRUE(backend_->Put(2, 7, "", "ns2").ok());
  auto a = backend_->Get(1, 7, "");
  auto b = backend_->Get(2, 7, "");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(**a, "ns1");
  EXPECT_EQ(**b, "ns2");
}

TEST_P(BackendTest, IterateKeyOrderedByUserKey) {
  ASSERT_TRUE(backend_->Put(3, 9, "b", "2").ok());
  ASSERT_TRUE(backend_->Put(3, 9, "a", "1").ok());
  ASSERT_TRUE(backend_->Put(3, 9, "c", "3").ok());
  ASSERT_TRUE(backend_->Put(3, 10, "a", "other-key").ok());
  std::vector<std::string> seen;
  ASSERT_TRUE(backend_
                  ->IterateKey(3, 9,
                               [&](std::string_view uk, std::string_view v) {
                                 seen.push_back(std::string(uk) + "=" +
                                                std::string(v));
                               })
                  .ok());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], "a=1");
  EXPECT_EQ(seen[1], "b=2");
  EXPECT_EQ(seen[2], "c=3");
}

TEST_P(BackendTest, SnapshotRestoreRoundTripAcrossBackendTypes) {
  Rng rng(3);
  std::map<uint64_t, std::string> model;
  for (int i = 0; i < 200; ++i) {
    uint64_t key = rng.NextU64();
    std::string v = "v" + std::to_string(i);
    model[key] = v;
    ASSERT_TRUE(backend_->Put(5, key, "", v).ok());
  }
  auto snapshot = backend_->SnapshotAll();
  ASSERT_TRUE(snapshot.ok());

  // Restore into a *mem* backend regardless of source type: format is shared.
  MemBackend restored;
  ASSERT_TRUE(restored.RestoreSnapshot(*snapshot).ok());
  for (const auto& [key, v] : model) {
    auto got = restored.Get(5, key, "");
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->has_value());
    EXPECT_EQ(**got, v);
  }
}

TEST_P(BackendTest, KeyGroupRangeSnapshotSplitsState) {
  const uint32_t max_par = backend_->max_parallelism();
  Rng rng(4);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 300; ++i) {
    uint64_t key = rng.NextU64();
    keys.push_back(key);
    ASSERT_TRUE(backend_->Put(1, key, "", "x").ok());
  }
  uint32_t mid = max_par / 2;
  auto lower = backend_->SnapshotKeyGroups(0, mid);
  auto upper = backend_->SnapshotKeyGroups(mid, max_par);
  ASSERT_TRUE(lower.ok() && upper.ok());

  MemBackend left, right;
  ASSERT_TRUE(left.RestoreSnapshot(*lower).ok());
  ASSERT_TRUE(right.RestoreSnapshot(*upper).ok());
  for (uint64_t key : keys) {
    bool in_lower = KeyGroup::OfHash(key, max_par) < mid;
    auto l = left.Get(1, key, "");
    auto r = right.Get(1, key, "");
    ASSERT_TRUE(l.ok() && r.ok());
    EXPECT_EQ(l->has_value(), in_lower) << key;
    EXPECT_EQ(r->has_value(), !in_lower) << key;
  }
}

TEST_P(BackendTest, DropKeyGroupsRemovesOnlyThatRange) {
  const uint32_t max_par = backend_->max_parallelism();
  Rng rng(9);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 200; ++i) {
    uint64_t key = rng.NextU64();
    keys.push_back(key);
    ASSERT_TRUE(backend_->Put(1, key, "", "x").ok());
  }
  uint32_t mid = max_par / 2;
  ASSERT_TRUE(backend_->DropKeyGroups(0, mid).ok());
  for (uint64_t key : keys) {
    bool dropped = KeyGroup::OfHash(key, max_par) < mid;
    auto got = backend_->Get(1, key, "");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->has_value(), !dropped);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendTest,
                         ::testing::Values("mem", "lsm", "external"),
                         [](const auto& info) { return info.param; });

TEST(LsmBackendTest, MemoryGaugesReportHeldBytes) {
  // state_memtable_bytes is the memtable's arena, state_sst_bytes the file
  // buffers the SST readers hold, and the entry count is exact.
  MemEnv env;
  auto opened = LsmBackend::Open(
      test_util::SmallLsmOptions(&env, "/lsm", size_t{1} << 20));
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<LsmBackend> backend = std::move(*opened);
  MetricsRegistry registry;
  backend->AttachMetrics(&registry, "t");
  const std::string labels = "{backend=\"lsm\",scope=\"t\"}";
  Gauge* memtable = registry.GetGauge("state_memtable_bytes" + labels);
  Gauge* sst = registry.GetGauge("state_sst_bytes" + labels);
  auto sst_file_bytes = [&] {
    auto names = env.ListDir("/lsm");
    EXPECT_TRUE(names.ok());
    double bytes = 0;
    for (const std::string& name : *names) {
      if (name.size() < 4 || name.compare(name.size() - 4, 4, ".sst") != 0) {
        continue;
      }
      auto file = env.ReadFileToString("/lsm/" + name);
      EXPECT_TRUE(file.ok());
      bytes += static_cast<double>(file->size());
    }
    return bytes;
  };

  const std::string value(100, 'v');
  double added = 0;
  for (uint64_t key = 0; key < 500; ++key) {
    ASSERT_TRUE(backend->Put(1, key, "", value).ok());
    added += 16 + static_cast<double>(value.size());  // composite key + value
  }
  backend->PublishMetrics();
  EXPECT_GE(memtable->Value(), added);
  const double full_memtable = memtable->Value();
  EXPECT_EQ(sst->Value(), 0);
  EXPECT_EQ(backend->ApproxEntryCount(), 500u);

  ASSERT_TRUE(backend->tree()->Flush().ok());
  backend->PublishMetrics();
  EXPECT_GT(sst->Value(), 0);
  EXPECT_EQ(sst->Value(), sst_file_bytes());
  EXPECT_LT(memtable->Value(), full_memtable);  // a fresh memtable's arena
  EXPECT_EQ(backend->ApproxEntryCount(), 500u);

  for (uint64_t key = 0; key < 100; ++key) {
    ASSERT_TRUE(backend->Put(1, key, "", "new").ok());
  }
  ASSERT_TRUE(backend->tree()->CompactAll().ok());
  backend->PublishMetrics();
  EXPECT_EQ(sst->Value(), sst_file_bytes());
  EXPECT_EQ(backend->ApproxEntryCount(), 500u);  // superseded versions dropped
}

// ---------------------------------------------------------------------------
// Typed state API
// ---------------------------------------------------------------------------

TEST(StateApiTest, ValueStatePerKey) {
  MemBackend backend;
  StateContext ctx(&backend);
  ValueState<int64_t> count(&ctx, "count");

  ctx.SetCurrentKey(1);
  ASSERT_TRUE(count.Put(10).ok());
  ctx.SetCurrentKey(2);
  ASSERT_TRUE(count.Put(20).ok());

  ctx.SetCurrentKey(1);
  auto v1 = count.Get();
  ASSERT_TRUE(v1.ok() && v1->has_value());
  EXPECT_EQ(**v1, 10);
  ctx.SetCurrentKey(2);
  EXPECT_EQ(*count.GetOr(0), 20);
  ctx.SetCurrentKey(3);
  EXPECT_EQ(*count.GetOr(-1), -1);
}

TEST(StateApiTest, ListStateOrderedAppend) {
  MemBackend backend;
  StateContext ctx(&backend);
  ListState<std::string> events(&ctx, "events");
  ctx.SetCurrentKey(5);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(events.Add("e" + std::to_string(i)).ok());
  }
  auto got = events.Get();
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 300u);
  EXPECT_EQ((*got)[0], "e0");
  EXPECT_EQ((*got)[299], "e299");
  ASSERT_TRUE(events.Clear().ok());
  auto empty = events.Get();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(StateApiTest, MapStateOperations) {
  MemBackend backend;
  StateContext ctx(&backend);
  MapState<std::string, int64_t> scores(&ctx, "scores");
  ctx.SetCurrentKey(8);
  ASSERT_TRUE(scores.Put("alice", 3).ok());
  ASSERT_TRUE(scores.Put("bob", 5).ok());
  auto alice = scores.Get("alice");
  ASSERT_TRUE(alice.ok() && alice->has_value());
  EXPECT_EQ(**alice, 3);
  ASSERT_TRUE(scores.Remove("alice").ok());
  auto gone = scores.Get("alice");
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(gone->has_value());
  int visits = 0;
  ASSERT_TRUE(scores.ForEach([&](const std::string& k, int64_t v) {
                      EXPECT_EQ(k, "bob");
                      EXPECT_EQ(v, 5);
                      ++visits;
                    }).ok());
  EXPECT_EQ(visits, 1);
}

TEST(StateApiTest, ReducingStateFolds) {
  MemBackend backend;
  StateContext ctx(&backend);
  ReducingState<int64_t> sum(&ctx, "sum",
                             [](const int64_t& a, const int64_t& b) {
                               return a + b;
                             });
  ctx.SetCurrentKey(1);
  for (int i = 1; i <= 10; ++i) ASSERT_TRUE(sum.Add(i).ok());
  auto total = sum.Get();
  ASSERT_TRUE(total.ok() && total->has_value());
  EXPECT_EQ(**total, 55);
}

TEST(StateApiTest, TtlExpiresValues) {
  MemBackend backend;
  StateContext ctx(&backend);
  ManualClock clock(0);
  TtlValueState<std::string> session(&ctx, "session", /*ttl_ms=*/1000, &clock);
  ctx.SetCurrentKey(1);
  ASSERT_TRUE(session.Put("alive").ok());
  clock.AdvanceMs(500);
  auto fresh = session.Get();
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh->has_value());
  clock.AdvanceMs(600);  // now 1100 > ttl
  auto expired = session.Get();
  ASSERT_TRUE(expired.ok());
  EXPECT_FALSE(expired->has_value());
  // The expired entry was physically removed.
  EXPECT_EQ(backend.ApproxEntryCount(), 0u);
}

TEST(StateApiTest, TtlReadRefreshMode) {
  MemBackend backend;
  StateContext ctx(&backend);
  ManualClock clock(0);
  TtlValueState<int64_t> st(&ctx, "v", 1000, &clock,
                            TtlUpdateType::kOnReadAndWrite);
  ctx.SetCurrentKey(1);
  ASSERT_TRUE(st.Put(1).ok());
  clock.AdvanceMs(800);
  ASSERT_TRUE(st.Get().ok());  // refreshes
  clock.AdvanceMs(800);        // 1600 total, but only 800 since refresh
  auto still = st.Get();
  ASSERT_TRUE(still.ok());
  EXPECT_TRUE(still->has_value());
}

// ---------------------------------------------------------------------------
// Queryable state
// ---------------------------------------------------------------------------

TEST(QueryableTest, PublishQueryUnpublish) {
  MemBackend backend;
  StateContext ctx(&backend);
  ValueState<int64_t> count(&ctx, "count");
  ctx.SetCurrentKey(42);
  ASSERT_TRUE(count.Put(99).ok());

  QueryableStateRegistry registry;
  ASSERT_TRUE(registry.Publish("job/count", &backend, 0).ok());
  EXPECT_EQ(registry.Publish("job/count", &backend, 0).code(),
            StatusCode::kAlreadyExists);

  auto got = registry.Query("job/count", 42);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  auto v = DeserializeFromString<int64_t>(**got);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 99);

  EXPECT_EQ(registry.Query("nope", 1).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(registry.Unpublish("job/count").ok());
  EXPECT_EQ(registry.Query("job/count", 42).status().code(),
            StatusCode::kNotFound);
}

TEST(QueryableTest, QueryAllScansEveryKey) {
  MemBackend backend;
  StateContext ctx(&backend);
  ValueState<int64_t> count(&ctx, "count");
  for (uint64_t k = 1; k <= 5; ++k) {
    ctx.SetCurrentKey(k);
    ASSERT_TRUE(count.Put(static_cast<int64_t>(k * 10)).ok());
  }
  QueryableStateRegistry registry;
  ASSERT_TRUE(registry.Publish("counts", &backend, 0).ok());
  std::set<uint64_t> keys;
  ASSERT_TRUE(registry
                  .QueryAll("counts",
                            [&](uint64_t key, std::string_view,
                                std::string_view) { keys.insert(key); })
                  .ok());
  EXPECT_EQ(keys.size(), 5u);
}

// ---------------------------------------------------------------------------
// Schema versioning
// ---------------------------------------------------------------------------

TEST(VersioningTest, LazyUpgradeOnRead) {
  MemBackend backend;
  StateContext ctx(&backend);

  // v0 schema: (count). App evolves to v1: (count, sum) and then
  // v2: (count, sum, label).
  SchemaEvolution schema_v0;
  VersionedValueState st_v0(&ctx, "agg", &schema_v0);
  ctx.SetCurrentKey(1);
  ASSERT_TRUE(st_v0.Put(Value::Tuple(int64_t{4})).ok());

  SchemaEvolution schema_v2;
  ASSERT_TRUE(schema_v2
                  .AddMigration(0,
                                [](const Value& v) {
                                  return Value::Tuple(v.AsList()[0],
                                                      /*sum=*/0.0);
                                })
                  .ok());
  ASSERT_TRUE(schema_v2
                  .AddMigration(1,
                                [](const Value& v) {
                                  ValueList l = v.AsList();
                                  l.emplace_back("migrated");
                                  return Value(std::move(l));
                                })
                  .ok());

  VersionedValueState st_v2(&ctx, "agg", &schema_v2);
  bool migrated = false;
  auto got = st_v2.Get(&migrated);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_TRUE(migrated);
  const ValueList& l = (*got)->AsList();
  ASSERT_EQ(l.size(), 3u);
  EXPECT_EQ(l[0].AsInt(), 4);
  EXPECT_EQ(l[2].AsString(), "migrated");

  // Second read: already upgraded in place.
  auto again = st_v2.Get(&migrated);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(migrated);
}

TEST(VersioningTest, NewerThanAppRejected) {
  MemBackend backend;
  StateContext ctx(&backend);
  SchemaEvolution schema_v1;
  ASSERT_TRUE(schema_v1.AddMigration(0, [](const Value& v) { return v; }).ok());
  VersionedValueState newer(&ctx, "s", &schema_v1);
  ctx.SetCurrentKey(1);
  ASSERT_TRUE(newer.Put(Value(int64_t{1})).ok());  // written at version 1

  SchemaEvolution schema_v0;  // an *older* application
  VersionedValueState older(&ctx, "s", &schema_v0);
  auto got = older.Get();
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
}

TEST(VersioningTest, NonConsecutiveMigrationRejected) {
  SchemaEvolution schema;
  EXPECT_EQ(schema.AddMigration(2, [](const Value& v) { return v; }).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Synopses
// ---------------------------------------------------------------------------

TEST(SynopsesTest, CountMinNeverUnderestimates) {
  CountMinSketch sketch(512, 4);
  Rng rng(2);
  std::map<uint64_t, uint64_t> truth;
  for (int i = 0; i < 20000; ++i) {
    uint64_t item = rng.NextBounded(200);
    sketch.Add(item);
    ++truth[item];
  }
  for (const auto& [item, count] : truth) {
    EXPECT_GE(sketch.Estimate(item), count);
  }
}

TEST(SynopsesTest, CountMinAccurateForHeavyHitters) {
  CountMinSketch sketch(2048, 4);
  for (int i = 0; i < 10000; ++i) sketch.Add(7);
  for (int i = 0; i < 1000; ++i) sketch.Add(static_cast<uint64_t>(100 + i));
  uint64_t est = sketch.Estimate(7);
  EXPECT_GE(est, 10000u);
  EXPECT_LE(est, 10100u);
}

TEST(SynopsesTest, ReservoirIsUniformish) {
  ReservoirSample<int> reservoir(100, 5);
  for (int i = 0; i < 10000; ++i) reservoir.Add(i);
  ASSERT_EQ(reservoir.Sample().size(), 100u);
  EXPECT_EQ(reservoir.SeenCount(), 10000u);
  // Mean of a uniform sample of [0,10000) should be near 5000.
  double sum = 0;
  for (int v : reservoir.Sample()) sum += v;
  EXPECT_NEAR(sum / 100, 5000, 1500);
}

TEST(SynopsesTest, DgimApproximatesWindowCount) {
  const uint64_t kWindow = 1000;
  DgimCounter dgim(kWindow, 2);
  Rng rng(6);
  std::deque<bool> window;
  uint64_t exact = 0;
  for (int i = 0; i < 20000; ++i) {
    bool bit = rng.NextBool(0.3);
    dgim.Add(bit);
    window.push_back(bit);
    exact += bit;
    if (window.size() > kWindow) {
      exact -= window.front();
      window.pop_front();
    }
  }
  double est = static_cast<double>(dgim.Estimate());
  EXPECT_NEAR(est, static_cast<double>(exact), 0.5 * exact + 10);
  // Space must be logarithmic-ish, not linear in the window.
  EXPECT_LT(dgim.BucketCount(), 64u);
}

TEST(SynopsesTest, HyperLogLogWithinExpectedError) {
  HyperLogLog hll(12);
  for (uint64_t i = 0; i < 100000; ++i) hll.Add(i);
  double est = hll.Estimate();
  EXPECT_NEAR(est, 100000, 0.05 * 100000);
}

TEST(SynopsesTest, HyperLogLogDuplicatesDontInflate) {
  HyperLogLog hll(12);
  for (int rep = 0; rep < 100; ++rep) {
    for (uint64_t i = 0; i < 100; ++i) hll.Add(i);
  }
  EXPECT_NEAR(hll.Estimate(), 100, 15);
}

}  // namespace
}  // namespace evo::state
