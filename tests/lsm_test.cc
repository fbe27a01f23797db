// Tests for the storage substrate: Env (Posix + Mem, crash simulation), WAL
// framing and torn-tail recovery, bloom filters, memtable versioning, SST
// build/read, and the LSM tree end to end (flush, compaction, pinned scans,
// crash recovery, tombstone GC).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "state/bloom.h"
#include "state/env.h"
#include "state/lsm_tree.h"
#include "state/memtable.h"
#include "state/sstable.h"
#include "state/wal.h"
#include "test_util.h"

namespace evo::state {
namespace {

// ---------------------------------------------------------------------------
// Env
// ---------------------------------------------------------------------------

TEST(MemEnvTest, WriteReadRoundTrip) {
  MemEnv env;
  ASSERT_TRUE(env.WriteStringToFile("/d/a.txt", "hello").ok());
  auto got = env.ReadFileToString("/d/a.txt");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "hello");
  EXPECT_TRUE(env.FileExists("/d/a.txt"));
  EXPECT_FALSE(env.FileExists("/d/b.txt"));
}

TEST(MemEnvTest, ListDirOnlyDirectChildren) {
  MemEnv env;
  ASSERT_TRUE(env.WriteStringToFile("/d/a", "1").ok());
  ASSERT_TRUE(env.WriteStringToFile("/d/b", "2").ok());
  ASSERT_TRUE(env.WriteStringToFile("/d/sub/c", "3").ok());
  auto names = env.ListDir("/d");
  ASSERT_TRUE(names.ok());
  std::set<std::string> got(names->begin(), names->end());
  EXPECT_EQ(got, (std::set<std::string>{"a", "b"}));
}

TEST(MemEnvTest, CrashDiscardsUnsyncedData) {
  MemEnv env;
  auto file = env.NewWritableFile("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("durable").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Append("lost").ok());
  env.SimulateCrash();
  auto got = env.ReadFileToString("/f");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "durable");
}

TEST(MemEnvTest, InjectedWriteErrorsSurface) {
  MemEnv env;
  env.SetInjectWriteErrors(true);
  auto file = env.NewWritableFile("/f");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)->Append("x").code(), StatusCode::kIOError);
}

TEST(PosixEnvTest, RoundTripInTmp) {
  Env* env = Env::Default();
  std::string dir = ::testing::TempDir() + "evostream_env_test";
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  ASSERT_TRUE(env->WriteStringToFile(dir + "/x", "posix").ok());
  auto got = env->ReadFileToString(dir + "/x");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "posix");
  ASSERT_TRUE(env->DeleteFile(dir + "/x").ok());
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

TEST(WalTest, AppendAndReadBack) {
  MemEnv env;
  auto writer = WalWriter::Open(&env, "/wal");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("one").ok());
  ASSERT_TRUE((*writer)->Append("two").ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  auto records = WalReader::ReadAll(&env, "/wal");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0], "one");
  EXPECT_EQ((*records)[1], "two");
}

TEST(WalTest, TornTailStopsAtIntactPrefix) {
  MemEnv env;
  auto writer = WalWriter::Open(&env, "/wal");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("alpha").ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  ASSERT_TRUE((*writer)->Append("beta-unsynced").ok());
  env.SimulateCrash();  // second record torn away (possibly partially)
  auto records = WalReader::ReadAll(&env, "/wal");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0], "alpha");
}

TEST(WalTest, CorruptRecordStopsReplay) {
  MemEnv env;
  {
    auto writer = WalWriter::Open(&env, "/wal");
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("good").ok());
    ASSERT_TRUE((*writer)->Append("willcorrupt").ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  // Flip a payload byte of the second record.
  auto data = env.ReadFileToString("/wal");
  ASSERT_TRUE(data.ok());
  std::string mutated = *data;
  mutated[mutated.size() - 2] ^= 0x01;
  ASSERT_TRUE(env.WriteStringToFile("/wal", mutated).ok());
  auto records = WalReader::ReadAll(&env, "/wal");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0], "good");
}

// ---------------------------------------------------------------------------
// Bloom filter
// ---------------------------------------------------------------------------

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter bloom(1000, 10);
  for (int i = 0; i < 1000; ++i) bloom.Add("key" + std::to_string(i));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bloom.MayContain("key" + std::to_string(i)));
  }
}

TEST(BloomTest, FalsePositiveRateReasonable) {
  BloomFilter bloom(1000, 10);
  for (int i = 0; i < 1000; ++i) bloom.Add("key" + std::to_string(i));
  int fp = 0;
  for (int i = 0; i < 10000; ++i) {
    if (bloom.MayContain("other" + std::to_string(i))) ++fp;
  }
  EXPECT_LT(fp, 300);  // ~1% expected; generous bound
}

TEST(BloomTest, SerdeRoundTrip) {
  BloomFilter bloom(100);
  bloom.Add("x");
  BinaryWriter w;
  bloom.EncodeTo(&w);
  BloomFilter back(1);
  BinaryReader r(w.buffer());
  ASSERT_TRUE(back.DecodeFrom(&r).ok());
  EXPECT_TRUE(back.MayContain("x"));
  EXPECT_FALSE(back.MayContain("definitely-not-there-123456"));
}

TEST(BloomTest, DecodeRejectsWordCountPastTheEnd) {
  // A corrupt word count fails before it sizes an allocation.
  BinaryWriter w;
  w.WriteU32(6);
  w.WriteVarU64(uint64_t{1} << 40);
  w.WriteU64(0);
  BloomFilter back;
  BinaryReader r(w.buffer());
  EXPECT_EQ(back.DecodeFrom(&r).code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// MemTable
// ---------------------------------------------------------------------------

// The (seq, value) of every version of `key` under a cursor, newest first.
template <typename Run>
std::vector<std::pair<uint64_t, std::string>> Versions(const Run& run,
                                                       std::string_view key) {
  std::vector<std::pair<uint64_t, std::string>> out;
  for (auto c = run.Seek(key);
       c.Current() != nullptr && c.Current()->key == key; c.Next()) {
    out.emplace_back(c.Current()->seq, c.Current()->value);
  }
  return out;
}

TEST(MemTableTest, NewestVisibleVersionWins) {
  MemTable mem;
  mem.Add("k", 1, EntryOp::kPut, "v1");
  mem.Add("k", 9, EntryOp::kDelete, "");
  mem.Add("k", 5, EntryOp::kPut, "v5");
  auto newest = mem.Get("k");
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->seq, 9u);
  EXPECT_EQ(newest->op, EntryOp::kDelete);
  // A read pinned at a sequence takes the first version at or below it.
  EXPECT_EQ(Versions(mem, "k"),
            (std::vector<std::pair<uint64_t, std::string>>{
                {9, ""}, {5, "v5"}, {1, "v1"}}));
  EXPECT_FALSE(mem.Get("j").has_value());  // seeks onto "k"
  EXPECT_FALSE(mem.Get("other").has_value());
}

TEST(MemTableTest, OrderedIterationKeyAscSeqDesc) {
  MemTable mem;
  mem.Add("b", 2, EntryOp::kPut, "b2");
  mem.Add("a", 1, EntryOp::kPut, "a1");
  mem.Add("a", 3, EntryOp::kPut, "a3");
  mem.Add("c", 4, EntryOp::kPut, "c4");
  std::vector<std::pair<std::string, uint64_t>> seen;
  for (auto c = mem.Seek(""); c.Current() != nullptr; c.Next()) {
    seen.emplace_back(c.Current()->key, c.Current()->seq);
  }
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], std::make_pair(std::string("a"), uint64_t{3}));
  EXPECT_EQ(seen[1], std::make_pair(std::string("a"), uint64_t{1}));
  EXPECT_EQ(seen[2], std::make_pair(std::string("b"), uint64_t{2}));
  EXPECT_EQ(seen[3], std::make_pair(std::string("c"), uint64_t{4}));
}

TEST(MemTableTest, SeekStartsAtFirstVersionOfFirstKeyAtOrAfter) {
  MemTable mem;
  mem.Add("p/a", 1, EntryOp::kPut, "old");
  mem.Add("p/a", 5, EntryOp::kPut, "new");
  mem.Add("p/b", 10, EntryOp::kPut, "future");
  mem.Add("q/x", 2, EntryOp::kPut, "other-prefix");
  std::vector<std::pair<std::string, uint64_t>> seen;
  for (auto c = mem.Seek("p/"); c.Current() != nullptr; c.Next()) {
    seen.emplace_back(c.Current()->key, c.Current()->seq);
  }
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], std::make_pair(std::string("p/a"), uint64_t{5}));
  EXPECT_EQ(seen[1], std::make_pair(std::string("p/a"), uint64_t{1}));
  EXPECT_EQ(seen[2], std::make_pair(std::string("p/b"), uint64_t{10}));
  EXPECT_EQ(seen[3], std::make_pair(std::string("q/x"), uint64_t{2}));
  auto exact = mem.Seek("p/b");
  ASSERT_NE(exact.Current(), nullptr);
  EXPECT_EQ(exact.Current()->key, "p/b");
  EXPECT_EQ(mem.Seek("r").Current(), nullptr);
}

TEST(MemTableTest, ManyKeysRandomOrderStillSorted) {
  MemTable mem;
  Rng rng(11);
  std::set<std::string> keys;
  for (int i = 0; i < 2000; ++i) {
    std::string k = "k" + std::to_string(rng.NextBounded(100000));
    keys.insert(k);
    mem.Add(k, static_cast<uint64_t>(i + 1), EntryOp::kPut, "v");
  }
  std::string prev;
  bool first = true;
  size_t distinct = 0;
  for (auto c = mem.Seek(""); c.Current() != nullptr; c.Next()) {
    const Entry& e = *c.Current();
    if (first || e.key != prev) {
      ++distinct;
      if (!first) EXPECT_LT(prev, e.key);
      prev = e.key;
      first = false;
    }
  }
  EXPECT_EQ(distinct, keys.size());
}

TEST(MemTableTest, ValueLargerThanAnArenaBlock) {
  MemTable mem;
  const std::string big(200 << 10, 'b');  // arena blocks are 64 KiB
  mem.Add("a", 1, EntryOp::kPut, "small");
  mem.Add("big", 2, EntryOp::kPut, big);
  mem.Add("c", 3, EntryOp::kPut, "small");
  auto got = mem.Get("big");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value, big);
  std::vector<std::string> keys;
  for (auto c = mem.Seek(""); c.Current() != nullptr; c.Next()) {
    keys.emplace_back(c.Current()->key);
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "big", "c"}));
  EXPECT_GE(mem.ArenaBytes(), big.size());
}

TEST(MemTableTest, EmptyKeyAndEmptyValue) {
  MemTable mem;
  mem.Add("", 1, EntryOp::kPut, "");
  mem.Add("k", 2, EntryOp::kPut, "");
  mem.Add("", 3, EntryOp::kPut, "v");
  auto newest = mem.Get("");
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->key, "");
  EXPECT_EQ(newest->value, "v");
  auto empty_value = mem.Get("k");
  ASSERT_TRUE(empty_value.has_value());
  EXPECT_EQ(empty_value->value, "");
  EXPECT_EQ(Versions(mem, ""), (std::vector<std::pair<uint64_t, std::string>>{
                                   {3, "v"}, {1, ""}}));
}

TEST(MemTableTest, ThousandVersionsOfOneKey) {
  MemTable mem;
  Rng rng(3);
  std::vector<uint64_t> seqs;
  for (uint64_t seq = 1; seq <= 1000; ++seq) seqs.push_back(seq);
  for (size_t i = seqs.size(); i > 1; --i) {
    std::swap(seqs[i - 1], seqs[rng.NextBounded(i)]);
  }
  for (uint64_t seq : seqs) {
    mem.Add("k", seq, EntryOp::kPut, "v" + std::to_string(seq));
  }
  auto got = mem.Get("k");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value, "v1000");
  uint64_t expect = 1000;
  for (auto c = mem.Seek("k"); c.Current() != nullptr; c.Next(), --expect) {
    EXPECT_EQ(c.Current()->seq, expect);
    EXPECT_EQ(c.Current()->value, "v" + std::to_string(expect));
  }
  EXPECT_EQ(expect, 0u);
}

TEST(MemTableTest, CursorEntryOutlivesLaterAdds) {
  MemTable mem;
  mem.Add("m", 1, EntryOp::kPut, "middle");
  auto c = mem.Seek("m");
  ASSERT_NE(c.Current(), nullptr);
  const Entry seen = *c.Current();
  for (int i = 0; i < 10000; ++i) {
    mem.Add("k" + std::to_string(i), static_cast<uint64_t>(i + 2),
            EntryOp::kPut, std::string(static_cast<size_t>(i % 97), 'x'));
  }
  EXPECT_EQ(seen.key, "m");
  EXPECT_EQ(seen.value, "middle");
  ASSERT_NE(c.Current(), nullptr);
  EXPECT_EQ(c.Current()->value, "middle");
  c.Next();
  EXPECT_EQ(c.Current(), nullptr);  // every later key sorts before "m"
  EXPECT_EQ(mem.EntryCount(), 10001u);
}

// ---------------------------------------------------------------------------
// SSTable
// ---------------------------------------------------------------------------

TEST(SSTableTest, BuildAndPointLookup) {
  MemEnv env;
  SSTableBuilder builder(&env, "/t.sst", 128);
  for (int i = 0; i < 100; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%04d", i);
    ASSERT_TRUE(
        builder.Add(Entry{buf, static_cast<uint64_t>(i + 1), EntryOp::kPut,
                          "val" + std::to_string(i)})
            .ok());
  }
  ASSERT_TRUE(builder.Finish().ok());

  auto reader = SSTableReader::Open(&env, "/t.sst");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->entry_count(), 100u);
  auto hit = (*reader)->Get("key0042");
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit->has_value());
  EXPECT_EQ((*hit)->value, "val42");
  auto miss = (*reader)->Get("key9999");
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->has_value());
}

TEST(SSTableTest, SnapshotVisibility) {
  MemEnv env;
  SSTableBuilder builder(&env, "/t.sst");
  ASSERT_TRUE(builder.Add(Entry{"k", 10, EntryOp::kPut, "new"}).ok());
  ASSERT_TRUE(builder.Add(Entry{"k", 5, EntryOp::kPut, "old"}).ok());
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = SSTableReader::Open(&env, "/t.sst");
  ASSERT_TRUE(reader.ok());
  auto newest = (*reader)->Get("k");
  ASSERT_TRUE(newest.ok() && newest->has_value());
  EXPECT_EQ((*newest)->value, "new");
  // A read pinned at a sequence takes the first version at or below it.
  EXPECT_EQ(Versions(**reader, "k"),
            (std::vector<std::pair<uint64_t, std::string>>{{10, "new"},
                                                           {5, "old"}}));
  auto absent = (*reader)->Get("j");  // seeks onto "k"
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(absent->has_value());
}

TEST(SSTableTest, NewestVersionFoundAcrossIndexStripeBoundary) {
  // Regression: many versions of one key span a sparse-index stripe
  // boundary; the point lookup must start early enough to see the newest
  // version, not the first version of the later stripe.
  MemEnv env;
  SSTableBuilder builder(&env, "/t.sst");
  // Fill most of the first stripe with smaller keys...
  for (int i = 0; i < 14; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "a%02d", i);
    ASSERT_TRUE(builder.Add(Entry{buf, 1, EntryOp::kPut, "x"}).ok());
  }
  // ...then 40 versions of "hot" crossing several stripe boundaries
  // (kIndexInterval = 16), newest (highest seq) first.
  for (int v = 40; v >= 1; --v) {
    ASSERT_TRUE(builder
                    .Add(Entry{"hot", static_cast<uint64_t>(v), EntryOp::kPut,
                               "v" + std::to_string(v)})
                    .ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = SSTableReader::Open(&env, "/t.sst");
  ASSERT_TRUE(reader.ok());
  auto newest = (*reader)->Get("hot");
  ASSERT_TRUE(newest.ok() && newest->has_value());
  EXPECT_EQ((*newest)->value, "v40");
  // And a cursor walks the whole chain across stripes, newest first.
  const auto versions = Versions(**reader, "hot");
  ASSERT_EQ(versions.size(), 40u);
  for (uint64_t v = 40; v >= 1; --v) {
    EXPECT_EQ(versions[40 - v], std::make_pair(v, "v" + std::to_string(v)));
  }
}

TEST(SSTableTest, OutOfOrderAddRejected) {
  MemEnv env;
  SSTableBuilder builder(&env, "/t.sst");
  ASSERT_TRUE(builder.Add(Entry{"b", 1, EntryOp::kPut, "x"}).ok());
  EXPECT_EQ(builder.Add(Entry{"a", 2, EntryOp::kPut, "y"}).code(),
            StatusCode::kInvalidArgument);
}

TEST(SSTableTest, CorruptDataDetectedOnOpen) {
  MemEnv env;
  SSTableBuilder builder(&env, "/t.sst");
  ASSERT_TRUE(builder.Add(Entry{"k", 1, EntryOp::kPut, "value"}).ok());
  ASSERT_TRUE(builder.Finish().ok());
  auto data = env.ReadFileToString("/t.sst");
  ASSERT_TRUE(data.ok());
  std::string mutated = *data;
  mutated[2] ^= 0xff;  // flip a data byte
  ASSERT_TRUE(env.WriteStringToFile("/t.sst", mutated).ok());
  auto reader = SSTableReader::Open(&env, "/t.sst");
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST(SSTableTest, CorruptBloomOrIndexDetectedOnOpen) {
  // The footer crc covers the bloom and index blocks too: a flipped byte in
  // either fails the open, rather than a filter that turns present keys away
  // or an index that misplaces a seek.
  MemEnv env;
  SSTableBuilder builder(&env, "/t.sst", 1000);
  char buf[16];
  for (int i = 0; i < 1000; ++i) {
    std::snprintf(buf, sizeof(buf), "key%04d", i);
    ASSERT_TRUE(builder.Add(Entry{buf, 1, EntryOp::kPut, "v"}).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto data = env.ReadFileToString("/t.sst");
  ASSERT_TRUE(data.ok());
  const std::string file = *data;
  // The footer is 48 bytes and starts with u64 bloom_off, u64 index_off.
  uint64_t bloom_off = 0, index_off = 0;
  std::memcpy(&bloom_off, file.data() + file.size() - 48, 8);
  std::memcpy(&index_off, file.data() + file.size() - 40, 8);
  ASSERT_LT(bloom_off + 16, index_off);
  // A bloom word (past the u32 probe count and the word-count varint), then
  // the first index key's first byte (past the stripe count and key length).
  for (const uint64_t at : {bloom_off + 12, index_off + 2}) {
    SCOPED_TRACE(at == index_off + 2 ? "index" : "bloom");
    std::string mutated = file;
    mutated[at] ^= 0x01;
    ASSERT_TRUE(env.WriteStringToFile("/t.sst", mutated).ok());
    auto reader = SSTableReader::Open(&env, "/t.sst");
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
  }
}

TEST(SSTableTest, SeekLandsOnNewestVersionOfFirstKeyAtOrAfter) {
  // Even keys "k000".."k098", each with versions 2 (newest) and 1, so the
  // 100 entries span several index stripes (kIndexInterval = 16) and some
  // keys straddle a stripe boundary.
  MemEnv env;
  SSTableBuilder builder(&env, "/t.sst");
  char buf[8];
  for (int i = 0; i < 100; i += 2) {
    std::snprintf(buf, sizeof(buf), "k%03d", i);
    for (uint64_t seq : {2, 1}) {
      ASSERT_TRUE(builder.Add(Entry{buf, seq, EntryOp::kPut, "v"}).ok());
    }
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = SSTableReader::Open(&env, "/t.sst");
  ASSERT_TRUE(reader.ok());
  for (int target = 0; target < 99; ++target) {
    std::snprintf(buf, sizeof(buf), "k%03d", target);
    auto c = (*reader)->Seek(buf);
    ASSERT_NE(c.Current(), nullptr) << buf;
    std::snprintf(buf, sizeof(buf), "k%03d", target + target % 2);
    EXPECT_EQ(c.Current()->key, buf);
    EXPECT_EQ(c.Current()->seq, 2u) << buf;
  }
  auto before = (*reader)->Seek("a");
  ASSERT_NE(before.Current(), nullptr);
  EXPECT_EQ(before.Current()->key, "k000");
  auto past = (*reader)->Seek("k099");
  EXPECT_EQ(past.Current(), nullptr);
  EXPECT_TRUE(past.status().ok());
}

// ---------------------------------------------------------------------------
// LSM tree
// ---------------------------------------------------------------------------

LsmOptions SmallLsm(Env* env, const std::string& dir) {
  // Small memtable flushes early to exercise SST paths.
  return test_util::SmallLsmOptions(env, dir);
}

using Rows = std::vector<std::pair<std::string, std::string>>;

// Steps `scan` to its end `keys_per_step` keys at a time, calling `between`
// after every step that left it unfinished; returns the rows it visited.
Rows StepToEnd(LsmTree::PinnedScan* scan, size_t keys_per_step,
               const std::function<void()>& between) {
  Rows rows;
  while (true) {
    auto done = scan->Step(keys_per_step, [&](std::string_view k,
                                              std::string_view v) {
      rows.emplace_back(k, v);
    });
    EXPECT_TRUE(done.ok()) << done.status().ToString();
    if (!done.ok() || *done) return rows;
    between();
  }
}

TEST(LsmTest, PutGetDelete) {
  MemEnv env;
  auto tree = LsmTree::Open(SmallLsm(&env, "/db"));
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->Put("a", "1").ok());
  ASSERT_TRUE((*tree)->Put("b", "2").ok());
  auto a = (*tree)->Get("a");
  ASSERT_TRUE(a.ok() && a->has_value());
  EXPECT_EQ(**a, "1");
  ASSERT_TRUE((*tree)->Delete("a").ok());
  auto gone = (*tree)->Get("a");
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(gone->has_value());
  auto b = (*tree)->Get("b");
  ASSERT_TRUE(b.ok() && b->has_value());
}

TEST(LsmTest, ReadsAcrossFlushAndCompaction) {
  MemEnv env;
  auto tree = LsmTree::Open(SmallLsm(&env, "/db"));
  ASSERT_TRUE(tree.ok());
  std::map<std::string, std::string> model;
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    std::string k = "key" + std::to_string(rng.NextBounded(500));
    std::string v = "v" + std::to_string(i);
    ASSERT_TRUE((*tree)->Put(k, v).ok());
    model[k] = v;
    if (i % 617 == 0) {
      std::string doomed = "key" + std::to_string(rng.NextBounded(500));
      ASSERT_TRUE((*tree)->Delete(doomed).ok());
      model.erase(doomed);
    }
  }
  LsmStats stats = (*tree)->GetStats();
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GT(stats.compactions, 0u);
  for (const auto& [k, v] : model) {
    auto got = (*tree)->Get(k);
    ASSERT_TRUE(got.ok()) << k;
    ASSERT_TRUE(got->has_value()) << k;
    EXPECT_EQ(**got, v) << k;
  }
}

TEST(LsmTest, ScanPrefixMergesLevelsNewestWins) {
  MemEnv env;
  auto tree = LsmTree::Open(SmallLsm(&env, "/db"));
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->Put("p/1", "old").ok());
  ASSERT_TRUE((*tree)->Flush().ok());
  ASSERT_TRUE((*tree)->Put("p/1", "new").ok());
  ASSERT_TRUE((*tree)->Put("p/2", "two").ok());
  ASSERT_TRUE((*tree)->Put("q/3", "other").ok());
  ASSERT_TRUE((*tree)->Delete("p/2").ok());
  std::map<std::string, std::string> got;
  ASSERT_TRUE((*tree)
                  ->ScanPrefix("p/",
                               [&](std::string_view k, std::string_view v) {
                                 got[std::string(k)] = std::string(v);
                               })
                  .ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got["p/1"], "new");
}

TEST(LsmTest, SnapshotIsolation) {
  MemEnv env;
  auto tree = LsmTree::Open(SmallLsm(&env, "/db"));
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->Put("k", "v1").ok());
  LsmTree::PinnedScan scan(tree->get());
  ASSERT_TRUE((*tree)->Put("k", "v2").ok());
  ASSERT_TRUE((*tree)->Put("j", "new").ok());
  ASSERT_TRUE((*tree)->Flush().ok());  // move versions into SSTs too
  EXPECT_EQ(StepToEnd(&scan, 1, [] {}), (Rows{{"k", "v1"}}));
  auto latest = (*tree)->Get("k");
  ASSERT_TRUE(latest.ok() && latest->has_value());
  EXPECT_EQ(**latest, "v2");
}

TEST(LsmTest, CrashRecoveryReplaysWal) {
  MemEnv env;
  {
    auto tree = LsmTree::Open(SmallLsm(&env, "/db"));
    ASSERT_TRUE(tree.ok());
    ASSERT_TRUE((*tree)->Put("persist", "yes").ok());
    ASSERT_TRUE((*tree)->Put("gone", "tmp").ok());
    ASSERT_TRUE((*tree)->Delete("gone").ok());
    // Destructor syncs + closes the WAL.
  }
  auto tree = LsmTree::Open(SmallLsm(&env, "/db"));
  ASSERT_TRUE(tree.ok());
  auto kept = (*tree)->Get("persist");
  ASSERT_TRUE(kept.ok() && kept->has_value());
  EXPECT_EQ(**kept, "yes");
  auto gone = (*tree)->Get("gone");
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(gone->has_value());
}

TEST(LsmTest, CrashLosesOnlyUnsyncedTail) {
  MemEnv env;
  LsmOptions options = SmallLsm(&env, "/db");
  options.sync_wal = true;  // sync every write: nothing may be lost
  {
    auto tree = LsmTree::Open(options);
    ASSERT_TRUE(tree.ok());
    ASSERT_TRUE((*tree)->Put("a", "1").ok());
    ASSERT_TRUE((*tree)->Put("b", "2").ok());
    env.SimulateCrash();  // crash with the tree still "running"
  }
  auto tree = LsmTree::Open(options);
  ASSERT_TRUE(tree.ok());
  auto a = (*tree)->Get("a");
  auto b = (*tree)->Get("b");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->has_value());
  EXPECT_TRUE(b->has_value());
}

TEST(LsmTest, CompactAllDropsTombstonesAtBottom) {
  MemEnv env;
  auto tree = LsmTree::Open(SmallLsm(&env, "/db"));
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*tree)->Put("k" + std::to_string(i), "v").ok());
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*tree)->Delete("k" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*tree)->CompactAll().ok());
  for (int i = 0; i < 100; ++i) {
    auto got = (*tree)->Get("k" + std::to_string(i));
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(got->has_value());
  }
}

TEST(LsmTest, BloomFiltersSkipMissingKeyProbes) {
  MemEnv env;
  auto tree = LsmTree::Open(SmallLsm(&env, "/db"));
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*tree)->Put("present" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE((*tree)->Flush().ok());
  for (int i = 0; i < 2000; ++i) {
    auto got = (*tree)->Get("absent" + std::to_string(i));
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(got->has_value());
  }
  LsmStats stats = (*tree)->GetStats();
  // Misses should rarely touch SST data thanks to blooms.
  EXPECT_LT(stats.sst_reads, 2100u);
}

// Writes even-numbered keys "key0000".."key1998" into one file, then probes
// the 999 odd keys in between: every probe lands inside the file's key range,
// so only the bloom filter can turn it away.
constexpr uint64_t kInRangeProbes = 999;

void ProbeInRangeAbsentKeys(LsmTree* tree, bool compact) {
  char buf[16];
  for (int i = 0; i < 1000; ++i) {
    std::snprintf(buf, sizeof(buf), "key%04d", 2 * i);
    ASSERT_TRUE(tree->Put(buf, "v").ok());
  }
  ASSERT_TRUE(compact ? tree->CompactAll().ok() : tree->Flush().ok());
  for (uint64_t i = 0; i < kInRangeProbes; ++i) {
    std::snprintf(buf, sizeof(buf), "key%04d", static_cast<int>(2 * i + 1));
    auto got = tree->Get(buf);
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(got->has_value()) << buf;
  }
}

TEST(LsmTest, BloomCountersAreDisjointInL0) {
  MemEnv env;
  auto tree = LsmTree::Open(test_util::SmallLsmOptions(&env, "/db", 1 << 20));
  ASSERT_TRUE(tree.ok());
  ProbeInRangeAbsentKeys(tree->get(), /*compact=*/false);
  LsmStats stats = (*tree)->GetStats();
  ASSERT_EQ(stats.files_per_level[0], 1u);
  EXPECT_EQ(stats.sst_reads + stats.bloom_skips, kInRangeProbes);
  EXPECT_GT(stats.bloom_skips, kInRangeProbes * 9 / 10);
}

TEST(LsmTest, BloomCountersCountDeeperLevels) {
  MemEnv env;
  auto tree = LsmTree::Open(test_util::SmallLsmOptions(&env, "/db", 1 << 20));
  ASSERT_TRUE(tree.ok());
  ProbeInRangeAbsentKeys(tree->get(), /*compact=*/true);
  LsmStats stats = (*tree)->GetStats();
  ASSERT_EQ(stats.files_per_level[0], 0u);
  EXPECT_EQ(stats.sst_reads + stats.bloom_skips, kInRangeProbes);
  EXPECT_GT(stats.bloom_skips, kInRangeProbes * 9 / 10);
}

TEST(LsmTest, BottomTombstoneLeavesNoFile) {
  MemEnv env;
  auto tree = LsmTree::Open(SmallLsm(&env, "/db"));
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->Put("k", "v").ok());
  ASSERT_TRUE((*tree)->CompactAll().ok());
  ASSERT_TRUE((*tree)->Delete("k").ok());
  ASSERT_TRUE((*tree)->CompactAll().ok());
  size_t files = 0;
  for (size_t n : (*tree)->GetStats().files_per_level) files += n;
  EXPECT_EQ(files, 0u);
  auto got = (*tree)->Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->has_value());
}

Status IngestRows(LsmTree* tree, const Rows& rows) {
  return tree->Ingest(rows.size(), [&](const LsmTree::IngestPut& put) {
    for (const auto& [key, value] : rows) EVO_RETURN_IF_ERROR(put(key, value));
    return Status::OK();
  });
}

std::optional<std::string> GetOrDie(LsmTree* tree, std::string_view key) {
  auto got = tree->Get(key);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  return got.ok() ? *got : std::nullopt;
}

size_t SstFilesIn(Env* env, const std::string& dir) {
  auto names = env->ListDir(dir);
  EXPECT_TRUE(names.ok());
  size_t n = 0;
  for (const std::string& name : *names) {
    n += name.size() > 4 && name.compare(name.size() - 4, 4, ".sst") == 0;
  }
  return n;
}

TEST(LsmTest, IngestLandsBelowOnlyWhatItCannotShadow) {
  MemEnv env;
  auto opened = LsmTree::Open(SmallLsm(&env, "/db"));
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<LsmTree> tree = std::move(*opened);
  const size_t bottom = tree->GetStats().files_per_level.size() - 1;
  auto files_at = [&](size_t level) {
    return tree->GetStats().files_per_level[level];
  };

  // A fresh tree takes the file at the bottom level, as CompactAll would.
  ASSERT_TRUE(IngestRows(tree.get(), {{"a", "1"}, {"b", "1"}, {"c", "1"}}).ok());
  EXPECT_EQ(files_at(bottom), 1u);
  // Nothing overlaps [x, y] either, at any level.
  ASSERT_TRUE(IngestRows(tree.get(), {{"x", "1"}, {"y", "1"}}).ok());
  EXPECT_EQ(files_at(bottom), 2u);

  // An L0 file overlapping the range keeps the ingested file in L0, newest.
  ASSERT_TRUE(tree->Put("b", "flushed").ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_EQ(files_at(0), 1u);
  {
    LsmTree::PinnedScan pinned(tree.get());
    ASSERT_TRUE(IngestRows(tree.get(), {{"a", "2"}, {"b", "2"}}).ok());
    EXPECT_EQ(files_at(0), 2u);
    EXPECT_EQ(GetOrDie(tree.get(), "b"), "2");
    // The pinned reader sees none of the ingested puts.
    EXPECT_EQ(StepToEnd(&pinned, 2, [] {}),
              (Rows{{"a", "1"}, {"b", "flushed"}, {"c", "1"}, {"x", "1"},
                    {"y", "1"}}));
  }

  // A gap between bottom files takes the new file, kept in key order.
  ASSERT_TRUE(IngestRows(tree.get(), {{"m", "1"}, {"n", "1"}}).ok());
  EXPECT_EQ(files_at(bottom), 3u);
  // Acked means durable: only the ingest's own manifest write lists it.
  auto reopen = [&] {
    tree.reset();
    env.SimulateCrash();
    opened = LsmTree::Open(SmallLsm(&env, "/db"));
    ASSERT_TRUE(opened.ok());
    tree = std::move(*opened);
  };
  reopen();
  EXPECT_EQ(GetOrDie(tree.get(), "m"), "1");
  EXPECT_EQ(files_at(bottom), 3u);

  // An unflushed memtable version cannot shadow the ingested one.
  ASSERT_TRUE(tree->Put("z", "memtable").ok());
  ASSERT_TRUE(IngestRows(tree.get(), {{"z", "ingested"}}).ok());
  EXPECT_EQ(GetOrDie(tree.get(), "z"), "ingested");

  // Out-of-order or duplicate keys are refused and leave nothing behind.
  const uint64_t seq = tree->LatestSequence();
  const size_t ssts = SstFilesIn(&env, "/db");
  for (const Rows& bad : {Rows{{"q", "1"}, {"p", "1"}}, Rows{{"q", "1"}, {"q", "2"}}}) {
    EXPECT_EQ(IngestRows(tree.get(), bad).code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(tree->LatestSequence(), seq);
  EXPECT_EQ(SstFilesIn(&env, "/db"), ssts);
  EXPECT_EQ(GetOrDie(tree.get(), "q"), std::nullopt);
  // So is an empty ingest.
  ASSERT_TRUE(IngestRows(tree.get(), {}).ok());
  EXPECT_EQ(tree->LatestSequence(), seq);

  // Every file is in the manifest: a reopen (no WAL involved) reads the same.
  const Rows want = {{"a", "2"}, {"b", "2"}, {"c", "1"}, {"m", "1"},
                     {"n", "1"}, {"x", "1"}, {"y", "1"}, {"z", "ingested"}};
  for (int pass = 0; pass < 2; ++pass) {
    Rows got;
    ASSERT_TRUE(tree->ScanPrefix("", [&](std::string_view k, std::string_view v) {
                      got.emplace_back(k, v);
                    }).ok());
    EXPECT_EQ(got, want) << "pass " << pass;
    reopen();
  }
}

// ---------------------------------------------------------------------------
// Pinned scans
// ---------------------------------------------------------------------------

TEST(LsmPinnedScanTest, ReadsItsPinThroughFlushesCompactionsAndIngests) {
  MemEnv env;
  auto opened = LsmTree::Open(SmallLsm(&env, "/db"));
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<LsmTree> tree = std::move(*opened);
  auto key = [](int i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "k%03d", i);
    return std::string(buf);
  };
  // The pinned view spans the bottom level, L0 and the memtable.
  Rows want;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree->Put(key(i), "old" + std::to_string(i)).ok());
    if (i == 120) ASSERT_TRUE(tree->CompactAll().ok());
    if (i == 170) ASSERT_TRUE(tree->Flush().ok());
  }
  for (int i = 0; i < 200; i += 9) ASSERT_TRUE(tree->Delete(key(i)).ok());
  for (int i = 0; i < 200; ++i) {
    if (i % 9 != 0) want.emplace_back(key(i), "old" + std::to_string(i));
  }

  LsmTree::PinnedScan scan(tree.get());
  Rng rng(7);
  int round = 0;
  const Rows got = StepToEnd(&scan, 7, [&] {
    ++round;
    for (int n = 0; n < 20; ++n) {
      const int i = static_cast<int>(rng.NextBounded(260));
      if (rng.NextBool(0.2)) {
        ASSERT_TRUE(tree->Delete(key(i)).ok());
      } else {
        ASSERT_TRUE(tree->Put(key(i), "new").ok());
      }
    }
    if (round % 3 == 0) ASSERT_TRUE(tree->Flush().ok());
    if (round % 5 == 0) ASSERT_TRUE(tree->CompactAll().ok());
    if (round % 7 == 0) {
      ASSERT_TRUE(IngestRows(tree.get(), {{key(round), "ingested"},
                                          {key(round + 1), "ingested"}})
                      .ok());
    }
  });
  EXPECT_GT(round, 20);
  EXPECT_EQ(got, want);
}

TEST(LsmPinnedScanTest, PinIsReleasedOnCompletionAndOnDrop) {
  for (const bool complete : {true, false}) {
    SCOPED_TRACE(complete ? "completed" : "dropped");
    MemEnv env;
    auto opened = LsmTree::Open(SmallLsm(&env, "/db"));
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<LsmTree> tree = std::move(*opened);
    ASSERT_TRUE(tree->Put("k", "old").ok());
    const uint64_t old_seq = tree->LatestSequence();
    // CompactAll leaves a lone bottom file alone: a new version of the key
    // carries the file holding the old one into the merge, which keeps a
    // superseded version only for a pin. Each version is one entry.
    auto overwrite_and_compact = [&] {
      EXPECT_TRUE(tree->Put("k", "new").ok());
      EXPECT_TRUE(tree->CompactAll().ok());
      return tree->GetStats().entries;
    };
    {
      LsmTree::PinnedScan scan(tree.get());
      EXPECT_EQ(scan.sequence(), old_seq);
      EXPECT_EQ(overwrite_and_compact(), 2u);  // the pin keeps "old"
      if (complete) {
        EXPECT_EQ(StepToEnd(&scan, 1, [] {}), (Rows{{"k", "old"}}));
        // The last step released the pin; the scan object still lives.
        EXPECT_EQ(overwrite_and_compact(), 1u);
      }
    }
    EXPECT_EQ(overwrite_and_compact(), 1u);
  }
}

TEST(LsmTest, ScanPrefixNeverMissesAKeyUnderConcurrentCompaction) {
  // A writer overwrites every key in rounds. Each put flushes and every
  // third compacts, dropping superseded versions as soon as no snapshot can
  // see them. Scans of the newest versions must see every key, and never a
  // round older than an earlier scan saw.
  MemEnv env;
  auto opened = LsmTree::Open(test_util::SmallLsmOptions(&env, "/db", 1));
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<LsmTree> tree = std::move(*opened);
  constexpr size_t kKeys = 4;
  constexpr uint64_t kRounds = 500;
  auto key = [](size_t i) { return "key" + std::to_string(i); };
  for (size_t i = 0; i < kKeys; ++i) ASSERT_TRUE(tree->Put(key(i), "0").ok());

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t round = 1; round <= kRounds; ++round) {
      for (size_t i = 0; i < kKeys; ++i) {
        EXPECT_TRUE(tree->Put(key(i), std::to_string(round)).ok());
      }
    }
    done.store(true, std::memory_order_release);
  });
  // Three readers keep the tree mutex contended, so the writer often gets
  // it between two locks of one reader.
  std::atomic<size_t> scans{0}, bad_scans{0};
  auto reader = [&] {
    std::map<std::string, uint64_t> newest;  // the latest round each key showed
    while (!done.load(std::memory_order_acquire)) {
      size_t seen = 0;
      bool went_back = false;
      EXPECT_TRUE(tree->ScanPrefix("key", [&](std::string_view k,
                                               std::string_view v) {
                        ++seen;
                        const uint64_t round = std::stoull(std::string(v));
                        uint64_t& last = newest[std::string(k)];
                        went_back |= round < last;
                        last = std::max(last, round);
                      }).ok());
      bad_scans += seen != kKeys || went_back;
      ++scans;
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) readers.emplace_back(reader);
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad_scans.load(), 0u) << "of " << scans.load() << " scans";
  EXPECT_GT(tree->GetStats().compactions, 0u);
}

TEST(LsmTest, GetNeverReadsAFreedRunUnderConcurrentFlushAndCompaction) {
  // Point reads race a writer that flushes every third put (freeing the
  // memtable's arena) and compacts every third flush (dropping the SST
  // readers it replaces), so reads land in both kinds of run. A value
  // is copied out of its run under the tree mutex, so it must always be
  // whole: the round it names, repeated, and never older than an earlier
  // read of the same key. ASan and TSan runs of this test catch a value that
  // views a freed block or file buffer.
  MemEnv env;
  // An entry accounts for 4 + 64 + 32 bytes: the third put reaches 256.
  auto opened = LsmTree::Open(test_util::SmallLsmOptions(&env, "/db", 256));
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<LsmTree> tree = std::move(*opened);
  constexpr size_t kKeys = 4;
  constexpr uint64_t kRounds = 400;
  auto key = [](size_t i) { return "key" + std::to_string(i); };
  // "<round>:" and then the round's digits again, padded to 64 bytes.
  auto value = [](uint64_t round) {
    const std::string digits = std::to_string(round);
    std::string v = digits + ":";
    while (v.size() < 64) v += digits;
    return v.substr(0, 64);
  };
  for (size_t i = 0; i < kKeys; ++i) ASSERT_TRUE(tree->Put(key(i), value(0)).ok());

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t round = 1; round <= kRounds; ++round) {
      for (size_t i = 0; i < kKeys; ++i) {
        EXPECT_TRUE(tree->Put(key(i), value(round)).ok());
      }
    }
    done.store(true, std::memory_order_release);
  });
  std::atomic<size_t> gets{0}, bad_gets{0};
  // Every reader sweeps at least once: after the last put two keys are in
  // the memtable and two in SSTs, so both kinds of run are read.
  auto reader = [&] {
    std::vector<uint64_t> newest(kKeys, 0);
    do {
      for (size_t i = 0; i < kKeys; ++i) {
        auto got = tree->Get(key(i));
        ++gets;
        if (!got.ok() || !got->has_value()) {
          ++bad_gets;
          continue;
        }
        const uint64_t round = std::stoull(got->value());
        bad_gets += **got != value(round) || round < newest[i];
        newest[i] = std::max(newest[i], round);
      }
    } while (!done.load(std::memory_order_acquire));
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) readers.emplace_back(reader);
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad_gets.load(), 0u) << "of " << gets.load() << " gets";
  const LsmStats stats = tree->GetStats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_GT(stats.sst_reads, 0u);
}

// ---------------------------------------------------------------------------
// Differential test: the tree's reads against a versioned model
// ---------------------------------------------------------------------------

// Every write the tree acknowledged, with the sequence number it got, so the
// view at any snapshot can be recomputed.
class VersionedModel {
 public:
  using Rows = std::vector<std::pair<std::string, std::string>>;

  void Write(const std::string& key, uint64_t seq,
             std::optional<std::string> value) {
    versions_[key].emplace_back(seq, std::move(value));
  }

  /// Value of `key` at `snapshot`; nullopt if absent or deleted.
  std::optional<std::string> Get(const std::string& key,
                                 uint64_t snapshot) const {
    auto it = versions_.find(key);
    if (it == versions_.end()) return std::nullopt;
    for (auto v = it->second.rbegin(); v != it->second.rend(); ++v) {
      if (v->first <= snapshot) return v->second;
    }
    return std::nullopt;
  }

  /// Live rows whose key satisfies `in` at `snapshot`, in key order.
  template <typename Pred>
  Rows Select(uint64_t snapshot, Pred in) const {
    Rows rows;
    for (const auto& [key, unused] : versions_) {
      if (!in(key)) continue;
      if (auto value = Get(key, snapshot)) rows.emplace_back(key, *value);
    }
    return rows;
  }

 private:
  // key -> (seq, value or nullopt for a tombstone), seq ascending.
  std::map<std::string,
           std::vector<std::pair<uint64_t, std::optional<std::string>>>>
      versions_;
};

class LsmTreeModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LsmTreeModelTest, ReadsMatchVersionedModel) {
  MemEnv env;
  const LsmOptions options = test_util::SmallLsmOptions(&env, "/model", 2048);
  auto opened = LsmTree::Open(options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<LsmTree> owner = std::move(*opened);
  LsmTree* tree = owner.get();
  Rng rng(GetParam());

  // Keys of 1-3 bytes over an alphabet with both extreme bytes, so prefix
  // successors hit 0x00 and 0xff.
  const std::string alphabet("\x00" "a" "b" "\xff", 4);
  std::vector<std::string> keys;
  for (const char c1 : alphabet) {
    keys.emplace_back(1, c1);
    for (const char c2 : alphabet) {
      keys.push_back(std::string(1, c1) + c2);
      for (const char c3 : alphabet) keys.push_back(std::string(1, c1) + c2 + c3);
    }
  }
  auto random_key = [&] { return keys[rng.NextBounded(keys.size())]; };

  VersionedModel model;
  int ingests = 0;
  struct OpenScan {
    std::unique_ptr<LsmTree::PinnedScan> scan;
    VersionedModel::Rows rows;
    int pinned_at = 0;
  };
  // Compares a scan that has read to its end with the model at its pin.
  auto check_scan = [&](const OpenScan& open, int step) {
    EXPECT_EQ(open.rows, model.Select(open.scan->sequence(),
                                      [](const std::string&) { return true; }))
        << "scan pinned at step " << open.pinned_at << ", done at " << step;
  };
  // Long-held pins, read in full only when released, so compaction must keep
  // what they see across many operations.
  std::vector<OpenScan> held;
  int held_read = 0;
  // Pinned scans in progress, stepped by their own generator so the
  // operation stream above stays that of the seed.
  std::vector<OpenScan> scans;
  Rng scan_rng(GetParam() ^ 0x5ca115ull);
  int scans_finished = 0, scans_stepped_across_ops = 0;

  auto scan_prefix = [&](const std::string& prefix) {
    VersionedModel::Rows rows;
    Status st = tree->ScanPrefix(prefix, [&](std::string_view k,
                                             std::string_view v) {
      rows.emplace_back(std::string(k), std::string(v));
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
    return rows;
  };

  // The latest state, through ScanPrefix and Get, against the model's newest
  // versions.
  auto check_latest = [&](int step) {
    SCOPED_TRACE("step " + std::to_string(step));
    EXPECT_EQ(scan_prefix(""), model.Select(UINT64_MAX, [](const std::string&) {
      return true;
    }));
    std::vector<std::string> prefixes = {"\xff", "a\xff", "\xff\xff",
                                         std::string(1, '\0'), random_key()};
    for (const std::string& prefix : prefixes) {
      EXPECT_EQ(scan_prefix(prefix),
                model.Select(UINT64_MAX, [&](const std::string& k) {
                  return k.compare(0, prefix.size(), prefix) == 0;
                }))
          << "prefix of " << prefix.size() << " bytes";
    }
    for (const std::string& key : keys) {
      auto got = tree->Get(key);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, model.Get(key, UINT64_MAX))
          << "key of " << key.size() << " bytes";
    }
  };

  for (int step = 1; step <= 1500; ++step) {
    const uint64_t roll = rng.NextBounded(100);
    if (roll < 55) {
      const std::string key = random_key();
      const std::string value = "v" + std::to_string(step);
      ASSERT_TRUE(tree->Put(key, value).ok());
      model.Write(key, tree->LatestSequence(), value);
    } else if (roll < 80) {
      const std::string key = random_key();
      ASSERT_TRUE(tree->Delete(key).ok());
      model.Write(key, tree->LatestSequence(), std::nullopt);
    } else if (roll < 82) {
      // Ingest a sorted batch, over keys that may also live in the
      // memtable, in L0 and deeper; all of it at one new sequence number.
      std::set<std::string> batch;
      for (uint64_t n = 1 + rng.NextBounded(12); n > 0; --n) {
        batch.insert(random_key());
      }
      const std::string value = "i" + std::to_string(step);
      ASSERT_TRUE(tree->Ingest(batch.size(), [&](const LsmTree::IngestPut& put) {
                        for (const std::string& key : batch) {
                          EVO_RETURN_IF_ERROR(put(key, value));
                        }
                        return Status::OK();
                      }).ok());
      for (const std::string& key : batch) {
        model.Write(key, tree->LatestSequence(), value);
      }
      ++ingests;
    } else if (roll < 84) {
      ASSERT_TRUE(tree->Flush().ok());
    } else if (roll < 86) {
      ASSERT_TRUE(tree->CompactAll().ok());
    } else if (roll < 93) {
      if (held.size() < 4) {
        held.push_back({std::make_unique<LsmTree::PinnedScan>(tree), {}, step});
      }
    } else if (!held.empty()) {
      const size_t victim = rng.NextBounded(held.size());
      OpenScan& open = held[victim];
      auto done = open.scan->Step(SIZE_MAX, [&](std::string_view k,
                                                std::string_view v) {
        open.rows.emplace_back(std::string(k), std::string(v));
      });
      ASSERT_TRUE(done.ok() && *done) << done.status().ToString();
      check_scan(open, step);
      ++held_read;
      held.erase(held.begin() + static_cast<ptrdiff_t>(victim));
    }
    if (scans.size() < 3 && scan_rng.NextBool(0.05)) {
      scans.push_back({std::make_unique<LsmTree::PinnedScan>(tree), {}, step});
    }
    for (auto it = scans.begin(); it != scans.end();) {
      if (!scan_rng.NextBool(0.3)) {
        ++it;
        continue;
      }
      // Mostly short steps, so scans span many operations.
      const size_t max_keys =
          1 + scan_rng.NextBounded(scan_rng.NextBool(0.8) ? 8 : 300);
      auto done = it->scan->Step(max_keys, [&](std::string_view k,
                                               std::string_view v) {
        it->rows.emplace_back(std::string(k), std::string(v));
      });
      ASSERT_TRUE(done.ok()) << done.status().ToString();
      if (!*done) {
        ++it;
        continue;
      }
      check_scan(*it, step);
      ++scans_finished;
      scans_stepped_across_ops += it->pinned_at != step;
      it = scans.erase(it);
    }
    if (step % 100 == 0) check_latest(step);
  }
  LsmStats stats = tree->GetStats();
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_GT(ingests, 0);
  EXPECT_GT(scans_finished, 20);
  EXPECT_GT(scans_stepped_across_ops, 10);
  EXPECT_GT(held_read, 20);

  // A reopen after a crash reads the same latest state (sequence numbers
  // are renumbered by the WAL replay, so compare values only).
  held.clear();
  scans.clear();
  owner.reset();
  env.SimulateCrash();
  opened = LsmTree::Open(options);
  ASSERT_TRUE(opened.ok());
  owner = std::move(*opened);
  tree = owner.get();
  check_latest(0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsmTreeModelTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace evo::state
