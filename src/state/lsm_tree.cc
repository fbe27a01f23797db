#include "state/lsm_tree.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/serde.h"
#include "testing/fault_injector.h"

namespace evo::state {

namespace {

/// The level shape: levels 0..kMaxLevel; L1 targets kLevelBaseBytes and each
/// deeper level kLevelSizeMultiplier times more.
constexpr int kMaxLevel = 3;
constexpr uint64_t kLevelBaseBytes = 4ull << 20;
constexpr uint64_t kLevelSizeMultiplier = 10;

/// WAL record: op byte | key | value, encoded into `w` (cleared first).
void EncodeWalRecord(const Entry& e, BinaryWriter* w) {
  w->Clear();
  w->WriteU8(static_cast<uint8_t>(e.op));
  w->WriteBytes(e.key);
  w->WriteBytes(e.value);
}

/// Decodes a WAL record into `e`, whose key and value view `data`.
Status DecodeWalRecord(std::string_view data, Entry* e) {
  BinaryReader r(data);
  uint8_t op_byte = 0;
  EVO_RETURN_IF_ERROR(r.ReadU8(&op_byte));
  e->op = static_cast<EntryOp>(op_byte);
  EVO_RETURN_IF_ERROR(r.ReadBytes(&e->key));
  return r.ReadBytes(&e->value);
}

/// (key asc, seq desc): the order of every sorted run.
bool EntryBefore(const Entry& a, const Entry& b) {
  const int c = a.key.compare(b.key);
  return c != 0 ? c < 0 : a.seq > b.seq;
}

/// Streams the (key asc, seq desc) merge of `runs` into `fn(const Entry&)`
/// until it returns false. The entry it refused stays under its cursor, so
/// a later call over the same runs resumes with it.
template <typename Fn>
Status MergeRuns(const std::vector<std::unique_ptr<EntryCursor>>& runs,
                 Fn&& fn) {
  // k-way merge: repeatedly take the smallest head. k is small (the memtable
  // plus a handful of files), so a linear pick beats a heap.
  while (true) {
    EntryCursor* head = nullptr;
    for (const auto& run : runs) {
      const Entry* e = run->Current();
      if (e != nullptr && (head == nullptr || EntryBefore(*e, *head->Current()))) {
        head = run.get();
      }
    }
    if (head == nullptr || !fn(*head->Current())) break;
    head->Next();
  }
  for (const auto& run : runs) EVO_RETURN_IF_ERROR(run->status());
  return Status::OK();
}

/// The one visible-version filter of every read at a sequence: streams the
/// merge of `runs` and hands `take` each key's newest version at or below
/// `pin`, tombstones included (a caller counting keys counts them too);
/// `fn` then gets the live ones. `take(e)` returns false to stop before `e`,
/// which stays under its cursor. `*last_key` is the key taken last; it owns
/// its bytes, so a read can resume past it after its runs are rebuilt.
template <typename Take>
Status MergeVisible(
    const std::vector<std::unique_ptr<EntryCursor>>& runs, uint64_t pin,
    std::optional<std::string>* last_key, Take&& take,
    const std::function<void(std::string_view, std::string_view)>& fn) {
  return MergeRuns(runs, [&](const Entry& e) {
    if (e.seq > pin) return true;                        // after the pin
    if (*last_key == e.key) return true;                 // an older version
    if (!take(e)) return false;
    *last_key = e.key;
    if (e.op == EntryOp::kPut) fn(e.key, e.value);
    return true;
  });
}

/// The smallest key above every key that starts with `prefix`: drop trailing
/// 0xff bytes, then increment the last byte. Empty means unbounded.
std::string PrefixSuccessor(std::string_view prefix) {
  std::string s(prefix);
  while (!s.empty() && static_cast<uint8_t>(s.back()) == 0xff) s.pop_back();
  if (!s.empty()) s.back() = static_cast<char>(s.back() + 1);
  return s;
}

}  // namespace

LsmTree::LsmTree(const LsmOptions& options) : options_(options) {
  levels_.resize(kMaxLevel + 1);
}

LsmTree::~LsmTree() {
  if (wal_ != nullptr) {
    (void)wal_->Sync();
    (void)wal_->Close();
  }
}

std::string LsmTree::SstPath(uint64_t id) const {
  return options_.dir + "/" + std::to_string(id) + ".sst";
}
std::string LsmTree::WalPath(uint64_t id) const {
  return options_.dir + "/" + std::to_string(id) + ".wal";
}
std::string LsmTree::ManifestPath() const { return options_.dir + "/MANIFEST"; }

Result<std::unique_ptr<LsmTree>> LsmTree::Open(const LsmOptions& options) {
  EVO_RETURN_IF_ERROR(options.env->CreateDirIfMissing(options.dir));
  auto tree = std::unique_ptr<LsmTree>(new LsmTree(options));
  std::lock_guard<std::mutex> lock(tree->mu_);
  EVO_RETURN_IF_ERROR(tree->RecoverLocked());
  return tree;
}

Status LsmTree::RecoverLocked() {
  Env* env = options_.env;

  // 1. Load the manifest (if any): next ids, seq floor, and live files.
  if (env->FileExists(ManifestPath())) {
    EVO_ASSIGN_OR_RETURN(auto manifest, env->ReadFileToString(ManifestPath()));
    BinaryReader r(manifest);
    uint64_t num_files = 0;
    EVO_RETURN_IF_ERROR(r.ReadU64(&next_file_id_));
    EVO_RETURN_IF_ERROR(r.ReadU64(&seq_));
    EVO_RETURN_IF_ERROR(r.ReadU64(&wal_id_));
    EVO_RETURN_IF_ERROR(r.ReadU64(&num_files));
    for (uint64_t i = 0; i < num_files; ++i) {
      uint64_t id = 0;
      uint32_t level = 0;
      EVO_RETURN_IF_ERROR(r.ReadU64(&id));
      EVO_RETURN_IF_ERROR(r.ReadU32(&level));
      if (level >= levels_.size()) {
        return Status::DataLoss("manifest level out of range");
      }
      EVO_ASSIGN_OR_RETURN(auto reader, SSTableReader::Open(env, SstPath(id)));
      FileMeta meta;
      meta.id = id;
      meta.level = static_cast<int>(level);
      meta.reader = std::move(reader);
      levels_[level].push_back(std::move(meta));
    }
  }

  // 2. Replay the WAL into the memtable (ops after the last flush).
  const std::string wal_path = WalPath(wal_id_);
  if (env->FileExists(wal_path)) {
    EVO_ASSIGN_OR_RETURN(auto records, WalReader::ReadAll(env, wal_path));
    for (const std::string& rec : records) {
      Entry e;
      EVO_RETURN_IF_ERROR(DecodeWalRecord(rec, &e));
      mem_.Add(e.key, ++seq_, e.op, e.value);
    }
  }

  // 3. Start a fresh WAL segment carrying the replayed ops, then atomically
  // switch the manifest to it. If we crash before the manifest write, the
  // old manifest still points at the old (intact) segment.
  uint64_t old_wal = wal_id_;
  wal_id_ = next_file_id_++;
  EVO_ASSIGN_OR_RETURN(wal_, WalWriter::Open(env, WalPath(wal_id_)));
  {
    std::vector<Entry> replay;
    for (auto c = mem_.Seek(""); c.Current() != nullptr; c.Next()) {
      replay.push_back(*c.Current());
    }
    // The memtable yields (key asc, seq desc); the WAL must be in original
    // write order so future replays reconstruct the same version order.
    std::sort(replay.begin(), replay.end(),
              [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
    for (const Entry& e : replay) {
      EncodeWalRecord(e, &wal_record_);
      EVO_RETURN_IF_ERROR(wal_->Append(wal_record_.buffer()));
    }
    if (!replay.empty()) EVO_RETURN_IF_ERROR(wal_->Sync());
  }
  EVO_RETURN_IF_ERROR(WriteManifestLocked());
  if (old_wal != wal_id_ && env->FileExists(WalPath(old_wal))) {
    (void)env->DeleteFile(WalPath(old_wal));
  }
  return Status::OK();
}

Status LsmTree::WriteManifestLocked() {
  BinaryWriter w;
  w.WriteU64(next_file_id_);
  w.WriteU64(seq_);
  w.WriteU64(wal_id_);
  uint64_t num_files = 0;
  for (const auto& level : levels_) num_files += level.size();
  w.WriteU64(num_files);
  for (const auto& level : levels_) {
    for (const FileMeta& f : level) {
      w.WriteU64(f.id);
      w.WriteU32(static_cast<uint32_t>(f.level));
    }
  }
  return options_.env->WriteStringToFile(ManifestPath(), w.buffer());
}

Status LsmTree::Write(std::string_view key, EntryOp op, std::string_view value) {
  std::lock_guard<std::mutex> lock(mu_);
  EncodeWalRecord(Entry{key, 0, op, value}, &wal_record_);
  EVO_RETURN_IF_ERROR(wal_->Append(wal_record_.buffer()));
  if (options_.sync_wal) EVO_RETURN_IF_ERROR(wal_->Sync());
  mem_.Add(key, ++seq_, op, value);
  if (op == EntryOp::kPut) {
    ++stats_.puts;
  } else {
    ++stats_.deletes;
  }
  if (mem_.ApproximateBytes() >= options_.memtable_bytes) {
    EVO_RETURN_IF_ERROR(FlushLocked());
    EVO_RETURN_IF_ERROR(MaybeCompactLocked());
  }
  return Status::OK();
}

Status LsmTree::Put(std::string_view key, std::string_view value) {
  return Write(key, EntryOp::kPut, value);
}

Status LsmTree::Delete(std::string_view key) {
  return Write(key, EntryOp::kDelete, "");
}

Status LsmTree::Ingest(
    size_t expected_keys,
    const std::function<Status(const IngestPut& put)>& produce) {
  std::lock_guard<std::mutex> lock(mu_);
  // A memtable version of an ingested key would shadow the file; the flush
  // also leaves the WAL empty, so no replayed record can outrank it either.
  EVO_RETURN_IF_ERROR(FlushLocked());

  const uint64_t id = next_file_id_++;
  auto written = [&]() -> Result<std::optional<FileMeta>> {
    EVO_ASSIGN_OR_RETURN(
        auto meta,
        WriteSstLocked(id, 0, expected_keys, 0, [&](SSTableBuilder* builder) {
          return produce([&](std::string_view key, std::string_view value) {
            return builder->Add(Entry{key, seq_ + 1, EntryOp::kPut, value});
          });
        }));
    if (meta) EVO_FAULT_RETURN_IF_SET("lsm.ingest.install");
    return meta;
  }();
  if (!written.ok()) {
    (void)options_.env->DeleteFile(SstPath(id));
    return written.status();
  }
  if (!*written) return Status::OK();  // nothing to ingest

  // Deepest level whose files, and all files above it, miss the new range:
  // every version the file could shadow then lies below it.
  FileMeta meta = std::move(**written);
  const std::string_view lo = meta.reader->smallest_key();
  const std::string_view hi = meta.reader->largest_key();
  int level = -1;
  while (level + 1 < static_cast<int>(levels_.size()) &&
         std::none_of(levels_[level + 1].begin(), levels_[level + 1].end(),
                      [&](const FileMeta& f) {
                        return f.reader->smallest_key() <= hi &&
                               f.reader->largest_key() >= lo;
                      })) {
    ++level;
  }
  meta.level = std::max(level, 0);
  std::vector<FileMeta>& files = levels_[static_cast<size_t>(meta.level)];
  if (meta.level == 0) {
    files.push_back(std::move(meta));  // newest L0 file
  } else {
    auto at = std::upper_bound(files.begin(), files.end(), lo,
                               [](std::string_view k, const FileMeta& f) {
                                 return k < f.reader->smallest_key();
                               });
    files.insert(at, std::move(meta));
  }
  seq_ += 1;
  EVO_RETURN_IF_ERROR(WriteManifestLocked());
  return MaybeCompactLocked();
}

Result<std::optional<LsmTree::FileMeta>> LsmTree::WriteSstLocked(
    uint64_t id, int level, size_t expected_keys, size_t expected_bytes,
    const std::function<Status(SSTableBuilder* builder)>& fill) {
  {  // the builder's buffer is freed before the reader loads the file
    SSTableBuilder builder(options_.env, SstPath(id), expected_keys,
                           expected_bytes);
    EVO_RETURN_IF_ERROR(fill(&builder));
    if (builder.entry_count() == 0) return std::optional<FileMeta>();
    EVO_RETURN_IF_ERROR(builder.Finish());
  }
  FileMeta meta;
  meta.id = id;
  meta.level = level;
  EVO_ASSIGN_OR_RETURN(meta.reader,
                       SSTableReader::Open(options_.env, SstPath(id)));
  return std::optional<FileMeta>(std::move(meta));
}

Result<std::optional<std::string>> LsmTree::Get(std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.gets;

  // Newest first: the memtable, then L0 newest file first (files overlap and
  // are appended in flush order), then the deeper levels, whose files are
  // disjoint so at most one per level can hold the key. The entry found views
  // its run, so its value is copied out before the lock is released.
  std::optional<Entry> found = mem_.Get(key);
  const uint64_t hash = found ? 0 : HashString(key);
  for (size_t level = 0; !found && level < levels_.size(); ++level) {
    const std::vector<FileMeta>& files = levels_[level];
    for (auto f = files.rbegin(); !found && f != files.rend(); ++f) {
      const SSTableReader& reader = *f->reader;
      if (key < reader.smallest_key() || key > reader.largest_key()) continue;
      if (reader.MayContainHash(hash)) {
        ++stats_.sst_reads;
        EVO_ASSIGN_OR_RETURN(found, reader.Get(key));
      } else {
        ++stats_.bloom_skips;
      }
      if (level > 0) break;
    }
  }
  if (!found || found->op == EntryOp::kDelete) {
    return std::optional<std::string>{};
  }
  return std::optional<std::string>(found->value);
}

std::vector<std::unique_ptr<EntryCursor>> LsmTree::OpenRunsLocked(
    bool with_mem, const std::vector<FileMeta>& files,
    std::string_view lo) const {
  std::vector<std::unique_ptr<EntryCursor>> runs;
  runs.reserve(files.size() + 1);
  if (with_mem) runs.push_back(std::make_unique<MemTable::Cursor>(mem_.Seek(lo)));
  for (const FileMeta& f : files) {
    runs.push_back(std::make_unique<SSTableReader::Cursor>(f.reader->Seek(lo)));
  }
  return runs;
}

Status LsmTree::ScanPrefix(
    std::string_view prefix,
    const std::function<void(std::string_view, std::string_view)>& fn) {
  const std::string hi = PrefixSuccessor(prefix);  // empty: unbounded
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FileMeta> files;
  for (const auto& level : levels_) {
    for (const FileMeta& f : level) {
      if (f.reader->largest_key() < prefix ||
          (!hi.empty() && f.reader->smallest_key() >= hi)) {
        continue;
      }
      files.push_back(f);
    }
  }
  std::optional<std::string> last_key;
  return MergeVisible(
      OpenRunsLocked(/*with_mem=*/true, files, prefix), seq_, &last_key,
      [&](const Entry& e) { return hi.empty() || e.key < hi; }, fn);
}

LsmTree::PinnedScan::PinnedScan(LsmTree* tree)
    : tree_(tree), seq_(tree->Pin()) {}

LsmTree::PinnedScan::~PinnedScan() {
  if (done_) return;
  std::lock_guard<std::mutex> lock(tree_->mu_);
  tree_->UnpinLocked(seq_);
}

Result<bool> LsmTree::PinnedScan::Step(
    size_t max_keys,
    const std::function<void(std::string_view, std::string_view)>& fn) {
  if (done_) return true;
  std::lock_guard<std::mutex> lock(tree_->mu_);
  if (!open_ || mem_generation_ != tree_->mem_generation_) {
    // The memtable under the cursors is gone (flushed into an L0 file that
    // holds what they had yet to read): start over on the current tree,
    // which keeps every version visible at the pin.
    runs_.clear();
    files_.clear();
    for (const auto& level : tree_->levels_) {
      files_.insert(files_.end(), level.begin(), level.end());
    }
    std::string lo;
    if (last_key_) lo = *last_key_ + '\0';  // the least key above it
    runs_ = tree_->OpenRunsLocked(/*with_mem=*/true, files_, lo);
    mem_generation_ = tree_->mem_generation_;
    open_ = true;
  }
  size_t taken = 0;
  bool stopped = false;
  EVO_RETURN_IF_ERROR(MergeVisible(
      runs_, seq_, &last_key_,
      [&](const Entry&) {
        if (taken == max_keys) {
          stopped = true;  // left under its cursor for the next step
          return false;
        }
        ++taken;
        return true;
      },
      fn));
  if (!stopped) {  // complete: release the pin and the files at once
    done_ = true;
    tree_->UnpinLocked(seq_);
    runs_.clear();
    files_.clear();
  }
  return done_;
}

uint64_t LsmTree::Pin() {
  std::lock_guard<std::mutex> lock(mu_);
  live_snapshots_.insert(seq_);
  return seq_;
}

void LsmTree::UnpinLocked(uint64_t seq) {
  live_snapshots_.erase(live_snapshots_.find(seq));
}

uint64_t LsmTree::LatestSequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

uint64_t LsmTree::MinLiveSnapshotLocked() const {
  return live_snapshots_.empty() ? UINT64_MAX : *live_snapshots_.begin();
}

Status LsmTree::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  EVO_RETURN_IF_ERROR(FlushLocked());
  return MaybeCompactLocked();
}

Status LsmTree::FlushLocked() {
  if (mem_.Empty()) return Status::OK();

  // key + value + 32 per entry bounds the file's bytes per entry.
  EVO_ASSIGN_OR_RETURN(
      auto meta,
      WriteSstLocked(next_file_id_++, 0, mem_.EntryCount(),
                     mem_.ApproximateBytes(), [&](SSTableBuilder* builder) {
                       for (auto c = mem_.Seek(""); c.Current() != nullptr;
                            c.Next()) {
                         EVO_RETURN_IF_ERROR(builder->Add(*c.Current()));
                       }
                       return Status::OK();
                     }));
  levels_[0].push_back(std::move(*meta));

  // Reset memtable and start a fresh WAL segment.
  mem_ = MemTable();
  ++mem_generation_;
  EVO_RETURN_IF_ERROR(wal_->Sync());
  EVO_RETURN_IF_ERROR(wal_->Close());
  uint64_t old_wal = wal_id_;
  wal_id_ = next_file_id_++;
  EVO_ASSIGN_OR_RETURN(wal_, WalWriter::Open(options_.env, WalPath(wal_id_)));

  ++stats_.flushes;
  EVO_RETURN_IF_ERROR(WriteManifestLocked());
  // The old WAL is obsolete only after the manifest (with the new SST and
  // new wal_id) is durable.
  (void)options_.env->DeleteFile(WalPath(old_wal));
  return Status::OK();
}

Status LsmTree::MaybeCompactLocked() {
  // L0 by file count; deeper levels by byte size.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    if (levels_[0].size() >=
        static_cast<size_t>(options_.l0_compaction_trigger)) {
      EVO_RETURN_IF_ERROR(CompactLevelLocked(0));
      progressed = true;
      continue;
    }
    uint64_t target = kLevelBaseBytes;
    for (size_t level = 1; level + 1 < levels_.size(); ++level) {
      uint64_t bytes = 0;
      for (const FileMeta& f : levels_[level]) {
        bytes += f.reader->entry_count() * 64;  // coarse size proxy
      }
      if (bytes > target) {
        EVO_RETURN_IF_ERROR(CompactLevelLocked(static_cast<int>(level)));
        progressed = true;
        break;
      }
      target *= kLevelSizeMultiplier;
    }
  }
  return Status::OK();
}

Status LsmTree::CompactLevelLocked(int level) {
  const int out_level = level + 1;
  if (out_level >= static_cast<int>(levels_.size())) {
    return Status::OK();  // bottom level: nothing deeper to merge into
  }

  // Inputs: all files at `level` (L0 overlaps freely; for deeper levels this
  // over-approximates but stays correct) plus all overlapping files at
  // out_level.
  std::vector<FileMeta> inputs = levels_[level];
  if (inputs.empty()) return Status::OK();

  std::string_view min_key = inputs[0].reader->smallest_key();
  std::string_view max_key = inputs[0].reader->largest_key();
  for (const FileMeta& f : inputs) {
    min_key = std::min(min_key, f.reader->smallest_key());
    max_key = std::max(max_key, f.reader->largest_key());
  }
  std::vector<FileMeta> out_keep;
  for (const FileMeta& f : levels_[out_level]) {
    if (f.reader->largest_key() < min_key || f.reader->smallest_key() > max_key) {
      out_keep.push_back(f);
    } else {
      inputs.push_back(f);
    }
  }

  // Stream the merge of the inputs into one output file. An older version
  // is kept only while some live snapshot can still see it, i.e. while the
  // next newer version is above the horizon. At the bottom, a newest
  // tombstone at or below the horizon is dropped as well; every older
  // version of its key goes with it by the first rule.
  const uint64_t horizon = MinLiveSnapshotLocked();
  const bool bottom = (out_level == static_cast<int>(levels_.size()) - 1);
  uint64_t input_entries = 0, input_bytes = 0;
  for (const FileMeta& f : inputs) {
    input_entries += f.reader->entry_count();
    input_bytes += f.reader->file_bytes();
  }
  std::string_view prev_key;  // views an input, held for the whole merge
  uint64_t prev_seq = 0;
  bool have_prev = false;
  auto dropped = [&](const Entry& e) {
    const bool newest_for_key = !have_prev || e.key != prev_key;
    const bool drop =
        newest_for_key ? bottom && e.op == EntryOp::kDelete && e.seq <= horizon
                       : prev_seq <= horizon;
    if (newest_for_key) prev_key = e.key;
    prev_seq = e.seq;
    have_prev = true;
    return drop;
  };
  EVO_ASSIGN_OR_RETURN(
      auto meta,
      WriteSstLocked(next_file_id_, out_level, input_entries, input_bytes,
                     [&](SSTableBuilder* builder) {
                       Status added;
                       EVO_RETURN_IF_ERROR(MergeRuns(
                           OpenRunsLocked(/*with_mem=*/false, inputs, ""),
                           [&](const Entry& e) {
                             if (!dropped(e)) added = builder->Add(e);
                             return added.ok();
                           }));
                       return added;
                     }));
  if (meta) {
    ++next_file_id_;
    out_keep.push_back(std::move(*meta));
  }

  // Install: the inputs are exactly the files this compaction replaces.
  levels_[static_cast<size_t>(level)].clear();
  // Keep non-overlapping files sorted by smallest key.
  std::sort(out_keep.begin(), out_keep.end(),
            [](const FileMeta& a, const FileMeta& b) {
              return a.reader->smallest_key() < b.reader->smallest_key();
            });
  levels_[out_level] = std::move(out_keep);

  ++stats_.compactions;
  EVO_RETURN_IF_ERROR(WriteManifestLocked());
  for (const FileMeta& f : inputs) {
    (void)options_.env->DeleteFile(SstPath(f.id));
  }
  return Status::OK();
}

Status LsmTree::CompactAll() {
  std::lock_guard<std::mutex> lock(mu_);
  EVO_RETURN_IF_ERROR(FlushLocked());
  for (int level = 0; level + 1 < static_cast<int>(levels_.size()); ++level) {
    EVO_RETURN_IF_ERROR(CompactLevelLocked(level));
  }
  return Status::OK();
}

LsmStats LsmTree::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  LsmStats stats = stats_;
  stats.files_per_level.clear();
  stats.bytes_per_level.clear();
  stats.entries = mem_.EntryCount();
  for (const auto& level : levels_) {
    stats.files_per_level.push_back(level.size());
    uint64_t bytes = 0;
    for (const FileMeta& f : level) {
      bytes += f.reader->file_bytes();
      stats.entries += f.reader->entry_count();
    }
    stats.bytes_per_level.push_back(bytes);
  }
  stats.memtable_bytes = mem_.ArenaBytes();
  return stats;
}

}  // namespace evo::state
