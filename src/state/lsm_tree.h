#pragma once

/// \file lsm_tree.h
/// \brief A from-scratch log-structured merge tree: the "advanced state
/// backend" substrate the survey names (§3.1: "file systems, log-structured
/// merge trees and related data structures").
///
/// Architecture (RocksDB-informed):
///   writes  -> WAL (durability) -> memtable (skiplist)
///   flush   -> L0 SST files (overlapping key ranges)
///   compact -> L1..Ln SST files (non-overlapping per level, leveled policy)
///   reads   -> memtable, then L0 newest-first, then one file per level,
///              each SST probe behind its bloom filter
///   scans   -> one k-way merge of memtable and SST cursors (also the
///              compaction input)
///   MVCC    -> global sequence numbers; a PinnedScan pins one so a
///              checkpoint reads a stable view while writes go on, and
///              compaction keeps every version a pin can still see
///   ingest  -> sorted puts straight into one SST (no WAL, no memtable),
///              installed at the deepest level nothing above overlaps
///
/// Crash recovery replays the WAL into a fresh memtable; the MANIFEST file
/// (rewritten atomically after every flush/compaction/ingest) lists live
/// SSTs.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "state/env.h"
#include "state/memtable.h"
#include "state/sstable.h"
#include "state/wal.h"

namespace evo::state {

/// \brief Tuning knobs for the LSM tree.
struct LsmOptions {
  Env* env = Env::Default();
  std::string dir = "/tmp/evostream-lsm";
  /// Memtable flush threshold.
  size_t memtable_bytes = 1 << 20;
  /// Number of L0 files that triggers compaction into L1.
  int l0_compaction_trigger = 4;
  /// Sync the WAL on every write (durable but slow) or rely on flush.
  bool sync_wal = false;
};

/// \brief Aggregate statistics for benchmarking and introspection.
struct LsmStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t deletes = 0;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t bloom_skips = 0;        ///< point reads skipped by bloom filters
  uint64_t sst_reads = 0;          ///< SST point probes actually executed
  std::vector<size_t> files_per_level;
  std::vector<uint64_t> bytes_per_level;  ///< file bytes the readers hold
  size_t memtable_bytes = 0;              ///< the memtable's arena blocks
  uint64_t entries = 0;  ///< memtable entries plus every file's entry count
};

/// \brief The LSM key-value store.
class LsmTree {
  struct FileMeta;

 public:
  static Result<std::unique_ptr<LsmTree>> Open(const LsmOptions& options);
  ~LsmTree();

  LsmTree(const LsmTree&) = delete;
  LsmTree& operator=(const LsmTree&) = delete;

  Status Put(std::string_view key, std::string_view value);
  Status Delete(std::string_view key);

  /// \brief Receives one put of an Ingest.
  using IngestPut =
      std::function<Status(std::string_view key, std::string_view value)>;

  /// \brief Bulk-loads puts as one new SST file. `produce` hands each put to
  /// the IngestPut it is given, keys strictly ascending; `expected_keys`
  /// sizes the file's bloom filter. The memtable is flushed first, then all
  /// puts take one fresh sequence number (pinned scans never see them)
  /// and the file goes to the deepest level where no file at that level or
  /// above overlaps its key range, else to L0 as the newest file. Nothing is
  /// written to the WAL: the file is durable once the manifest lists it.
  /// Out-of-order or duplicate keys fail with InvalidArgument. A failure
  /// before the install (bad input, a write, open or injected fault) deletes
  /// the file and leaves the tree's contents unchanged.
  Status Ingest(size_t expected_keys,
                const std::function<Status(const IngestPut& put)>& produce);

  /// \brief Latest visible value, or nullopt if absent/deleted.
  Result<std::optional<std::string>> Get(std::string_view key);

  /// \brief Ordered scan of the newest live versions of the keys with the
  /// given prefix, in key order. The sequence it reads at is taken under the
  /// scan's own lock (one read in an earlier lock could lose its versions to
  /// a compaction before the scan starts).
  Status ScanPrefix(std::string_view prefix,
                    const std::function<void(std::string_view key,
                                             std::string_view value)>& fn);

  /// \brief An ordered scan of every live key at a pinned sequence, taken in
  /// steps while the tree keeps taking writes, flushes, compactions and
  /// ingests: the tree's only read at a sequence other than its latest. The
  /// constructor pins the current sequence, so compaction keeps every version
  /// visible at it; the last step, or else the destructor, releases the pin,
  /// and the scan must die before the tree. Steps run under the tree mutex
  /// and resume one merge.
  /// The scan holds its own reference to every SST it reads, so compaction
  /// cannot take a file away from it; a replaced memtable makes the next
  /// step rebuild the cursors over the current tree, past the last key taken.
  class PinnedScan {
   public:
    explicit PinnedScan(LsmTree* tree);
    ~PinnedScan();

    PinnedScan(const PinnedScan&) = delete;
    PinnedScan& operator=(const PinnedScan&) = delete;

    /// \brief Takes the next keys visible at the pin, at most `max_keys` of
    /// them (a deleted key counts), calling `fn` for each live one in key
    /// order; true once the scan has passed the last key.
    Result<bool> Step(size_t max_keys,
                      const std::function<void(std::string_view key,
                                               std::string_view value)>& fn);

    uint64_t sequence() const { return seq_; }

   private:
    LsmTree* tree_;
    const uint64_t seq_;
    bool open_ = false;  ///< cursors built, over memtable mem_generation_
    uint64_t mem_generation_ = 0;
    std::vector<FileMeta> files_;  ///< keeps the cursors' files readable
    std::vector<std::unique_ptr<EntryCursor>> runs_;
    /// The last key taken. It owns its bytes: the entry it was copied from
    /// may view a memtable that a flush frees before the next step.
    std::optional<std::string> last_key_;
    bool done_ = false;
  };

  uint64_t LatestSequence() const;

  /// \brief Forces the memtable to L0 (and truncates the WAL).
  Status Flush();
  /// \brief Full manual compaction into the bottom level.
  Status CompactAll();

  LsmStats GetStats() const;

 private:
  struct FileMeta {
    uint64_t id = 0;
    int level = 0;
    std::shared_ptr<SSTableReader> reader;
  };

  explicit LsmTree(const LsmOptions& options);

  Status Write(std::string_view key, EntryOp op, std::string_view value);
  Status FlushLocked();
  Status MaybeCompactLocked();
  Status CompactLevelLocked(int level);
  /// Cursors over the memtable (if `with_mem`) and `files`, each at its
  /// first key >= `lo`: the runs of one merge. Every scan and every
  /// compaction reads through them.
  std::vector<std::unique_ptr<EntryCursor>> OpenRunsLocked(
      bool with_mem, const std::vector<FileMeta>& files,
      std::string_view lo) const;
  /// Every SST is made here: `fill` adds the entries of file `id`, whose
  /// bloom filter is sized for `expected_keys` and whose buffer reserves
  /// `expected_bytes`; the file is then written and read back (which catches
  /// a short write) as a file of `level`. Nullopt, and no file, when `fill`
  /// added nothing. Leaves the file behind on failure.
  Result<std::optional<FileMeta>> WriteSstLocked(
      uint64_t id, int level, size_t expected_keys, size_t expected_bytes,
      const std::function<Status(SSTableBuilder* builder)>& fill);
  Status WriteManifestLocked();
  Status RecoverLocked();

  std::string SstPath(uint64_t id) const;
  std::string WalPath(uint64_t id) const;
  std::string ManifestPath() const;
  /// Pins the current sequence for a PinnedScan: compaction keeps every
  /// version visible at it until UnpinLocked.
  uint64_t Pin();
  void UnpinLocked(uint64_t seq);
  uint64_t MinLiveSnapshotLocked() const;

  LsmOptions options_;
  mutable std::mutex mu_;

  MemTable mem_;
  /// Bumped wherever mem_ is replaced: a PinnedScan's memtable cursor is
  /// valid only within one generation.
  uint64_t mem_generation_ = 0;
  std::unique_ptr<WalWriter> wal_;
  uint64_t wal_id_ = 0;
  BinaryWriter wal_record_;  ///< the WAL record being written, reused

  uint64_t next_file_id_ = 1;
  uint64_t seq_ = 0;
  std::vector<std::vector<FileMeta>> levels_;  // levels_[0] newest-last
  std::multiset<uint64_t> live_snapshots_;  ///< the PinnedScans' pins

  mutable LsmStats stats_;
};

}  // namespace evo::state
