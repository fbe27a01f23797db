#pragma once

/// \file sstable.h
/// \brief Sorted String Table files for the LSM backend.
///
/// Layout (all little-endian):
///
///   data block   : sequence of entries sorted by (key asc, seq desc)
///                  entry = varint klen | key | u64 seq | u8 op |
///                          varint vlen | value
///   bloom block  : serialized BloomFilter over user keys
///   index block  : sparse index, one (key, data offset) every
///                  kIndexInterval entries
///   footer       : u64 bloom_off | u64 index_off | u64 entry_count |
///                  u64 min_seq | u64 max_seq | u32 crc(data) | u32 magic
///
/// The reader keeps the data block, bloom and index in memory. Every read,
/// point or ordered, starts with Seek(): one binary search of the sparse
/// index, then a cursor walk through the data block.

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/serde.h"
#include "common/status.h"
#include "state/bloom.h"
#include "state/env.h"
#include "state/memtable.h"

namespace evo::state {

/// \brief Builds an SST file from entries added in sorted order.
class SSTableBuilder {
 public:
  static constexpr uint32_t kMagic = 0xe5057ab1;
  static constexpr size_t kIndexInterval = 16;

  SSTableBuilder(Env* env, std::string path, size_t expected_keys = 4096)
      : env_(env), path_(std::move(path)), bloom_(expected_keys) {}

  /// \brief Adds the next entry. Keys must arrive in (key asc, seq desc)
  /// order; violations return InvalidArgument.
  Status Add(const Entry& e);

  /// \brief Appends bloom, index and footer to the data block and writes
  /// (and syncs) the file; the builder is spent after this.
  Status Finish();

  uint64_t entry_count() const { return count_; }
  const std::string& smallest_key() const { return smallest_; }
  const std::string& largest_key() const { return largest_; }
  uint64_t min_seq() const { return min_seq_; }
  uint64_t max_seq() const { return max_seq_; }

 private:
  Env* env_;
  std::string path_;
  BinaryWriter data_;
  BloomFilter bloom_;
  std::vector<std::pair<std::string, uint64_t>> index_;
  uint64_t count_ = 0;
  std::string smallest_, largest_;
  std::string last_key_;
  uint64_t last_seq_ = 0;
  uint64_t min_seq_ = UINT64_MAX, max_seq_ = 0;
};

/// \brief Reads an SST file.
class SSTableReader {
 public:
  static Result<std::unique_ptr<SSTableReader>> Open(Env* env,
                                                     const std::string& path);

  /// \brief Cursor over the data block, parsing one entry at a time.
  class Cursor final : public EntryCursor {
   public:
    const Entry* Current() const override { return valid_ ? &entry_ : nullptr; }
    void Next() override;
    Status status() const override { return status_; }

   private:
    friend class SSTableReader;
    explicit Cursor(std::string_view data) : reader_(data) { Next(); }

    BinaryReader reader_;
    Entry entry_;
    bool valid_ = false;
    Status status_;
  };

  /// \brief Positions a cursor at the first entry whose key is >= `lo`.
  Cursor Seek(std::string_view lo) const;

  /// \brief False if the bloom filter rules `key` out of this file.
  bool MayContain(std::string_view key) const { return bloom_.MayContain(key); }

  /// \brief Newest entry for `key` visible at `snapshot_seq`, or nullopt.
  /// Tombstones are returned (caller interprets op). Does not consult the
  /// bloom filter; the caller does that with MayContain().
  Result<std::optional<Entry>> Get(std::string_view key,
                                   uint64_t snapshot_seq) const;

  uint64_t entry_count() const { return entry_count_; }
  const std::string& smallest_key() const { return smallest_; }
  const std::string& largest_key() const { return largest_; }
  uint64_t min_seq() const { return min_seq_; }
  uint64_t max_seq() const { return max_seq_; }
  const std::string& path() const { return path_; }

 private:
  SSTableReader() = default;

  static Status ParseEntry(BinaryReader* r, Entry* out);

  std::string path_;
  std::string data_;  // full data block held in memory (laptop-scale files)
  BloomFilter bloom_{64};
  std::vector<std::pair<std::string, uint64_t>> index_;
  uint64_t entry_count_ = 0;
  std::string smallest_, largest_;
  uint64_t min_seq_ = 0, max_seq_ = 0;
};

}  // namespace evo::state
