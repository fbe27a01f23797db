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
///                  u64 min_seq | u64 max_seq | u32 crc | u32 magic
///
/// The crc covers every byte before it: data, bloom, index and the footer's
/// own fields, so a flipped bit anywhere but in the magic fails the open.
///
/// The reader keeps the file it read in one buffer; the data block, the
/// index keys and every Entry a cursor yields are views into it, valid while
/// the reader lives. Every read, point or ordered, starts with Seek(): one
/// binary search of the sparse index, then a cursor walk through the data
/// block.

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
  static constexpr uint32_t kMagic = 0xe5057ab2;
  static constexpr size_t kIndexInterval = 16;

  /// `expected_keys` sizes the bloom filter; `expected_bytes`, when the
  /// caller can bound the file's size, reserves the buffer it is built in.
  SSTableBuilder(Env* env, std::string path, size_t expected_keys = 4096,
                 size_t expected_bytes = 0)
      : env_(env),
        path_(std::move(path)),
        data_(expected_bytes),
        bloom_(expected_keys) {}

  /// \brief Adds the next entry. Keys must arrive in (key asc, seq desc)
  /// order; violations return InvalidArgument.
  Status Add(const Entry& e);

  /// \brief Appends bloom, index and footer to the data block and writes
  /// (and syncs) the file; the builder is spent after this.
  Status Finish();

  uint64_t entry_count() const { return count_; }
  uint64_t min_seq() const { return min_seq_; }
  uint64_t max_seq() const { return max_seq_; }

 private:
  /// The key of the entry added last, read back from the data block.
  std::string_view LastKey() const {
    return std::string_view(data_.buffer()).substr(last_key_off_, last_key_size_);
  }

  Env* env_;
  std::string path_;
  BinaryWriter data_;
  BloomFilter bloom_;
  /// Data-block offset of every kIndexInterval-th entry; Finish reads the
  /// index keys back from there.
  std::vector<uint64_t> stripes_;
  uint64_t count_ = 0;
  size_t last_key_off_ = 0, last_key_size_ = 0;
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
    explicit Cursor(std::string_view data) : rest_(data) { Next(); }

    std::string_view rest_;  ///< the entries after the current one
    Entry entry_;
    bool valid_ = false;
    Status status_;
  };

  /// \brief Positions a cursor at the first entry whose key is >= `lo`.
  Cursor Seek(std::string_view lo) const;

  /// \brief False if the bloom filter rules out the key whose HashString is
  /// `hash`; one point read hashes its key once for every file it probes.
  bool MayContainHash(uint64_t hash) const { return bloom_.MayContainHash(hash); }

  /// \brief Newest entry for `key`, or nullopt. Tombstones are returned
  /// (caller interprets op). Does not consult the bloom filter; the caller
  /// does that with MayContainHash(). The entry views this reader's buffer.
  Result<std::optional<Entry>> Get(std::string_view key) const;

  uint64_t entry_count() const { return entry_count_; }
  std::string_view smallest_key() const { return smallest_; }
  std::string_view largest_key() const { return largest_; }
  uint64_t min_seq() const { return min_seq_; }
  uint64_t max_seq() const { return max_seq_; }
  const std::string& path() const { return path_; }
  /// \brief Bytes of the file buffer this reader holds: the file's size.
  size_t file_bytes() const { return file_.size(); }

 private:
  SSTableReader() = default;

  /// Parses the entry at the front of `*in` into `out` and drops it from
  /// `*in`; false if the entry is truncated.
  static bool ParseEntry(std::string_view* in, Entry* out);

  std::string path_;
  std::string file_;       // the whole file, held in memory (laptop-scale files)
  std::string_view data_;  // the data block, in file_
  BloomFilter bloom_{64};
  std::vector<std::pair<std::string_view, uint64_t>> index_;  // keys in file_
  uint64_t entry_count_ = 0;
  std::string_view smallest_, largest_;  // in file_
  uint64_t min_seq_ = 0, max_seq_ = 0;
};

}  // namespace evo::state
