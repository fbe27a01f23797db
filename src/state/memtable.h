#pragma once

/// \file memtable.h
/// \brief The LSM write buffer: a skiplist of (key, seqno, op) entries,
/// mirroring the RocksDB memtable design.
///
/// Entries are ordered by (user key ascending, sequence number descending), so
/// a point lookup's first entry for the key is its newest version, and a
/// cursor walks a key's versions newest first. Deletes are tombstone entries;
/// they shadow older puts and are dropped once compaction carries them into
/// the bottom level.
///
/// Each skiplist node is one bump allocation from the memtable's arena: the
/// node header, its tower of next pointers, the key bytes, the value bytes.
/// Nothing is freed until the whole memtable is, so an Entry read from it
/// stays valid for the memtable's lifetime.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace evo::state {

/// \brief Type of a memtable/SST entry.
enum class EntryOp : uint8_t { kPut = 0, kDelete = 1 };

/// \brief A versioned key-value entry. `key` and `value` view the bytes of
/// the run that holds the entry (a memtable's arena or an SST reader's file
/// buffer) and are valid only while that run lives.
struct Entry {
  std::string_view key;
  uint64_t seq = 0;
  EntryOp op = EntryOp::kPut;
  std::string_view value;
};

/// \brief A forward cursor over one sorted run (memtable or SST), in
/// (key asc, seq desc) order. Scans, compaction and SST point reads all walk
/// runs through it.
class EntryCursor {
 public:
  virtual ~EntryCursor() = default;
  /// \brief The entry under the cursor, or null past the end.
  virtual const Entry* Current() const = 0;
  /// \brief Advances; only valid while Current() is non-null.
  virtual void Next() = 0;
  /// \brief Non-OK if the cursor stopped early on a corrupt entry.
  virtual Status status() const { return Status::OK(); }
};

/// \brief Skiplist-backed sorted write buffer over an arena.
class MemTable {
  struct Node;

 public:
  MemTable() : rng_(0x9e3779b9u) {
    head_ = NewNode("", 0, EntryOp::kPut, "", kMaxHeight);
  }

  /// \brief Inserts a put or tombstone with the given sequence number.
  void Add(std::string_view key, uint64_t seq, EntryOp op,
           std::string_view value);

  /// \brief Point lookup: the key's newest entry, or nullopt if none (caller
  /// then checks SSTs). A tombstone yields an engaged optional holding it.
  std::optional<Entry> Get(std::string_view key) const;

  /// \brief Cursor over the skiplist's bottom level.
  class Cursor final : public EntryCursor {
   public:
    const Entry* Current() const override {
      return node_ == nullptr ? nullptr : &entry_;
    }
    void Next() override { Load(node_->Tower()[0]); }

   private:
    friend class MemTable;
    explicit Cursor(const Node* node) { Load(node); }
    void Load(const Node* node) {
      node_ = node;
      if (node != nullptr) entry_ = node->ToEntry();
    }
    const Node* node_;
    Entry entry_;
  };

  /// \brief Positions a cursor at the first entry whose key is >= `lo`.
  Cursor Seek(std::string_view lo) const { return Cursor(SeekGE(lo)); }

  /// \brief key + value + 32 bytes per entry: the flush trigger.
  size_t ApproximateBytes() const { return bytes_; }
  /// \brief Bytes of the arena blocks this memtable holds.
  size_t ArenaBytes() const { return arena_bytes_; }
  size_t EntryCount() const { return count_; }
  bool Empty() const { return count_ == 0; }

 private:
  static constexpr int kMaxHeight = 12;
  static constexpr size_t kBlockBytes = 64 << 10;

  /// The header of one arena allocation; the tower of `height` next pointers
  /// follows it, then the key bytes, then the value bytes.
  struct Node {
    uint64_t seq;
    uint32_t key_size;
    uint32_t value_size;
    EntryOp op;
    uint8_t height;

    Node** Tower() {
      return reinterpret_cast<Node**>(reinterpret_cast<char*>(this) +
                                      sizeof(Node));
    }
    Node* const* Tower() const {
      return reinterpret_cast<Node* const*>(
          reinterpret_cast<const char*>(this) + sizeof(Node));
    }
    std::string_view Key() const {
      return {reinterpret_cast<const char*>(Tower() + height), key_size};
    }
    Entry ToEntry() const {
      const char* key = reinterpret_cast<const char*>(Tower() + height);
      return Entry{{key, key_size}, seq, op, {key + key_size, value_size}};
    }
  };
  static_assert(sizeof(Node) % alignof(Node*) == 0);

  Node* NewNode(std::string_view key, uint64_t seq, EntryOp op,
                std::string_view value, int height);
  /// `bytes` from the current block, or from a new one; a request over a
  /// quarter of a block gets a block of its own.
  char* Allocate(size_t bytes);

  /// Orders by (key asc, seq desc): true if node `a` sorts before (key, seq).
  static bool NodeLess(const Node* a, std::string_view key, uint64_t seq) {
    int c = a->Key().compare(key);
    if (c != 0) return c < 0;
    return a->seq > seq;  // higher seq sorts earlier
  }

  int RandomHeight() {
    int h = 1;
    while (h < kMaxHeight && (rng_.NextU64() & 3) == 0) ++h;
    return h;
  }

  const Node* SeekGE(std::string_view key) const;

  std::vector<std::unique_ptr<char[]>> blocks_;
  char* block_next_ = nullptr;  ///< free space in the current block
  size_t block_left_ = 0;
  size_t arena_bytes_ = 0;
  Node* head_;
  Rng rng_;
  size_t bytes_ = 0;
  size_t count_ = 0;
};

}  // namespace evo::state
