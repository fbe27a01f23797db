#pragma once

/// \file memtable.h
/// \brief The LSM write buffer: a skiplist of (key, seqno, op) entries,
/// mirroring the RocksDB memtable design.
///
/// Entries are ordered by (user key ascending, sequence number descending) so
/// a point lookup at a snapshot seeks to the first entry for the key with
/// seqno <= snapshot. Deletes are tombstone entries; they shadow older puts
/// and are dropped once compaction carries them into the bottom level.

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

/// \brief A versioned key-value entry.
struct Entry {
  std::string key;
  uint64_t seq = 0;
  EntryOp op = EntryOp::kPut;
  std::string value;
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

/// \brief Skiplist-backed sorted write buffer.
class MemTable {
  struct Node;

 public:
  MemTable() : rng_(0x9e3779b9u) {
    head_ = NewNode("", 0, EntryOp::kPut, "", kMaxHeight);
  }

  /// \brief Inserts a put or tombstone with the given sequence number.
  void Add(std::string_view key, uint64_t seq, EntryOp op,
           std::string_view value);

  /// \brief Point lookup at snapshot `seq`: returns the newest visible entry
  /// for the key, or nullopt if none (caller then checks SSTs). A visible
  /// tombstone yields an engaged optional holding a tombstone entry.
  std::optional<Entry> Get(std::string_view key, uint64_t snapshot_seq) const;

  /// \brief Cursor over the skiplist's bottom level.
  class Cursor final : public EntryCursor {
   public:
    const Entry* Current() const override {
      return node_ == nullptr ? nullptr : &node_->entry;
    }
    void Next() override { node_ = node_->next[0]; }

   private:
    friend class MemTable;
    explicit Cursor(const Node* node) : node_(node) {}
    const Node* node_;
  };

  /// \brief Positions a cursor at the first entry whose key is >= `lo`.
  Cursor Seek(std::string_view lo) const { return Cursor(SeekGE(lo)); }

  size_t ApproximateBytes() const { return bytes_; }
  size_t EntryCount() const { return count_; }
  bool Empty() const { return count_ == 0; }

 private:
  static constexpr int kMaxHeight = 12;

  struct Node {
    Entry entry;
    std::vector<Node*> next;
  };

  Node* NewNode(std::string_view key, uint64_t seq, EntryOp op,
                std::string_view value, int height) {
    auto node = std::make_unique<Node>();
    node->entry = Entry{std::string(key), seq, op, std::string(value)};
    node->next.assign(height, nullptr);
    Node* raw = node.get();
    arena_.push_back(std::move(node));
    return raw;
  }

  /// Orders by (key asc, seq desc): returns true if a < b.
  static bool EntryLess(const Entry& a, std::string_view key, uint64_t seq) {
    int c = a.key.compare(key);
    if (c != 0) return c < 0;
    return a.seq > seq;  // higher seq sorts earlier
  }

  int RandomHeight() {
    int h = 1;
    while (h < kMaxHeight && (rng_.NextU64() & 3) == 0) ++h;
    return h;
  }

  const Node* SeekGE(std::string_view key) const;

  Node* head_;
  std::vector<std::unique_ptr<Node>> arena_;
  Rng rng_;
  size_t bytes_ = 0;
  size_t count_ = 0;
};

}  // namespace evo::state
