#include "state/memtable.h"

#include <cstring>
#include <new>

namespace evo::state {

char* MemTable::Allocate(size_t bytes) {
  bytes = (bytes + alignof(Node) - 1) & ~(alignof(Node) - 1);
  if (bytes > kBlockBytes / 4) {  // its own block; the current one stays open
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(bytes));
    arena_bytes_ += bytes;
    return blocks_.back().get();
  }
  if (bytes > block_left_) {
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(kBlockBytes));
    arena_bytes_ += kBlockBytes;
    block_next_ = blocks_.back().get();
    block_left_ = kBlockBytes;
  }
  char* out = block_next_;
  block_next_ += bytes;
  block_left_ -= bytes;
  return out;
}

MemTable::Node* MemTable::NewNode(std::string_view key, uint64_t seq,
                                  EntryOp op, std::string_view value,
                                  int height) {
  const size_t tower = sizeof(Node*) * static_cast<size_t>(height);
  char* mem = Allocate(sizeof(Node) + tower + key.size() + value.size());
  Node* node = new (mem) Node{seq, static_cast<uint32_t>(key.size()),
                              static_cast<uint32_t>(value.size()), op,
                              static_cast<uint8_t>(height)};
  Node** next = node->Tower();
  for (int level = 0; level < height; ++level) next[level] = nullptr;
  char* bytes = mem + sizeof(Node) + tower;
  if (!key.empty()) std::memcpy(bytes, key.data(), key.size());
  if (!value.empty()) std::memcpy(bytes + key.size(), value.data(), value.size());
  return node;
}

void MemTable::Add(std::string_view key, uint64_t seq, EntryOp op,
                   std::string_view value) {
  int height = RandomHeight();
  Node* node = NewNode(key, seq, op, value, height);

  // Find predecessors at every level.
  Node* prev[kMaxHeight];
  Node* x = head_;
  for (int level = kMaxHeight - 1; level >= 0; --level) {
    while (x->Tower()[level] != nullptr && NodeLess(x->Tower()[level], key, seq)) {
      x = x->Tower()[level];
    }
    prev[level] = x;
  }
  for (int level = 0; level < height; ++level) {
    node->Tower()[level] = prev[level]->Tower()[level];
    prev[level]->Tower()[level] = node;
  }
  bytes_ += key.size() + value.size() + 32;
  ++count_;
}

const MemTable::Node* MemTable::SeekGE(std::string_view key) const {
  const Node* x = head_;
  for (int level = kMaxHeight - 1; level >= 0; --level) {
    while (x->Tower()[level] != nullptr && x->Tower()[level]->Key() < key) {
      x = x->Tower()[level];
    }
  }
  return x->Tower()[0];
}

std::optional<Entry> MemTable::Get(std::string_view key) const {
  const Node* n = SeekGE(key);
  if (n == nullptr || n->Key() != key) return std::nullopt;
  return n->ToEntry();  // versions run newest first
}

}  // namespace evo::state
