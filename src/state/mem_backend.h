#pragma once

/// \file mem_backend.h
/// \brief Heap hash-map state backend: the fast, volatile option
/// ("internally managed state, in memory" — §3.1). Snapshots serialize to the
/// shared wire format; durability comes from the checkpointing layer.

#include <algorithm>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "state/backend.h"

namespace evo::state {

/// \brief In-memory keyed state backend.
///
/// Entries are indexed by (namespace, key) in a hash map; each slot holds an
/// ordered user-key map, so per-key iteration is a walk of one small map.
/// Operations are guarded by a mutex so queryable-state readers can observe
/// a running task's backend safely (read-committed isolation at
/// single-operation granularity).
class MemBackend final : public KeyedStateBackend {
 public:
  explicit MemBackend(
      uint32_t max_parallelism = KeyGroup::kDefaultMaxParallelism)
      : KeyedStateBackend(max_parallelism) {}

  Status Put(StateNamespace ns, uint64_t key, std::string_view user_key,
             std::string_view value) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] =
        table_[Slot{ns, key}].try_emplace(std::string(user_key));
    it->second.assign(value);
    entry_count_ += inserted ? 1 : 0;
    return Status::OK();
  }

  Result<std::optional<std::string>> Get(StateNamespace ns, uint64_t key,
                                         std::string_view user_key) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto slot = table_.find(Slot{ns, key});
    if (slot == table_.end()) return std::optional<std::string>{};
    auto it = slot->second.find(user_key);
    if (it == slot->second.end()) return std::optional<std::string>{};
    return std::optional<std::string>(it->second);
  }

  Status Remove(StateNamespace ns, uint64_t key,
                std::string_view user_key) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto slot = table_.find(Slot{ns, key});
    if (slot == table_.end()) return Status::OK();
    auto it = slot->second.find(user_key);
    if (it == slot->second.end()) return Status::OK();
    slot->second.erase(it);
    --entry_count_;
    if (slot->second.empty()) table_.erase(slot);
    return Status::OK();
  }

  Status IterateKey(StateNamespace ns, uint64_t key,
                    const std::function<void(std::string_view,
                                             std::string_view)>& fn) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto slot = table_.find(Slot{ns, key});
    if (slot == table_.end()) return Status::OK();
    for (const auto& [user_key, value] : slot->second) fn(user_key, value);
    return Status::OK();
  }

  /// Visits in (key group, key, user key) order, as LsmBackend does.
  Status IterateNamespace(
      StateNamespace ns,
      const std::function<void(uint64_t, std::string_view, std::string_view)>&
          fn) override {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<const Table::value_type*> hits;
    for (const auto& kv : table_) {
      if (kv.first.ns == ns) hits.push_back(&kv);
    }
    std::sort(hits.begin(), hits.end(), [this](const auto* a, const auto* b) {
      return std::pair(KeyGroupOf(a->first.key), a->first.key) <
             std::pair(KeyGroupOf(b->first.key), b->first.key);
    });
    for (const auto* kv : hits) {
      for (const auto& [user_key, value] : kv->second) {
        fn(kv->first.key, user_key, value);
      }
    }
    return Status::OK();
  }

  Result<std::string> SnapshotKeyGroups(uint32_t from, uint32_t to) override {
    std::lock_guard<std::mutex> lock(mu_);
    SnapshotEncoder snapshot;
    for (const auto& [slot, entries] : table_) {
      const uint32_t kg = KeyGroupOf(slot.key);
      if (kg < from || kg >= to) continue;
      for (const auto& [user_key, value] : entries) {
        snapshot.Add(slot.ns, slot.key, user_key, value);
      }
    }
    return snapshot.Finish();
  }

  uint64_t ApproxEntryCount() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return entry_count_;
  }

 private:
  struct Slot {
    StateNamespace ns;
    uint64_t key;
    bool operator==(const Slot& o) const { return ns == o.ns && key == o.key; }
  };
  struct SlotHash {
    size_t operator()(const Slot& s) const {
      return static_cast<size_t>(HashCombine(s.key, s.ns));
    }
  };
  using UserMap = std::map<std::string, std::string, std::less<>>;
  using Table = std::unordered_map<Slot, UserMap, SlotHash>;

  mutable std::mutex mu_;
  Table table_;
  uint64_t entry_count_ = 0;
};

}  // namespace evo::state
