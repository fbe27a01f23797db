#pragma once

/// \file lsm_backend.h
/// \brief Keyed state backend over the LSM tree: state larger than memory,
/// durable across restarts ("store state beyond main memory" — §3.1).

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/clock.h"
#include "state/backend.h"
#include "state/lsm_tree.h"
#include "testing/fault_injector.h"

namespace evo::state {

/// \brief LSM-backed keyed state.
///
/// The tree orders byte keys, so state is stored under the composite key
/// ns | key_group | key | user_key, big-endian so that lexicographic order
/// groups by namespace, then key group, then key, then user key.
class LsmBackend final : public KeyedStateBackend {
 public:
  static Result<std::unique_ptr<LsmBackend>> Open(
      const LsmOptions& options,
      uint32_t max_parallelism = KeyGroup::kDefaultMaxParallelism) {
    EVO_ASSIGN_OR_RETURN(auto tree, LsmTree::Open(options));
    return std::unique_ptr<LsmBackend>(
        new LsmBackend(std::move(tree), max_parallelism));
  }

  Status Put(StateNamespace ns, uint64_t key, std::string_view user_key,
             std::string_view value) override {
    if (hist_put_us_ == nullptr) {
      return tree_->Put(Key(ns, key, user_key).view(), value);
    }
    Stopwatch watch;
    Status st = tree_->Put(Key(ns, key, user_key).view(), value);
    hist_put_us_->Record(static_cast<double>(watch.ElapsedNanos()) / 1000.0);
    return st;
  }

  Result<std::optional<std::string>> Get(StateNamespace ns, uint64_t key,
                                         std::string_view user_key) override {
    if (hist_get_us_ == nullptr) {
      return tree_->Get(Key(ns, key, user_key).view());
    }
    Stopwatch watch;
    auto result = tree_->Get(Key(ns, key, user_key).view());
    hist_get_us_->Record(static_cast<double>(watch.ElapsedNanos()) / 1000.0);
    return result;
  }

  Status Remove(StateNamespace ns, uint64_t key,
                std::string_view user_key) override {
    return tree_->Delete(Key(ns, key, user_key).view());
  }

  Status IterateKey(StateNamespace ns, uint64_t key,
                    const std::function<void(std::string_view,
                                             std::string_view)>& fn) override {
    return tree_->ScanPrefix(Key(ns, key, "").view(),
                             [&](std::string_view ck, std::string_view value) {
                               fn(Decode(ck).user_key, value);
                             });
  }

  Status IterateNamespace(
      StateNamespace ns,
      const std::function<void(uint64_t, std::string_view, std::string_view)>&
          fn) override {
    return tree_->ScanPrefix(
        Key(ns, 0, "").view().substr(0, 4),  // the namespace bytes
        [&](std::string_view ck, std::string_view value) {
          const Decoded d = Decode(ck);
          fn(d.key, d.user_key, value);
        });
  }

  /// One scan of the tree at the sequence pinned here, serialized as the
  /// task steps it; other key groups are skipped.
  std::unique_ptr<PendingSnapshot> PinKeyGroups(uint32_t from,
                                                uint32_t to) override {
    return std::make_unique<PinnedSnapshot>(tree_.get(), from, to);
  }

  Result<std::string> SnapshotKeyGroups(uint32_t from, uint32_t to) override {
    auto snapshot = PinKeyGroups(from, to);
    EVO_RETURN_IF_ERROR(snapshot->Advance(SIZE_MAX).status());
    return snapshot->Take();
  }

  /// Restores by building one SST from the snapshot (LsmTree::Ingest), not
  /// by a Put per entry. A snapshot this backend made is one ordered scan,
  /// so it is already in composite-key order and streams straight through;
  /// any other (MemBackend's is in hash order) is sorted first, as a
  /// permutation of its entries.
  Status RestoreSnapshot(std::string_view snapshot) override {
    // An entry's composite key in parts; tuple order is the key's byte order.
    struct Item {
      uint64_t head, key;
      std::string_view user_key, value;
      bool operator<(const Item& o) const {
        return std::tie(head, key, user_key) < std::tie(o.head, o.key, o.user_key);
      }
    };
    auto item = [this](StateNamespace ns, uint64_t key, std::string_view uk,
                       std::string_view value) {
      return Item{Head(ns, key), key, uk, value};
    };
    uint64_t count = 0;
    bool sorted = true;
    std::optional<Item> prev;
    EVO_RETURN_IF_ERROR(ForEachSnapshotEntry(
        snapshot, [&](auto ns, auto key, auto uk, auto value) {
          const Item it = item(ns, key, uk, value);
          if (prev.has_value() && !(*prev < it)) sorted = false;
          prev = it;
          ++count;
          return Status::OK();
        }));
    std::vector<Item> order;
    if (!sorted) {
      order.reserve(count);
      EVO_RETURN_IF_ERROR(ForEachSnapshotEntry(
          snapshot, [&](auto ns, auto key, auto uk, auto value) {
            order.push_back(item(ns, key, uk, value));
            return Status::OK();
          }));
      std::sort(order.begin(), order.end());
    }
    return tree_->Ingest(count, [&](const LsmTree::IngestPut& put) {
      auto emit = [&](const Item& it) {
        return put(CompositeKey(it.head, it.key, it.user_key).view(), it.value);
      };
      if (!sorted) {
        for (const Item& it : order) EVO_RETURN_IF_ERROR(emit(it));
        return Status::OK();
      }
      return ForEachSnapshotEntry(
          snapshot, [&](auto ns, auto key, auto uk, auto value) {
            return emit(item(ns, key, uk, value));
          });
    });
  }

  /// Every version and tombstone the tree holds, so an upper bound on the
  /// live entries.
  uint64_t ApproxEntryCount() const override { return tree_->GetStats().entries; }

  void AttachMetrics(MetricsRegistry* registry,
                     const std::string& scope) override {
    KeyedStateBackend::AttachMetrics(registry, scope);
    if (registry == nullptr) return;
    const std::string labels = "{backend=\"lsm\",scope=\"" + scope + "\"}";
    hist_get_us_ = registry->GetHistogram("state_get_latency_us" + labels);
    hist_put_us_ = registry->GetHistogram("state_put_latency_us" + labels);
    ctr_flushes_ = registry->GetCounter("state_memtable_flushes_total" + labels);
    ctr_compactions_ = registry->GetCounter("state_compactions_total" + labels);
    ctr_bloom_skips_ = registry->GetCounter("state_bloom_skips_total" + labels);
    ctr_sst_reads_ = registry->GetCounter("state_sst_reads_total" + labels);
    gauge_memtable_bytes_ = registry->GetGauge("state_memtable_bytes" + labels);
    gauge_sst_bytes_ = registry->GetGauge("state_sst_bytes" + labels);
  }

  void PublishMetrics() override {
    KeyedStateBackend::PublishMetrics();
    if (ctr_flushes_ == nullptr) return;
    LsmStats stats = tree_->GetStats();
    // Tree statistics are cumulative; counters advance by the delta since
    // the last publish (single publisher: the reporter pre-collect hook).
    std::lock_guard<std::mutex> lock(publish_mu_);
    ctr_flushes_->Inc(stats.flushes - last_.flushes);
    ctr_compactions_->Inc(stats.compactions - last_.compactions);
    ctr_bloom_skips_->Inc(stats.bloom_skips - last_.bloom_skips);
    ctr_sst_reads_->Inc(stats.sst_reads - last_.sst_reads);
    gauge_memtable_bytes_->Set(static_cast<double>(stats.memtable_bytes));
    uint64_t sst_bytes = 0;
    for (uint64_t b : stats.bytes_per_level) sst_bytes += b;
    gauge_sst_bytes_->Set(static_cast<double>(sst_bytes));
    last_ = stats;
  }

  LsmTree* tree() { return tree_.get(); }

 private:
  /// A PendingSnapshot over a PinnedScan of the whole tree.
  class PinnedSnapshot final : public PendingSnapshot {
   public:
    PinnedSnapshot(LsmTree* tree, uint32_t from, uint32_t to)
        : scan_(tree), from_(from), to_(to) {}

    Result<bool> Advance(size_t max_entries) override {
      // Chaos: a step that fails mid-scan; the task must fail and never
      // acknowledge the part serialized so far.
      EVO_FAULT_RETURN_IF_SET("task.snapshot.step");
      return scan_.Step(max_entries,
                        [&](std::string_view ck, std::string_view value) {
                          const Decoded d = Decode(ck);
                          if (d.key_group < from_ || d.key_group >= to_) return;
                          encoder_.Add(d.ns, d.key, d.user_key, value);
                        });
    }
    std::string Take() override { return encoder_.Finish(); }

   private:
    LsmTree::PinnedScan scan_;
    const uint32_t from_, to_;
    SnapshotEncoder encoder_;
  };

  LsmBackend(std::unique_ptr<LsmTree> tree, uint32_t max_parallelism)
      : KeyedStateBackend(max_parallelism), tree_(std::move(tree)) {}

  /// ns | key_group | key | user_key, with ns and key group written as one
  /// big-endian u64, the head.
  uint64_t Head(StateNamespace ns, uint64_t key) const {
    return uint64_t{ns} << 32 | KeyGroupOf(key);
  }
  /// A composite key built in a stack buffer; the heap is used only for a
  /// user key longer than 48 bytes.
  class CompositeKey {
   public:
    CompositeKey(uint64_t head, uint64_t key, std::string_view user_key)
        : size_(16 + user_key.size()) {
      char* out = inline_;
      if (size_ > sizeof(inline_)) {
        heap_ = std::make_unique_for_overwrite<char[]>(size_);
        out = heap_.get();
      }
      PutU64BE(out, head);
      PutU64BE(out + 8, key);
      if (!user_key.empty()) std::memcpy(out + 16, user_key.data(), user_key.size());
    }

    std::string_view view() const {
      return {heap_ != nullptr ? heap_.get() : inline_, size_};
    }

   private:
    static void PutU64BE(char* out, uint64_t v) {
      for (int i = 0; i < 8; ++i) out[i] = static_cast<char>(v >> (56 - 8 * i));
    }

    const size_t size_;
    std::unique_ptr<char[]> heap_;
    char inline_[64];
  };
  CompositeKey Key(StateNamespace ns, uint64_t key,
                   std::string_view user_key) const {
    return CompositeKey(Head(ns, key), key, user_key);
  }
  /// The parts of a composite key.
  struct Decoded {
    StateNamespace ns;
    uint32_t key_group;
    uint64_t key;
    std::string_view user_key;
  };
  static Decoded Decode(std::string_view ck) {
    const uint64_t head = StateKey::ReadU64BE(ck, 0);
    return {static_cast<StateNamespace>(head >> 32),
            static_cast<uint32_t>(head), StateKey::ReadU64BE(ck, 8),
            ck.substr(16)};
  }

  std::unique_ptr<LsmTree> tree_;

  // EvoScope instruments (null until AttachMetrics).
  Histogram* hist_get_us_ = nullptr;
  Histogram* hist_put_us_ = nullptr;
  Counter* ctr_flushes_ = nullptr;
  Counter* ctr_compactions_ = nullptr;
  Counter* ctr_bloom_skips_ = nullptr;
  Counter* ctr_sst_reads_ = nullptr;
  Gauge* gauge_memtable_bytes_ = nullptr;
  Gauge* gauge_sst_bytes_ = nullptr;
  std::mutex publish_mu_;
  LsmStats last_;  ///< stats at last publish (delta base)
};

}  // namespace evo::state
