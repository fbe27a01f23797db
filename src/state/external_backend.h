#pragma once

/// \file external_backend.h
/// \brief Simulated *externally managed* state (§3.1 direction (ii):
/// Millwheel+Bigtable, S-Store, Samza+remote-store designs): every operation
/// pays a configurable network round-trip. Used by experiment E6 to contrast
/// internal vs external state management.

#include <memory>
#include <thread>

#include "common/clock.h"
#include "state/mem_backend.h"

namespace evo::state {

/// \brief Models the remote store's latency profile.
struct ExternalStoreModel {
  /// One-way is not modeled separately; this is the full round-trip cost
  /// added to every Get/Put/Remove.
  int64_t rtt_micros = 500;
  /// Extra cost per KiB transferred (bandwidth term).
  int64_t micros_per_kib = 10;
  /// If true, latency is simulated by spinning a virtual-cost counter rather
  /// than sleeping — keeps benchmarks fast while preserving relative cost.
  bool virtual_time = false;
};

/// \brief A keyed state backend that forwards to MemBackend after charging a
/// simulated network delay.
class ExternalBackend final : public KeyedStateBackend {
 public:
  explicit ExternalBackend(
      ExternalStoreModel model = {},
      uint32_t max_parallelism = KeyGroup::kDefaultMaxParallelism)
      : KeyedStateBackend(max_parallelism),
        model_(model),
        inner_(max_parallelism) {}

  Status Put(StateNamespace ns, uint64_t key, std::string_view user_key,
             std::string_view value) override {
    Charge(value.size());
    return inner_.Put(ns, key, user_key, value);
  }
  Result<std::optional<std::string>> Get(StateNamespace ns, uint64_t key,
                                         std::string_view user_key) override {
    Charge(0);
    return inner_.Get(ns, key, user_key);
  }
  Status Remove(StateNamespace ns, uint64_t key,
                std::string_view user_key) override {
    Charge(0);
    return inner_.Remove(ns, key, user_key);
  }
  Status IterateKey(StateNamespace ns, uint64_t key,
                    const std::function<void(std::string_view,
                                             std::string_view)>& fn) override {
    Charge(0);
    return inner_.IterateKey(ns, key, fn);
  }
  Status IterateNamespace(
      StateNamespace ns,
      const std::function<void(uint64_t, std::string_view, std::string_view)>&
          fn) override {
    Charge(0);
    return inner_.IterateNamespace(ns, fn);
  }
  Result<std::string> SnapshotKeyGroups(uint32_t from, uint32_t to) override {
    return inner_.SnapshotKeyGroups(from, to);
  }
  Status RestoreSnapshot(std::string_view snapshot) override {
    return inner_.RestoreSnapshot(snapshot);
  }
  Status DropKeyGroups(uint32_t from, uint32_t to) override {
    return inner_.DropKeyGroups(from, to);
  }
  uint64_t ApproxEntryCount() const override {
    return inner_.ApproxEntryCount();
  }

  /// \brief Total simulated network time charged so far, in microseconds.
  int64_t SimulatedNetworkMicros() const { return charged_micros_; }
  uint64_t RoundTrips() const { return round_trips_; }

 private:
  void Charge(size_t bytes) {
    int64_t cost = model_.rtt_micros +
                   model_.micros_per_kib * static_cast<int64_t>(bytes / 1024);
    charged_micros_ += cost;
    ++round_trips_;
    if (!model_.virtual_time && cost > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(cost));
    }
  }

  ExternalStoreModel model_;
  MemBackend inner_;
  int64_t charged_micros_ = 0;
  uint64_t round_trips_ = 0;
};

}  // namespace evo::state
