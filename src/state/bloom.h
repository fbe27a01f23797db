#pragma once

/// \file bloom.h
/// \brief Bloom filter used by SST files to skip point lookups, and exposed
/// as a stream synopsis (membership sketch) in its own right.
///
/// Double hashing (Kirsch-Mitzenmacher): k probe positions are derived from
/// two 64-bit hashes, matching the construction RocksDB uses.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/serde.h"

namespace evo::state {

/// \brief Fixed-size bloom filter over byte-string keys.
class BloomFilter {
 public:
  /// \param expected_keys sizing hint
  /// \param bits_per_key space budget; 10 gives ~1% false-positive rate
  explicit BloomFilter(size_t expected_keys = 1024, int bits_per_key = 10)
      : num_probes_(ProbesFor(bits_per_key)) {
    size_t bits = expected_keys * static_cast<size_t>(bits_per_key);
    if (bits < 64) bits = 64;
    bits_.assign((bits + 63) / 64, 0);
  }

  void Add(std::string_view key) { AddHash(HashString(key)); }
  void AddHash(uint64_t h) {
    uint64_t delta = (h >> 17) | (h << 47);
    size_t nbits = bits_.size() * 64;
    for (int i = 0; i < num_probes_; ++i) {
      size_t pos = h % nbits;
      bits_[pos / 64] |= (1ULL << (pos % 64));
      h += delta;
    }
  }

  /// \brief True if the key may be present; false means definitely absent.
  bool MayContain(std::string_view key) const {
    return MayContainHash(HashString(key));
  }
  bool MayContainHash(uint64_t h) const {
    uint64_t delta = (h >> 17) | (h << 47);
    size_t nbits = bits_.size() * 64;
    for (int i = 0; i < num_probes_; ++i) {
      size_t pos = h % nbits;
      if ((bits_[pos / 64] & (1ULL << (pos % 64))) == 0) return false;
      h += delta;
    }
    return true;
  }

  size_t SizeBytes() const { return bits_.size() * 8; }

  void EncodeTo(BinaryWriter* w) const {
    w->WriteU32(static_cast<uint32_t>(num_probes_));
    w->WriteVarU64(bits_.size());
    // One copy of the words, each in the byte order WriteU64 gives it.
    w->WriteRaw(bits_.data(), bits_.size() * sizeof(uint64_t));
  }
  Status DecodeFrom(BinaryReader* r) {
    uint32_t probes = 0;
    EVO_RETURN_IF_ERROR(r->ReadU32(&probes));
    if (probes < 1 || probes > 30) {
      return Status::DataLoss("BloomFilter: bad probe count");
    }
    num_probes_ = static_cast<int>(probes);
    uint64_t n = 0;
    EVO_RETURN_IF_ERROR(r->ReadVarU64(&n));
    // A corrupt count must fail here, not size an allocation.
    if (n == 0 || n > r->remaining() / 8) {
      return Status::DataLoss("BloomFilter: word count past the end");
    }
    std::string_view words;
    EVO_RETURN_IF_ERROR(r->ReadRaw(n * sizeof(uint64_t), &words));
    bits_.resize(n);
    std::memcpy(bits_.data(), words.data(), words.size());
    return Status::OK();
  }

 private:
  static int ProbesFor(int bits_per_key) {
    // k = bits_per_key * ln(2), clamped to [1, 30].
    int k = static_cast<int>(bits_per_key * 0.69);
    if (k < 1) k = 1;
    if (k > 30) k = 30;
    return k;
  }

  int num_probes_;
  std::vector<uint64_t> bits_;
};

}  // namespace evo::state
