#pragma once

/// \file gen.h
/// \brief Seeded, random-access input generators for the EvoBench workloads.
///
/// Every record is a pure function of (seed, record index): the benchmark's
/// source regenerates records on the fly, a restored source resumes at any
/// offset without replaying a log, and the single-threaded reference
/// regenerates the identical stream. The generators are owned by the
/// benchmark (not the engine) so engine changes never change the inputs.

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace evobench {

/// SplitMix64 finalizer.
constexpr uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Independent hash stream `stream` of record `i` under `seed`.
constexpr uint64_t Draw(uint64_t seed, uint64_t i, uint64_t stream) {
  return Mix(Mix(seed + 0x9e3779b97f4a7c15ULL * (stream + 1)) ^
             (i * 0xd1b54a32d192ed03ULL));
}

/// Uniform double in [0, 1) from a 64-bit hash.
inline double Unit(uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

/// \brief Zipf(n, theta) by the YCSB/Gray et al. inverse approximation;
/// rank 0 is the hottest. Sampling is O(1) from a caller-supplied uniform.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    double zetan = 0;
    for (uint64_t i = 1; i <= n; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    zetan_ = zetan;
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan);
  }

  uint64_t Rank(double u) const {
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const uint64_t r = static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r < n_ ? r : n_ - 1;
  }

  /// Exact probability of the hottest rank.
  double TopProbability() const { return 1.0 / zetan_; }
  uint64_t n() const { return n_; }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0;
};

/// Scatters Zipf ranks over the key space so hot keys are not neighbours
/// (multiplication by a prime coprime to every key count used here).
inline uint64_t KeyOfRank(uint64_t rank, uint64_t n) {
  return (rank * 2654435761ULL) % n;
}

/// Partitioning/state key hash of a key id (Record::key).
constexpr uint64_t KeyHash(uint64_t key_id) {
  return Mix(key_id ^ 0x5bd1e9955bd1e995ULL);
}

// ---------------------------------------------------------------------------
// Event time. Event time is a function of the record index, not of the wall
// clock, so windows hold the same records whatever the throughput. The stream
// is cut into segments (the saturated bursts, then the open-loop phase); each
// segment starts far enough ahead in event time that none of its records
// shares a window with an earlier segment or is late for the flush watermark
// that closed it.
// ---------------------------------------------------------------------------

inline constexpr int64_t kEventTimeBase = 1'000'000;
/// Event-time density: records per event-time millisecond, whatever the
/// wall-clock rate, so a window holds the same records in every run.
inline constexpr uint64_t kRecordsPerEventMs = 25;

struct EventClock {
  int64_t disorder_ms = 0;       ///< max displacement (= watermark bound)
  double displaced_frac = 0;     ///< share of displaced records

  struct Segment {
    uint64_t first = 0;  ///< index of the segment's first record
    int64_t base = 0;    ///< its undisplaced event time
  };
  /// Ascending by `first`; the first segment starts at record 0.
  std::vector<Segment> segments{Segment{0, kEventTimeBase}};

  /// Undisplaced event time of record i.
  int64_t Base(uint64_t i) const {
    size_t k = segments.size() - 1;
    while (k > 0 && segments[k].first > i) --k;
    return segments[k].base +
           static_cast<int64_t>((i - segments[k].first) / kRecordsPerEventMs);
  }
  /// Event time of record i: Base minus a displacement in [1, disorder_ms]
  /// for a `displaced_frac` share of records; never beyond the bound.
  int64_t EventTime(uint64_t seed, uint64_t i) const {
    const int64_t base = Base(i);
    if (disorder_ms <= 0) return base;
    const uint64_t h = Draw(seed, i, 7);
    if (Unit(h) >= displaced_frac) return base;
    return base - 1 -
           static_cast<int64_t>((h >> 20) % static_cast<uint64_t>(disorder_ms));
  }
};

// ---------------------------------------------------------------------------
// Workload records
// ---------------------------------------------------------------------------

/// A Zipf-skewed key and an integer amount.
struct KeyedAmount {
  uint64_t key_id = 0;
  int64_t amount = 0;
};

inline KeyedAmount KeyedAmountOf(uint64_t seed, uint64_t i, const Zipf& zipf,
                                 int64_t max_amount) {
  KeyedAmount r;
  r.key_id = KeyOfRank(zipf.Rank(Unit(Draw(seed, i, 3))), zipf.n());
  r.amount = 1 + static_cast<int64_t>(Draw(seed, i, 4) %
                                      static_cast<uint64_t>(max_amount));
  return r;
}

/// stateful_lsm: the preloaded profile of a key and its fixed-size encoding
/// (count | total | last record id | padding).
struct Profile {
  int64_t count = 0;
  int64_t total = 0;
  uint64_t last_id = 0;
};

inline Profile InitialProfile(uint64_t key_id) {
  const uint64_t h = Mix(key_id + 17);
  return Profile{static_cast<int64_t>(h % 16),
                 static_cast<int64_t>((h >> 8) % 10'000), UINT64_MAX};
}

inline constexpr size_t kProfileBytes = 48;

inline std::string EncodeProfile(const Profile& p) {
  std::string out(kProfileBytes, '.');
  auto put = [&out](size_t at, uint64_t v) {
    for (size_t b = 0; b < 8; ++b) out[at + b] = static_cast<char>(v >> (8 * b));
  };
  put(0, static_cast<uint64_t>(p.count));
  put(8, static_cast<uint64_t>(p.total));
  put(16, p.last_id);
  return out;
}

inline bool DecodeProfile(std::string_view s, Profile* p) {
  if (s.size() != kProfileBytes) return false;
  auto get = [&s](size_t at) {
    uint64_t v = 0;
    for (size_t b = 8; b-- > 0;) {
      v = (v << 8) | static_cast<unsigned char>(s[at + b]);
    }
    return v;
  };
  p->count = static_cast<int64_t>(get(0));
  p->total = static_cast<int64_t>(get(8));
  p->last_id = get(16);
  return true;
}

/// Hash of one result; results combine by addition per digest group, so the
/// digest is independent of arrival order.
constexpr uint64_t ResultHash(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
  return Mix(Mix(Mix(a ^ 0x243f6a8885a308d3ULL) + b) ^
             Mix(c + 0x13198a2e03707344ULL) ^ (d * 0xa4093822299f31d1ULL));
}

}  // namespace evobench
