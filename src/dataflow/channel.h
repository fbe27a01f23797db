#pragma once

/// \file channel.h
/// \brief Bounded in-process channels connecting tasks — the substitute for
/// the network transport of a distributed deployment (see DESIGN.md
/// substitutions table).
///
/// Channels are bounded: a full channel blocks the producer, which is exactly
/// how backpressure propagates upstream to the sources (§3.3). The channel
/// records how long producers spend blocked, the signal the elasticity
/// controller uses to find bottlenecks.
///
/// The implementation is a fixed-capacity power-of-two ring buffer in the
/// style of Vyukov's bounded MPMC queue: each slot carries a sequence number
/// that encodes whether it is free or occupied, head/tail are cache-line-
/// padded atomics, and the fast path (TryPush/TryPop/PushBatch/PopBatch)
/// never takes a lock. Batch variants claim a run of slots with a single
/// CAS so contention is amortized across N elements (cf. Flink
/// network-buffer batching and the LMAX disruptor lineage).
///
/// The two sides park differently. A producer blocked on a full ring parks
/// on the channel's own mutex + condvar (the backpressure slow path). The
/// consumer never parks on the channel: it parks on its task's WakeupWord
/// (wakeup.h), which every push signals while the consumer has it registered
/// with SetConsumerWakeup. A task with several inputs thus has one place to
/// sleep; its park predicate asks each input CanPop(). A task unregisters
/// the word from an input it will not read for a while (barrier-blocked),
/// so pushes there cost no wakeups.
///
/// Metric reads (Size/Fullness/BlockedNanos/PushedCount) are relaxed atomic
/// loads, so the elasticity poller, /metrics scrapes and the shed planner
/// never contend with the data path.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "dataflow/wakeup.h"
#include "event/element.h"
#include "testing/fault_injector.h"

namespace evo::dataflow {

/// \brief How records travel across an edge (exchange pattern).
enum class Partitioning {
  /// Same subtask index downstream (requires equal parallelism).
  kForward,
  /// By key group of record.key — keyed streams.
  kHash,
  /// Every downstream subtask receives every record.
  kBroadcast,
  /// Round-robin across downstream subtasks.
  kRebalance,
};

/// \brief A bounded MPMC ring of stream elements with blocking push
/// (backpressure), non-blocking pop, and batched variants of both.
class Channel {
 public:
  explicit Channel(size_t capacity = 1024)
      : capacity_(capacity == 0 ? 1 : capacity),
        ring_mask_(RingSize(capacity_) - 1),
        slots_(RingSize(capacity_)) {
    for (size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  /// \brief Blocks while the channel is full (backpressure), then enqueues.
  /// Returns false if the channel was closed.
  bool Push(StreamElement e) {
    if (e.is_barrier()) {
      // Chaos: control-element mischief on the "wire" — a duplicated,
      // delayed or dropped barrier stresses alignment dedup (the dedup in
      // Task::HandleBarrier) and checkpoint-timeout handling respectively.
      switch (EVO_FAULT_POINT("channel.barrier.push")) {
        case evo::testing::FaultAction::kDuplicate: {
          StreamElement copy = e;
          if (!PushBatch(&copy, 1)) return false;
          break;
        }
        case evo::testing::FaultAction::kDelay:
          std::this_thread::sleep_for(std::chrono::milliseconds(
              evo::testing::FaultInjector::Instance().DelayMsFor(
                  "channel.barrier.push")));
          break;
        case evo::testing::FaultAction::kDrop:
          return true;  // swallowed in transit; alignment must time out
        default:
          break;
      }
    }
    return PushBatch(&e, 1);
  }

  /// \brief Non-blocking push; returns false if full or closed. Used by load
  /// shedders that drop instead of blocking.
  bool TryPush(StreamElement e) { return ClaimAndWrite(&e, 1) == 1; }

  /// \brief Blocking batched push: enqueues all `n` elements of `batch` in
  /// FIFO order, blocking on backpressure as needed; elements are moved
  /// from. Returns false (possibly after a partial enqueue) if the channel
  /// is closed.
  bool PushBatch(StreamElement* batch, size_t n) {
    size_t done = 0;
    while (done < n) {
      done += ClaimAndWrite(batch + done, n - done);
      if (done == n) return true;
      if (closed_.load(std::memory_order_acquire)) return false;
      // Full: park until the consumer frees slots. The fence after the
      // waiter-count increment pairs with the one in WakeProducers(), so a
      // pop between our failed claim and the wait cannot be missed (see
      // WakeProducers for the ordering argument).
      Stopwatch blocked;
      {
        std::unique_lock<std::mutex> lock(wait_mu_);
        ++push_waiters_;
        std::atomic_thread_fence(std::memory_order_seq_cst);
        not_full_.wait(lock, [&] {
          return CanPush() || closed_.load(std::memory_order_acquire);
        });
        --push_waiters_;
      }
      blocked_nanos_.fetch_add(blocked.ElapsedNanos(),
                               std::memory_order_relaxed);
    }
    return true;
  }

  /// \brief Non-blocking pop.
  std::optional<StreamElement> TryPop() {
    StreamElement e;
    if (PopBatch(&e, 1) == 0) return std::nullopt;
    return e;
  }

  /// \brief Non-blocking batched pop: moves up to `max_n` elements into
  /// `out` in FIFO order; returns how many were popped.
  size_t PopBatch(StreamElement* out, size_t max_n) {
    size_t popped = 0;
    while (popped < max_n) {
      size_t got = ClaimAndRead(out + popped, max_n - popped);
      if (got == 0) break;
      popped += got;
    }
    if (popped > 0) WakeProducers();
    return popped;
  }

  /// \brief Closes the channel: pending elements remain poppable; pushes
  /// fail; blocked producers and a parked consumer wake.
  void Close() {
    closed_.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(wait_mu_);
      not_full_.notify_all();
    }
    WakeConsumer();
  }

  /// \brief Registers the word the consumer parks on: every later push and
  /// Close signals it. nullptr unregisters it. Only the consumer calls this
  /// once producers run, and a park on the word (its seq_cst fence) must
  /// follow a registration before the consumer relies on it.
  void SetConsumerWakeup(WakeupWord* wakeup) {
    consumer_.store(wakeup, std::memory_order_relaxed);
  }

  /// \brief Whether the next element is published and poppable. The
  /// consumer's park predicate; it tests the slot seq, not just head/tail:
  /// a cursor moves before its slot's seq is published, and a predicate
  /// that goes true in that window turns the park into a hot spin against
  /// a producer that may be preempted mid-publish.
  bool CanPop() const {
    uint64_t pos = tail_.load(std::memory_order_relaxed);
    return slots_[pos & ring_mask_].seq.load(std::memory_order_acquire) ==
           pos + 1;
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }
  /// \brief Current queue depth. Lock-free; transiently approximate while
  /// producers and consumers are mid-operation.
  size_t Size() const { return SizeRelaxed(); }
  size_t capacity() const { return capacity_; }
  /// \brief Occupancy in [0,1]; the backpressure signal.
  double Fullness() const {
    return static_cast<double>(SizeRelaxed()) / static_cast<double>(capacity_);
  }
  /// \brief Total nanoseconds producers spent blocked on a full channel.
  int64_t BlockedNanos() const {
    return blocked_nanos_.load(std::memory_order_relaxed);
  }
  uint64_t PushedCount() const {
    return pushed_.load(std::memory_order_relaxed);
  }

 private:
  /// One ring slot. `seq` encodes the slot state: `pos` = free for the
  /// producer claiming position `pos`; `pos + 1` = holds the element of
  /// position `pos`, ready for the consumer; the consumer hands it back as
  /// `pos + ring_size` for the producer's next lap.
  struct Slot {
    std::atomic<uint64_t> seq{0};
    StreamElement element;
  };

  static size_t RingSize(size_t capacity) {
    size_t n = 1;
    while (n < capacity) n <<= 1;
    return n;
  }

  size_t SizeRelaxed() const {
    uint64_t head = head_.load(std::memory_order_relaxed);
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    return head > tail ? static_cast<size_t>(head - tail) : 0;
  }

  // The producers' park predicate; tests the slot seq for the same reason
  // as CanPop.
  bool CanPush() const {
    if (SizeRelaxed() >= capacity_) return false;
    uint64_t pos = head_.load(std::memory_order_relaxed);
    return slots_[pos & ring_mask_].seq.load(std::memory_order_acquire) == pos;
  }

  /// \brief Claims up to `n` contiguous free slots with one CAS, writes the
  /// elements (moving from `elems` only for slots actually claimed) and
  /// publishes them in order. Returns the number enqueued (0 when full or
  /// closed).
  size_t ClaimAndWrite(StreamElement* elems, size_t n) {
    while (true) {
      if (closed_.load(std::memory_order_acquire)) return 0;
      uint64_t pos = head_.load(std::memory_order_relaxed);
      // Bound the claim by the logical capacity, which may be below the ring
      // size when the requested capacity is not a power of two.
      uint64_t tail = tail_.load(std::memory_order_acquire);
      uint64_t in_flight = pos > tail ? pos - tail : 0;
      size_t want = static_cast<size_t>(std::min<uint64_t>(
          n, capacity_ > in_flight ? capacity_ - in_flight : 0));
      // A slot is free for position p once its seq has caught up to p. Slots
      // only leave the free state through a head_ claim, so the scanned
      // prefix stays free until our CAS settles ownership.
      size_t claim = 0;
      while (claim < want &&
             slots_[(pos + claim) & ring_mask_].seq.load(
                 std::memory_order_acquire) == pos + claim) {
        ++claim;
      }
      if (claim == 0) return 0;
      if (!head_.compare_exchange_weak(pos, pos + claim,
                                       std::memory_order_relaxed)) {
        continue;  // another producer moved head; re-evaluate
      }
      for (size_t i = 0; i < claim; ++i) {
        Slot& slot = slots_[(pos + i) & ring_mask_];
        slot.element = std::move(elems[i]);
        slot.seq.store(pos + i + 1, std::memory_order_release);
      }
      pushed_.fetch_add(claim, std::memory_order_relaxed);
      WakeConsumer();
      return claim;
    }
  }

  /// \brief Claims up to `max_n` contiguous ready slots with one CAS and
  /// moves their elements out in order. Returns the number dequeued.
  size_t ClaimAndRead(StreamElement* out, size_t max_n) {
    while (true) {
      uint64_t pos = tail_.load(std::memory_order_relaxed);
      // A slot is readable for position p once its seq is p + 1. Producers
      // under contention may publish out of order, so take the ready prefix.
      size_t claim = 0;
      while (claim < max_n &&
             slots_[(pos + claim) & ring_mask_].seq.load(
                 std::memory_order_acquire) == pos + claim + 1) {
        ++claim;
      }
      if (claim == 0) return 0;
      if (!tail_.compare_exchange_weak(pos, pos + claim,
                                       std::memory_order_relaxed)) {
        continue;  // another consumer moved tail; re-evaluate
      }
      for (size_t i = 0; i < claim; ++i) {
        Slot& slot = slots_[(pos + i) & ring_mask_];
        out[i] = std::move(slot.element);
        slot.seq.store(pos + i + slots_.size(), std::memory_order_release);
      }
      return claim;
    }
  }

  // Producer wake path. The waiter-count check lets uncontended traffic
  // skip the mutex entirely, but on its own it races: our release store of
  // the slot seq and this load of the waiter count may reorder (StoreLoad is
  // legal even under x86 TSO), while the parking producer's waiter-count
  // increment and its predicate's slot-seq load may likewise reorder. If
  // both do, the producer parks on a stale "full" seq and we skip the notify
  // on a stale count of 0 — a missed wakeup that hangs it forever. The
  // seq_cst fences here and after the waiter-count increment in PushBatch
  // forbid that: in the single total order of seq_cst fences, either our
  // fence comes first (the producer's predicate sees the freed slot and
  // never blocks) or theirs does (we see the non-zero count and take the
  // lock, which orders the notify after the predicate re-check). The
  // consumer side is the same argument with the task's WakeupWord.
  // The fence orders the slot publish before the reads of consumer_ and of
  // the word's parked flag; it pairs with the fence in WakeupWord::Park,
  // which follows both the consumer's registration and its parked store.
  void WakeConsumer() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (WakeupWord* w = consumer_.load(std::memory_order_relaxed)) {
      w->SignalFenced();
    }
  }

  void WakeProducers() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (push_waiters_.load(std::memory_order_relaxed) == 0) return;
    std::lock_guard<std::mutex> lock(wait_mu_);
    not_full_.notify_all();
  }

  const size_t capacity_;   ///< logical bound (backpressure threshold)
  const size_t ring_mask_;  ///< ring size (pow2 >= capacity) minus one
  std::vector<Slot> slots_;

  // Hot-path cursors on their own cache lines so producers and consumers do
  // not false-share.
  alignas(64) std::atomic<uint64_t> head_{0};  ///< next position to enqueue
  alignas(64) std::atomic<uint64_t> tail_{0};  ///< next position to dequeue
  alignas(64) std::atomic<bool> closed_{false};
  std::atomic<int64_t> blocked_nanos_{0};
  std::atomic<uint64_t> pushed_{0};

  std::atomic<WakeupWord*> consumer_{nullptr};  ///< see SetConsumerWakeup

  // Blocked-producer slow path; untouched while the consumer keeps up.
  std::mutex wait_mu_;
  std::condition_variable not_full_;
  std::atomic<uint32_t> push_waiters_{0};
};

}  // namespace evo::dataflow
