#pragma once

/// \file channel.h
/// \brief Bounded in-process channels connecting tasks — the substitute for
/// the network transport of a distributed deployment (see DESIGN.md
/// substitutions table).
///
/// Channels are bounded: a full channel blocks the producer, which is exactly
/// how backpressure propagates upstream to the sources (§3.3). The channel
/// records how long its producer spends blocked, the signal the elasticity
/// controller uses to find bottlenecks.
///
/// A channel has one producer and one consumer. The job builds one channel
/// per (edge, upstream subtask, downstream subtask) and runs each task on
/// one thread, so only the upstream task's thread pushes and only the
/// downstream task's thread pops. (A role may pass from one thread to
/// another if the two are ordered, e.g. by a thread join.)
///
/// Records cross in wire form, as they would between the machines of a
/// distributed deployment: Push encodes the payload with Value::EncodeTo
/// into the slot and TryPop decodes it with Value::DecodeFrom on the
/// consumer's thread. So every heap block of a payload is allocated and
/// freed by one thread, never malloc'ed by the producer and free'd by the
/// consumer, which costs glibc an order of magnitude more per block.
///
/// The implementation is a fixed-size power-of-two ring of 128-byte slots
/// (two cache lines): the element's kind, its time and tag (a record's
/// event time and key) and up to kInlineBytes of encoded payload. A longer
/// payload goes, as the same bytes, to one heap buffer the slot owns. Push
/// writes the slot at `head_` and publishes it with a release store of
/// `head_ + 1`; TryPop decodes the slot at `tail_` and only then frees it
/// with a release store of `tail_ + 1`. Each cursor has one writer, so
/// neither side needs a CAS, and each side rereads the other's cursor only
/// when its last copy says full (or empty). Slots are never initialized up
/// front: memory is touched only as elements pass through.
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

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/clock.h"
#include "common/logging.h"
#include "common/serde.h"
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

/// \brief A bounded single-producer/single-consumer ring of stream elements
/// with blocking push (backpressure) and non-blocking pop.
class Channel {
 public:
  /// Bytes of encoded payload a slot holds in place; longer payloads go to
  /// a heap buffer. Each EvoBench payload fits: 29 B for the input tuple,
  /// 38 B and 58 B for the two workloads' results.
  static constexpr size_t kInlineBytes = 104;

  explicit Channel(size_t capacity = 1024)
      : capacity_(capacity == 0 ? 1 : capacity),
        ring_mask_(RingSize(capacity_) - 1),
        slots_(std::allocator<Slot>().allocate(ring_mask_ + 1)) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// \brief Frees the heap payloads of the elements still queued.
  ~Channel() {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    for (uint64_t pos = tail_.load(std::memory_order_relaxed); pos != head;
         ++pos) {
      const Slot* slot = SlotAt(pos);
      if (slot->OnHeap()) delete[] slot->heap;
    }
    std::allocator<Slot>().deallocate(slots_, ring_mask_ + 1);
  }

  /// \brief Blocks while the channel is full (backpressure), then enqueues
  /// `e` in wire form; the caller keeps `e`, so one element can be pushed
  /// to several channels. Returns false if the channel was closed. Producer
  /// only.
  bool Push(const StreamElement& e) {
    if (e.is_barrier()) {
      // Chaos: control-element mischief on the "wire" — a duplicated,
      // delayed or dropped barrier stresses alignment dedup (the dedup in
      // Task::HandleBarrier) and checkpoint-timeout handling respectively.
      switch (EVO_FAULT_POINT("channel.barrier.push")) {
        case evo::testing::FaultAction::kDuplicate:
          if (!Enqueue(e)) return false;
          break;
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
    return Enqueue(e);
  }

  /// \brief Non-blocking pop: the oldest element, or nothing if the channel
  /// is empty. Consumer only.
  std::optional<StreamElement> TryPop() {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_seen_) {
      head_seen_ = head_.load(std::memory_order_acquire);
      if (tail == head_seen_) return std::nullopt;
    }
    std::optional<StreamElement> e(std::in_place);
    Decode(*SlotAt(tail), &*e);
    tail_.store(tail + 1, std::memory_order_release);
    WakeProducer();
    return e;
  }

  /// \brief Closes the channel: pending elements remain poppable; pushes
  /// fail; a blocked producer and a parked consumer wake.
  void Close() {
    closed_.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(wait_mu_);
      not_full_.notify_one();
    }
    WakeConsumer();
  }

  /// \brief Registers the word the consumer parks on: every later push and
  /// Close signals it. nullptr unregisters it. Only the consumer calls this
  /// once the producer runs, and a park on the word (its seq_cst fence) must
  /// follow a registration before the consumer relies on it.
  void SetConsumerWakeup(WakeupWord* wakeup) {
    consumer_.store(wakeup, std::memory_order_relaxed);
  }

  /// \brief Whether an element is queued. The consumer's park predicate.
  bool CanPop() const {
    return head_.load(std::memory_order_acquire) !=
           tail_.load(std::memory_order_relaxed);
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }
  /// \brief Current queue depth. Lock-free; transiently approximate while
  /// the producer and consumer are mid-operation.
  size_t Size() const { return SizeRelaxed(); }
  size_t capacity() const { return capacity_; }
  /// \brief Occupancy in [0,1]; the backpressure signal.
  double Fullness() const {
    return static_cast<double>(SizeRelaxed()) / static_cast<double>(capacity_);
  }
  /// \brief Total nanoseconds the producer spent blocked on a full channel.
  int64_t BlockedNanos() const {
    return blocked_nanos_.load(std::memory_order_relaxed);
  }
  /// \brief Elements pushed so far (every push advanced `head_` once).
  uint64_t PushedCount() const {
    return head_.load(std::memory_order_relaxed);
  }

 private:
  /// One ring slot, two cache lines. For a record `time` and `tag` carry
  /// its event time and key and `size` its encoded payload's length;
  /// control elements use the fields of the same names.
  struct alignas(64) Slot {
    uint32_t size;
    ElementKind kind;
    CheckpointMode mode;
    bool key_scoped;
    int64_t time;
    uint64_t tag;
    union {
      char bytes[kInlineBytes];  ///< the payload, when size <= kInlineBytes
      char* heap;                ///< owned buffer for a longer payload
    };

    bool OnHeap() const { return size > kInlineBytes; }
    const char* payload() const { return OnHeap() ? heap : bytes; }
  };
  static_assert(sizeof(Slot) == 128);

  static size_t RingSize(size_t capacity) {
    size_t n = 1;
    while (n < capacity) n <<= 1;
    return n;
  }

  Slot* SlotAt(uint64_t pos) const { return slots_ + (pos & ring_mask_); }

  // Producer side: writes `e` into a free slot.
  void Encode(const StreamElement& e, Slot* slot) {
    slot->kind = e.kind;
    if (!e.is_record()) {
      slot->size = 0;
      slot->mode = e.mode;
      slot->key_scoped = e.key_scoped;
      slot->time = e.time;
      slot->tag = e.tag;
      return;
    }
    slot->time = e.record.event_time;
    slot->tag = e.record.key;
    scratch_.Clear();
    e.record.payload.EncodeTo(&scratch_);
    const std::string& bytes = scratch_.buffer();
    EVO_CHECK(bytes.size() <= UINT32_MAX) << "record payload over 4 GB";
    slot->size = static_cast<uint32_t>(bytes.size());
    char* dst = slot->OnHeap() ? (slot->heap = new char[bytes.size()])
                               : slot->bytes;
    std::memcpy(dst, bytes.data(), bytes.size());
  }

  // Consumer side: rebuilds the element from its slot and frees the slot's
  // heap buffer, if any. The bytes were encoded by Encode, so a decode
  // error is a bug in the channel.
  static void Decode(const Slot& slot, StreamElement* out) {
    out->kind = slot.kind;
    if (slot.kind != ElementKind::kRecord) {
      out->mode = slot.mode;
      out->key_scoped = slot.key_scoped;
      out->time = slot.time;
      out->tag = slot.tag;
      return;
    }
    out->record.event_time = slot.time;
    out->record.key = slot.tag;
    BinaryReader reader(std::string_view(slot.payload(), slot.size));
    EVO_CHECK_OK(Value::DecodeFrom(&reader, &out->record.payload));
    if (slot.OnHeap()) delete[] slot.heap;
  }

  size_t SizeRelaxed() const {
    uint64_t head = head_.load(std::memory_order_relaxed);
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    return head > tail ? static_cast<size_t>(head - tail) : 0;
  }

  // Whether the producer may push; also its park predicate. The bound is the
  // logical capacity, which may be below the ring size when the requested
  // capacity is not a power of two. tail_ is reloaded only when the last
  // value seen says full; its acquire load orders the consumer's decode of
  // a slot before our write to it.
  bool CanPush() {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_seen_ < capacity_) return true;
    tail_seen_ = tail_.load(std::memory_order_acquire);
    return head - tail_seen_ < capacity_;
  }

  bool Enqueue(const StreamElement& e) {
    while (true) {
      if (closed_.load(std::memory_order_acquire)) return false;
      if (CanPush()) break;
      // Full: park until the consumer frees a slot. The fence after the
      // waiting flag is set pairs with the one in WakeProducer(), so a pop
      // between our failed check and the wait cannot be missed (see
      // WakeProducer for the ordering argument).
      Stopwatch blocked;
      {
        std::unique_lock<std::mutex> lock(wait_mu_);
        producer_waiting_.store(true, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        not_full_.wait(lock, [&] {
          return CanPush() || closed_.load(std::memory_order_acquire);
        });
        producer_waiting_.store(false, std::memory_order_relaxed);
      }
      blocked_nanos_.fetch_add(blocked.ElapsedNanos(),
                               std::memory_order_relaxed);
    }
    const uint64_t head = head_.load(std::memory_order_relaxed);
    Encode(e, SlotAt(head));
    head_.store(head + 1, std::memory_order_release);
    WakeConsumer();
    return true;
  }

  // Wake paths. The waiting-flag check lets uncontended traffic skip the
  // mutex entirely, but on its own it races: our release store of tail_ and
  // this load of the flag may reorder (StoreLoad is legal even under x86
  // TSO), while the parking producer's flag store and its predicate's load
  // of tail_ may likewise reorder. If both do, the producer parks on a stale
  // "full" tail and we skip the notify on a stale flag — a missed wakeup
  // that hangs it forever. The seq_cst fences here and after the flag store
  // in Enqueue forbid that: in the single total order of seq_cst fences,
  // either our fence comes first (the producer's predicate sees the freed
  // slot and never blocks) or theirs does (we see the flag and take the
  // lock, which orders the notify after the predicate re-check). The
  // consumer side is the same argument with the task's WakeupWord.
  // The fence orders the head_ publish before the reads of consumer_ and of
  // the word's parked flag; it pairs with the fence in WakeupWord::Park,
  // which follows both the consumer's registration and its parked store.
  void WakeConsumer() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (WakeupWord* w = consumer_.load(std::memory_order_relaxed)) {
      w->SignalFenced();
    }
  }

  void WakeProducer() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!producer_waiting_.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(wait_mu_);
    not_full_.notify_one();
  }

  const size_t capacity_;   ///< logical bound (backpressure threshold)
  const size_t ring_mask_;  ///< ring size (pow2 >= capacity) minus one
  Slot* const slots_;       ///< raw storage; written in [tail_, head_)

  // Each cursor has one writer and sits on its own cache line, so the
  // producer and consumer do not false-share. Next to it, its writer keeps
  // the last value it loaded of the other side's cursor, and reloads that
  // cursor (a cache miss while the other side is active) only when the
  // stale value says full or empty.
  alignas(64) std::atomic<uint64_t> head_{0};  ///< next position to enqueue
  uint64_t tail_seen_ = 0;                     ///< producer's copy of tail_
  BinaryWriter scratch_;  ///< producer's encode buffer, reused across pushes
  alignas(64) std::atomic<uint64_t> tail_{0};  ///< next position to dequeue
  uint64_t head_seen_ = 0;                     ///< consumer's copy of head_
  alignas(64) std::atomic<bool> closed_{false};
  std::atomic<int64_t> blocked_nanos_{0};

  std::atomic<WakeupWord*> consumer_{nullptr};  ///< see SetConsumerWakeup

  // Blocked-producer slow path; untouched while the consumer keeps up.
  std::mutex wait_mu_;
  std::condition_variable not_full_;
  std::atomic<bool> producer_waiting_{false};
};

}  // namespace evo::dataflow
