#pragma once

/// \file wakeup.h
/// \brief A task's wakeup word: the one place a task thread parks when it
/// has nothing to do, and the one thing its producers and controllers
/// signal.
///
/// This is an eventcount. The parker announces itself (`parked_`), issues a
/// seq_cst fence and re-checks its predicate (input ready, control flag
/// set) under the mutex before waiting. A signaller first publishes its
/// state change (a ring slot, a cancel flag), issues a seq_cst fence and
/// only then reads `parked_`. In the single total order of seq_cst fences
/// either the signaller's fence comes first, so the parker's predicate sees
/// the change and never blocks, or the parker's does, so the signaller sees
/// `parked_` and notifies. It passes through the mutex first, which orders
/// the notify after the parker has entered its wait, and notifies after
/// releasing it, so the woken parker does not block again on a mutex the
/// signaller still holds. Signals while nobody is parked cost one fence and
/// one relaxed load.
///
/// Notify once per park: the first signaller of a park flips `notified_`
/// and pays the futex wake; later signallers of the same park see the flag
/// and return. The parker clears the flag under the mutex as it parks, so a
/// signal aimed at an earlier park cannot swallow one for the next (by the
/// same fence argument, a signaller that saw this park's `parked_` also
/// sees the cleared flag, or a later signaller's set).
///
/// Because the notify comes after the mutex is released, a word must
/// outlive every Signal() call on it, not just its parker's Park().

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

namespace evo::dataflow {

class WakeupWord {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// \brief Wakes the parker if it is parked. Call after publishing the
  /// state change the parker's predicate tests.
  void Signal() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    SignalFenced();
  }

  /// \brief Signal() for a caller that has itself issued a seq_cst fence
  /// between its publish and this call.
  void SignalFenced() {
    if (!parked_.load(std::memory_order_relaxed)) return;
    if (notified_.exchange(true, std::memory_order_relaxed)) return;
    // The parker holds mu_ from its predicate check until it waits, so once
    // we pass through mu_ the parker is waiting (or already done).
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_one();
  }

  /// \brief Parks the calling thread until `ready()` holds, a Signal()
  /// arrives, or `deadline` passes. `ready` runs under the word's mutex.
  /// Returns false on timeout, true otherwise (including when `ready()`
  /// already held). One thread parks on a word at a time.
  template <typename Pred>
  bool Park(TimePoint deadline, Pred ready) {
    std::unique_lock<std::mutex> lock(mu_);
    notified_.store(false, std::memory_order_relaxed);
    parked_.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    bool woken = cv_.wait_until(lock, deadline, [&] {
      return notified_.load(std::memory_order_relaxed) || ready();
    });
    parked_.store(false, std::memory_order_relaxed);
    return woken;
  }

  /// \brief Whether a thread is parked on this word right now.
  bool parked() const { return parked_.load(std::memory_order_relaxed); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> parked_{false};
  std::atomic<bool> notified_{false};
};

}  // namespace evo::dataflow
