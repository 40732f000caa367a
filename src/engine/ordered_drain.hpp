// In-order hand-off of work that parallel_for completes out of order.
//
// Parties claim indices 0, 1, 2, … from parallel_for and finish them in
// any order. Each marks its index complete here; whichever party finds
// the next index in order complete while nobody is draining becomes the
// drainer, and runs the caller's ordered step for every consecutive
// complete index, in order, with the lock released around each call.
// The `draining` flag keeps the ordered step sequential (never
// concurrent with itself, though not pinned to one thread), and the
// completion check and the flag's release share one critical section,
// so no complete index is ever left behind. No party waits for the
// drain: a party that finds another draining returns at once.
//
// A window bounds how far completions may run ahead of the drain when
// their storage is a ring (the ordered stream's slots): acquire(k)
// blocks until k < drained + window. A drain with nothing to bound
// (checkpoint publishing) sizes the window to the whole index range and
// never calls acquire.
//
// fail() stops the drain for good: no ordered step runs after it, and
// acquire() releases every waiter. A throwing ordered step fails the
// drain itself; parties call fail() when their own work throws, before
// parallel_for rethrows.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <vector>

namespace sable {

class OrderedDrain {
 public:
  /// `window` (> 0): how many indices past the drained prefix may be
  /// acquired or complete at once.
  explicit OrderedDrain(std::size_t window);
  OrderedDrain(const OrderedDrain&) = delete;
  OrderedDrain& operator=(const OrderedDrain&) = delete;

  /// Blocks until index k fits the window. Returns false when the drain
  /// failed; the caller then abandons k.
  bool acquire(std::size_t k);

  /// Marks index k complete. Until this call the caller owns whatever k
  /// fills; from here the drainer does, until step(k) returns. If no
  /// party is draining, this one drains: step(j) for every consecutive
  /// complete j from the drained prefix on, in order. An exception from
  /// step fails the drain and propagates.
  template <typename Step>
  void complete(std::size_t k, Step&& step) {
    std::unique_lock<std::mutex> lock(mutex_);
    done_[k % window_] = true;
    if (draining_) return;
    draining_ = true;
    // Entry turn_ % window_ can only hold index turn_: index
    // turn_ - window_ was drained and cleared, and index turn_ + window_
    // is not acquired before turn_ is drained.
    while (!failed_ && done_[turn_ % window_]) {
      const std::size_t next = turn_;
      lock.unlock();
      try {
        step(next);
      } catch (...) {
        fail();
        throw;
      }
      lock.lock();
      done_[next % window_] = false;
      ++turn_;
      space_cv_.notify_all();
    }
    draining_ = false;
  }

  /// Stops the drain: no step runs after this, and acquire() returns
  /// false to every waiter.
  void fail();

 private:
  std::mutex mutex_;  // guards everything below
  std::condition_variable space_cv_;
  std::size_t window_;
  std::vector<char> done_;  // [window], by index % window
  std::size_t turn_ = 0;    // the next index to drain
  bool draining_ = false;
  bool failed_ = false;
};

}  // namespace sable
