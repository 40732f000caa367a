// Persistent fork-join worker pool for campaign scheduling.
//
// The sharded TraceEngine used to spawn a fresh std::thread set per
// campaign. For MTD-scale single campaigns that cost vanishes in the
// noise, but the engine's bread-and-butter workloads — per-style
// throughput tables, thread sweeps, SPICE calibration — run MANY
// short campaigns back to back, and on those the per-campaign
// create/join cycle (plus the first-touch page faults of brand-new
// stacks) was a measurable slice of why N threads failed to beat 1.
// This pool parks its threads between campaigns: each call hands a body
// to the parked workers, runs party 0 on the calling thread, and blocks
// until every party returns. Threads are grown on demand up to the
// largest party count ever requested and live for the pool's lifetime
// (the engine's lifetime — EnginePools owns one).
//
// parallel_for() is the pool's one public scheduler, and every campaign
// path runs on it — simulated and replayed shards, shared multi-set
// replay, the reduction of merged partial states and the ordered
// stream — at one atomic fetch_add per index. No party plays a fixed
// role: the ordered stream, the checkpoint publishing of a persisted
// attack and the MTD fold drain from whichever party finishes the next
// shard (engine/ordered_drain.hpp), and the merge tree's nodes are
// merged by whichever party completes their second half
// (engine/shard_reduce.hpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sable {

/// Worker threads a campaign resolves to: `requested`, or the hardware
/// concurrency (at least 1) when `requested` is 0.
std::size_t resolve_thread_count(std::size_t requested);

class WorkerPool {
 public:
  WorkerPool() = default;
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs fn(local, k) for every k < n on min(threads, n) parties. Each
  /// party builds its own `local` once through make_local() — per-party
  /// scratch, leased simulators — and claims indices from one atomic
  /// counter, so the order is free and the scheduler takes no lock.
  /// When fn throws, the other parties stop claiming indices and the
  /// exception reaches the caller after every party has joined (run()'s
  /// contract).
  template <typename MakeLocal, typename Fn>
  void parallel_for(std::size_t n, std::size_t threads, MakeLocal&& make_local,
                    Fn&& fn) {
    if (n == 0) return;
    std::atomic<std::size_t> next{0};
    run(std::min(threads, n), [&](std::size_t) {
      auto local = make_local();
      try {
        for (std::size_t k = next.fetch_add(1); k < n; k = next.fetch_add(1)) {
          fn(local, k);
        }
      } catch (...) {
        next.store(n);
        throw;
      }
    });
  }

 private:
  /// Runs body(0), body(1), …, body(parties - 1) concurrently: party 0 on
  /// the calling thread, the rest on parked pool threads (grown on
  /// demand). Blocks until every party has returned. Exceptions: the
  /// calling party's exception wins, else the first worker exception is
  /// rethrown; either way every party is joined first, so `body` may
  /// safely capture locals by reference. parties <= 1 degenerates to a
  /// plain inline body(0) with no synchronization at all.
  ///
  /// Reentrancy: the parked threads serve one run() at a time. A second
  /// run() arriving while one is in flight (concurrent campaigns on one
  /// engine, or a body that itself calls parallel_for()) falls back to
  /// ephemeral threads for that call — correct, merely without the
  /// parking win.
  void run(std::size_t parties, const std::function<void(std::size_t)>& body);

  void worker_main(std::size_t index);
  static void run_ephemeral(std::size_t parties,
                            const std::function<void(std::size_t)>& body);

  // Everything below is guarded by mutex_. A run is a "generation":
  // run() publishes the body and the participant count and bumps
  // generation_; workers with index <= participants_ wake, execute, and
  // decrement active_; the last decrement releases run() through
  // done_cv_. body_ stays non-null while a run is in flight, which is
  // how an overlapping run() knows to go ephemeral instead.
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;  // threads_[i] is party index i + 1
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t participants_ = 0;
  std::size_t active_ = 0;
  bool shutdown_ = false;
  std::exception_ptr error_;
};

}  // namespace sable
