// WorkerPool::parallel_for, the pool's only public scheduler and the one
// every campaign path runs on, the ordered stream included (its drain is
// tested in driver_failure_test): every index runs exactly once for any
// party count (including fewer indices than threads), each party builds
// its local context once and never shares it, a worker exception reaches
// the caller only after every party has joined and leaves the pool
// reusable, and a call nested inside a body completes on ephemeral
// threads. The TSan CI job runs this binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/worker_pool.hpp"

namespace sable {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 7};
constexpr std::size_t kIndexCounts[] = {0, 1, 3, 1000};

TEST(WorkerPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  WorkerPool pool;
  for (std::size_t threads : kThreadCounts) {
    for (std::size_t n : kIndexCounts) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, threads, [] { return 0; },
                        [&](int, std::size_t k) { hits[k].fetch_add(1); });
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(hits[k].load(), 1)
            << "threads " << threads << " n " << n << " index " << k;
      }
    }
  }
}

// One party's context. `owner` is the thread that built it and `uses` is
// deliberately non-atomic: a local shared between parties fails the
// owner check (and is a race TSan reports). The destructor hands the use
// count back so the test can see every index went through some local.
struct PartyLocal {
  std::atomic<std::size_t>* used;
  std::thread::id owner = std::this_thread::get_id();
  std::size_t uses = 0;
  ~PartyLocal() { used->fetch_add(uses); }
};

TEST(WorkerPoolTest, EachPartyBuildsOneLocalAndNeverSharesIt) {
  WorkerPool pool;
  for (std::size_t threads : kThreadCounts) {
    for (std::size_t n : kIndexCounts) {
      std::atomic<std::size_t> built{0};
      std::atomic<std::size_t> used{0};
      pool.parallel_for(
          n, threads,
          [&] {
            built.fetch_add(1);
            return PartyLocal{&used};
          },
          [&](PartyLocal& local, std::size_t) {
            EXPECT_EQ(local.owner, std::this_thread::get_id());
            ++local.uses;
          });
      EXPECT_EQ(built.load(), std::min(threads, n))
          << "threads " << threads << " n " << n;
      EXPECT_EQ(used.load(), n) << "threads " << threads << " n " << n;
    }
  }
}

// Counts the parties still inside their body: built on entry, destroyed
// when the party's body returns or unwinds.
struct LiveParty {
  std::atomic<int>* live;
  ~LiveParty() { live->fetch_sub(1); }
};

TEST(WorkerPoolTest, WorkerExceptionSurfacesAfterEveryPartyJoined) {
  WorkerPool pool;
  for (std::size_t threads : {2u, 7u}) {
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> live{0};
    std::atomic<bool> thrown{false};
    const auto body = [&](LiveParty&, std::size_t) {
      if (std::this_thread::get_id() != caller) {
        thrown.store(true);
        throw std::runtime_error("worker failed");
      }
      // The calling party stays busy until a worker has thrown, so the
      // exception that surfaces is a worker's, raised mid-run.
      while (!thrown.load()) std::this_thread::yield();
    };
    EXPECT_THROW(pool.parallel_for(
                     1000, threads,
                     [&] {
                       live.fetch_add(1);
                       return LiveParty{&live};
                     },
                     body),
                 std::runtime_error);
    EXPECT_EQ(live.load(), 0) << "threads " << threads;

    std::atomic<std::size_t> count{0};
    pool.parallel_for(100, threads, [] { return 0; },
                      [&](int, std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 100u) << "threads " << threads;
  }
}

TEST(WorkerPoolTest, NestedCallCompletesOnEphemeralThreads) {
  WorkerPool pool;
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 50;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(kOuter, kOuter, [] { return 0; },
                    [&](int, std::size_t outer) {
                      pool.parallel_for(kInner, 3, [] { return 0; },
                                        [&](int, std::size_t inner) {
                                          hits[outer * kInner + inner]
                                              .fetch_add(1);
                                        });
                    });
  for (std::size_t k = 0; k < hits.size(); ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "index " << k;
  }
}

}  // namespace
}  // namespace sable
