#include "engine/worker_pool.hpp"

#include <algorithm>

namespace sable {

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void WorkerPool::run_ephemeral(
    std::size_t parties, const std::function<void(std::size_t)>& body) {
  std::mutex error_mutex;
  std::exception_ptr worker_error;
  std::vector<std::thread> spawned;
  spawned.reserve(parties - 1);
  for (std::size_t party = 1; party < parties; ++party) {
    spawned.emplace_back([&, party] {
      try {
        body(party);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!worker_error) worker_error = std::current_exception();
      }
    });
  }
  std::exception_ptr caller_error;
  try {
    body(0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  for (std::thread& thread : spawned) thread.join();
  if (caller_error) std::rethrow_exception(caller_error);
  if (worker_error) std::rethrow_exception(worker_error);
}

void WorkerPool::run(std::size_t parties,
                     const std::function<void(std::size_t)>& body) {
  if (parties <= 1) {
    body(0);
    return;
  }
  bool parked = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A run in flight (body_ set) owns the parked threads: an overlapping
    // run(), including a nested one from the calling thread's own body,
    // takes the ephemeral path below.
    if (body_ == nullptr) {
      parked = true;
      while (threads_.size() < parties - 1) {
        const std::size_t index = threads_.size() + 1;
        threads_.emplace_back([this, index] { worker_main(index); });
      }
      body_ = &body;
      participants_ = parties - 1;
      active_ = parties - 1;
      error_ = nullptr;
      ++generation_;
    }
  }
  if (!parked) {
    run_ephemeral(parties, body);
    return;
  }
  work_cv_.notify_all();
  std::exception_ptr caller_error;
  try {
    body(0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  std::exception_ptr worker_error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return active_ == 0; });
    body_ = nullptr;
    worker_error = error_;
  }
  if (caller_error) std::rethrow_exception(caller_error);
  if (worker_error) std::rethrow_exception(worker_error);
}

void WorkerPool::worker_main(std::size_t index) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* body = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // A generation this thread hasn't served yet, with enough parties
      // to include it: threads beyond participants_ sleep through small
      // runs and catch up (generation_ != seen stays true) on the next
      // one that is wide enough.
      work_cv_.wait(lock, [&] {
        return shutdown_ || (generation_ != seen && index <= participants_);
      });
      if (shutdown_) return;
      seen = generation_;
      body = body_;
    }
    try {
      (*body)(index);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      last = (--active_ == 0);
    }
    if (last) done_cv_.notify_all();
  }
}

}  // namespace sable
