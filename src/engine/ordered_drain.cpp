#include "engine/ordered_drain.hpp"

#include "util/error.hpp"

namespace sable {

OrderedDrain::OrderedDrain(std::size_t window)
    : window_(window), done_(window, false) {
  SABLE_REQUIRE(window > 0, "an ordered drain needs a window of at least one");
}

bool OrderedDrain::acquire(std::size_t k) {
  std::unique_lock<std::mutex> lock(mutex_);
  space_cv_.wait(lock, [&] { return failed_ || k < turn_ + window_; });
  return !failed_;
}

void OrderedDrain::fail() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    failed_ = true;
  }
  space_cv_.notify_all();
}

}  // namespace sable
