// Timing wrappers for the distinguisher pipeline, used only by the campaign
// benchmark. They sit OUTSIDE the library: a TracedDistinguisher forwards
// every call to a real distinguisher and wraps each shard accumulator it
// makes in a TracedAccumulator, so the engine's own campaign paths (live,
// replay, shared replay, checkpoint/resume, partial merge) run unchanged
// while the wrapper records one span per make_shard_accumulator /
// accumulate / merge / finalize call, tagged with the calling thread.
//
// Forwarding is exact: save()/load() pass straight through, merge() and
// finalize() unwrap their peer before forwarding, so wrapped campaigns
// produce bit-identical results, checkpoints and partial states
// (wrapper_test.cpp proves it). Spans are taken per shard, never per
// trace: a few clock reads per shard block.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "dpa/distinguisher.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

enum class Op : std::uint8_t { kMake, kAccumulate, kMerge, kFinalize, kAppend };

struct Span {
  Op op = Op::kAccumulate;
  std::size_t dist = 0;   // index of the distinguisher in its traced list
  std::size_t start = 0;  // ShardBlock::start for accumulate spans
  std::thread::id thread;
  Clock::time_point t0;
  Clock::time_point t1;
};

// Spans of one traced call, appended from any worker thread. One lock per
// span is cheap at per-shard granularity and keeps the log trivially
// race-free.
class SpanLog {
 public:
  void add(Op op, std::size_t dist, std::size_t start, Clock::time_point t0,
           Clock::time_point t1) {
    const Span span{op, dist, start, std::this_thread::get_id(), t0, t1};
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }
  // Moves the recorded spans out; call only after the traced call returned.
  std::vector<Span> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(spans_, {});
  }

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

class TracedAccumulator final : public sable::ShardAccumulator {
 public:
  TracedAccumulator(std::unique_ptr<sable::ShardAccumulator> inner,
                    SpanLog& log, std::size_t dist)
      : inner_(std::move(inner)), log_(log), dist_(dist) {}

  void accumulate(const sable::ShardBlock& block) override {
    const Clock::time_point t0 = Clock::now();
    inner_->accumulate(block);
    log_.add(Op::kAccumulate, dist_, block.start, t0, Clock::now());
  }
  void merge(sable::ShardAccumulator& other) override {
    const Clock::time_point t0 = Clock::now();
    inner_->merge(unwrap(other));
    log_.add(Op::kMerge, dist_, 0, t0, Clock::now());
  }
  void save(sable::ByteWriter& writer) const override { inner_->save(writer); }
  void load(sable::ByteReader& reader) override { inner_->load(reader); }

  static sable::ShardAccumulator& unwrap(sable::ShardAccumulator& acc) {
    return *dynamic_cast<TracedAccumulator&>(acc).inner_;
  }

 private:
  std::unique_ptr<sable::ShardAccumulator> inner_;
  SpanLog& log_;
  std::size_t dist_;
};

class TracedDistinguisher final : public sable::Distinguisher {
 public:
  TracedDistinguisher(sable::Distinguisher& inner, SpanLog& log,
                      std::size_t dist)
      : inner_(inner), log_(log), dist_(dist) {}

  sable::TraceDataKind data_kind() const override {
    return inner_.data_kind();
  }
  std::size_t sbox_index() const override { return inner_.sbox_index(); }
  bool ordered() const override { return inner_.ordered(); }
  void validate(const sable::RoundSpec& round) const override {
    inner_.validate(round);
  }
  std::unique_ptr<sable::ShardAccumulator> make_shard_accumulator()
      const override {
    const Clock::time_point t0 = Clock::now();
    auto acc = std::make_unique<TracedAccumulator>(
        inner_.make_shard_accumulator(), log_, dist_);
    log_.add(Op::kMake, dist_, 0, t0, Clock::now());
    return acc;
  }
  void finalize(sable::ShardAccumulator& root) override {
    const Clock::time_point t0 = Clock::now();
    inner_.finalize(TracedAccumulator::unwrap(root));
    log_.add(Op::kFinalize, dist_, 0, t0, Clock::now());
  }

 private:
  sable::Distinguisher& inner_;
  SpanLog& log_;
  std::size_t dist_;
};

// Wraps every distinguisher of `list`; the returned owners must outlive
// the traced call, and `pointers` is what the call takes. Distinguisher
// indices continue from `first_index` so several attack sets of one call
// keep distinct span tags.
struct TracedList {
  std::vector<std::unique_ptr<TracedDistinguisher>> owners;
  std::vector<sable::Distinguisher*> pointers;

  TracedList(const std::vector<sable::Distinguisher*>& list, SpanLog& log,
             std::size_t first_index = 0) {
    for (std::size_t d = 0; d < list.size(); ++d) {
      owners.push_back(
          std::make_unique<TracedDistinguisher>(*list[d], log, first_index + d));
      pointers.push_back(owners.back().get());
    }
  }
};

}  // namespace perfbench
