#include "engine/shard_reduce.hpp"

#include <algorithm>
#include <string>

#include "crypto/round_target.hpp"
#include "util/error.hpp"

namespace sable {

ShardStates make_shard_states(std::size_t distinguishers, std::size_t shards) {
  ShardStates states(distinguishers);
  for (auto& row : states) row.resize(shards);
  return states;
}

ShardFeed::ShardFeed(const RoundSpec& round,
                     std::span<Distinguisher* const> distinguishers,
                     std::size_t shard_size, std::size_t levels)
    : round_(round),
      distinguishers_(distinguishers),
      shard_size_(shard_size),
      levels_(levels) {
  for (std::size_t d = 0; d < distinguishers.size(); ++d) {
    const std::size_t index = distinguishers[d]->sbox_index();
    auto it = std::find_if(slots_.begin(), slots_.end(),
                           [&](const Slot& slot) { return slot.sbox == index; });
    if (it == slots_.end()) it = slots_.insert(it, Slot{index, {}, false});
    it->members.push_back(d);
    it->scalar |= distinguishers[d]->data_kind() == TraceDataKind::kScalar;
  }
}

ShardFeed::Scratch ShardFeed::make_scratch() const {
  return Scratch{std::vector<std::uint8_t>(shard_size_), {}};
}

void ShardFeed::feed(std::size_t s, const ShardData& data, Scratch& scratch,
                     ShardStates& states) const {
  // The accumulators are constructed here, by the party that runs the
  // shard, not serially up front: with thousands of shards the upfront
  // loop was serial work on the caller, and consecutive heap allocations
  // from one thread pack accumulators of different shards into shared
  // cache lines, which the workers then dirty from different cores.
  for (std::size_t d = 0; d < distinguishers_.size(); ++d) {
    states[d][s] = distinguishers_[d]->make_shard_accumulator();
  }
  for (const Slot& slot : slots_) {
    round_.sub_words(data.pts, data.count, slot.sbox, scratch.sub_pts.data());
    if (slot.scalar) {
      build_block_histogram(scratch.sub_pts.data(), data.samples, data.count,
                            scratch.histogram);
    }
    for (const std::size_t d : slot.members) {
      const bool scalar =
          distinguishers_[d]->data_kind() == TraceDataKind::kScalar;
      ShardBlock block;
      block.start = s * shard_size_;
      block.sub_pts = scratch.sub_pts.data();
      block.data = scalar ? data.samples : data.rows;
      block.width = scalar ? 1 : levels_;
      block.count = data.count;
      block.histogram = scalar ? &scratch.histogram : nullptr;
      states[d][s]->accumulate(block);
    }
  }
}

ShardReducer::ShardReducer(std::span<Distinguisher* const> distinguishers,
                           ShardStates& states)
    : states_(states),
      num_shards_(states.empty() ? 0 : states[0].size()),
      arrivals_(num_shards_),
      fold_(std::max<std::size_t>(num_shards_, 1)) {
  SABLE_REQUIRE(states.size() == distinguishers.size() && !states.empty(),
                "shard-state matrix must match the distinguisher list");
  SABLE_REQUIRE(num_shards_ > 0, "reduction needs at least one shard");
  for (std::size_t d = 0; d < distinguishers.size(); ++d) {
    SABLE_REQUIRE(states[d].size() == num_shards_,
                  "shard-state matrix must be rectangular");
    (distinguishers[d]->ordered() ? ordered_ : unordered_).push_back(d);
  }
}

void ShardReducer::shard_done(std::size_t s) {
  if (!ordered_.empty()) {
    fold_.complete(s, [&](std::size_t j) {
      if (j == 0) return;  // shard 0 is the fold's target
      for (const std::size_t d : ordered_) {
        states_[d][0]->merge(*states_[d][j]);
        states_[d][j].reset();
      }
    });
  }
  if (unordered_.empty()) return;
  // The subtree rooted at `left` of `width` shards is complete; climb
  // while this party completes the parent too. A node with no right half
  // (left + width >= n) merges nothing, as in the tree's ragged edge.
  std::size_t left = s;
  for (std::size_t width = 1; width < num_shards_; width *= 2) {
    left &= ~(2 * width - 1);
    const std::size_t right = left + width;
    if (right >= num_shards_) continue;
    // acq_rel: the first arrival publishes its half, the second sees it.
    if (arrivals_[right].fetch_add(1, std::memory_order_acq_rel) == 0) return;
    for (const std::size_t d : unordered_) {
      states_[d][left]->merge(*states_[d][right]);
      states_[d][right].reset();
    }
  }
}

void finalize_distinguishers(std::span<Distinguisher* const> distinguishers,
                             ShardStates& states) {
  for (std::size_t d = 0; d < distinguishers.size(); ++d) {
    distinguishers[d]->finalize(*states[d][0]);
  }
}

void reduce_and_finalize_distinguishers(
    std::span<Distinguisher* const> distinguishers, ShardStates& states,
    WorkerPool& workers, std::size_t threads) {
  for (const auto& row : states) {
    const std::size_t missing =
        static_cast<std::size_t>(std::count(row.begin(), row.end(), nullptr));
    SABLE_REQUIRE(missing == 0,
                  "cannot reduce a partially covered campaign (" +
                      std::to_string(missing) + " shard states missing); "
                      "merge every partial state first");
  }
  ShardReducer reducer(distinguishers, states);  // checks the shape
  workers.parallel_for(states[0].size(), threads, [] { return 0; },
                       [&](int, std::size_t s) { reducer.shard_done(s); });
  finalize_distinguishers(distinguishers, states);
}

}  // namespace sable
