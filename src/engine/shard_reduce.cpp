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

void reduce_and_finalize_distinguishers(
    std::span<Distinguisher* const> distinguishers, ShardStates& states,
    WorkerPool& workers, std::size_t threads) {
  SABLE_REQUIRE(states.size() == distinguishers.size() && !states.empty(),
                "shard-state matrix must match the distinguisher list");
  const std::size_t num_shards = states[0].size();
  SABLE_REQUIRE(num_shards > 0, "reduction needs at least one shard");
  for (std::size_t d = 0; d < states.size(); ++d) {
    SABLE_REQUIRE(states[d].size() == num_shards,
                  "shard-state matrix must be rectangular");
    const std::size_t missing = static_cast<std::size_t>(
        std::count(states[d].begin(), states[d].end(), nullptr));
    SABLE_REQUIRE(missing == 0,
                  "cannot reduce a partially covered campaign (" +
                      std::to_string(missing) + " shard states missing); "
                      "merge every partial state first");
  }

  // Ordered distinguishers (MTD prefix semantics) keep the strict serial
  // left fold in canonical shard order. Unordered ones reduce through the
  // fixed-shape binary tree — the exact pairing merge_shard_tree defines
  // — but with each round's merges spread over the parked workers: within
  // a round every (d, i) <- (d, i + stride) merge touches disjoint
  // accumulators, so the rounds parallelize freely while the pairing
  // (hence the result, bit for bit) stays that of the serial tree.
  std::vector<std::size_t> unordered;
  for (std::size_t d = 0; d < distinguishers.size(); ++d) {
    if (distinguishers[d]->ordered()) {
      for (std::size_t s = 1; s < num_shards; ++s) {
        states[d][0]->merge(*states[d][s]);
      }
    } else if (num_shards > 1) {
      unordered.push_back(d);
    }
  }
  std::vector<std::size_t> lefts;  // the round's merge targets i
  for (std::size_t stride = 1; !unordered.empty() && stride < num_shards;
       stride *= 2) {
    lefts.clear();
    for (std::size_t i = 0; i + stride < num_shards; i += 2 * stride) {
      lefts.push_back(i);
    }
    workers.parallel_for(unordered.size() * lefts.size(), threads,
                         [] { return 0; }, [&](int, std::size_t k) {
                           const std::size_t d = unordered[k / lefts.size()];
                           const std::size_t i = lefts[k % lefts.size()];
                           states[d][i]->merge(*states[d][i + stride]);
                         });
  }
  for (std::size_t d = 0; d < distinguishers.size(); ++d) {
    distinguishers[d]->finalize(*states[d][0]);
  }
}

}  // namespace sable
