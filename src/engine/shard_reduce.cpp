#include "engine/shard_reduce.hpp"

#include <algorithm>
#include <string>

#include "crypto/round_target.hpp"
#include "util/error.hpp"

namespace sable {

namespace {

// Traces the binning pass reads side by side, sharing each field's
// loads and loop.
constexpr std::size_t kBinTraces = 8;

}  // namespace

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
      levels_(levels),
      stride_(round.state_bytes()) {
  for (std::size_t d = 0; d < distinguishers.size(); ++d) {
    const std::size_t index = distinguishers[d]->sbox_index();
    auto it = std::find_if(slots_.begin(), slots_.end(),
                           [&](const Slot& slot) { return slot.sbox == index; });
    if (it == slots_.end()) it = slots_.insert(it, Slot{index, {}, false, 0});
    it->members.push_back(d);
    it->scalar |= distinguishers[d]->data_kind() == TraceDataKind::kScalar;
  }
  // The binned slots in instance order, so that fields sharing a window
  // are consecutive.
  std::vector<Slot*> binned;
  for (Slot& slot : slots_) {
    if (slot.scalar) binned.push_back(&slot);
  }
  std::sort(binned.begin(), binned.end(),
            [](const Slot* a, const Slot* b) { return a->sbox < b->sbox; });
  const std::vector<SubWordWindow> windows =
      binned.empty() ? std::vector<SubWordWindow>{}
                     : round.sub_word_windows(/*room_above=*/false);
  for (Slot* slot : binned) {
    const SubWordWindow& w = windows[slot->sbox];
    const std::size_t bits = round.sboxes[slot->sbox].in_bits;
    slot->bins = bins_;
    const auto field = static_cast<std::uint32_t>(fields_.size());
    fields_.push_back(Field{.mask = (std::uint64_t{1} << bits) - 1,
                            .shift = w.shift,
                            .bins = static_cast<std::uint32_t>(bins_)});
    bins_ += std::size_t{1} << bits;
    if (windows_.empty() || windows_.back().byte != w.byte) {
      windows_.push_back(Window{.byte = w.byte, .begin = field, .end = field});
    }
    ++windows_.back().end;
    reach_ = std::max<std::size_t>(reach_, w.byte + sizeof(std::uint64_t));
  }
}

ShardFeed::Scratch ShardFeed::make_scratch() const {
  return Scratch{std::vector<Scratch::Bin>(bins_), {}, 0,
                 std::vector<std::uint8_t>(shard_size_)};
}

double ShardFeed::bin(const ShardData& data, double shift,
                      Scratch& scratch) const {
  Scratch::Bin* __restrict bins = scratch.bins.data();
  std::fill_n(bins, bins_, Scratch::Bin{});
  const Field* fields = fields_.data();
  const std::size_t stride = stride_;
  const std::uint8_t* pts = data.pts;
  const double* samples = data.samples;
  // Bins traces [t, t + kTraces) side by side and returns q plus their
  // squared shifted samples, added in trace order. Each field's bins take
  // the traces' adds in trace order, and different fields' bins are
  // disjoint. Each add is the trace's shifted sample and 1 in one vector
  // add: the sum lane's add is block_histogram_scalar's scalar add, and
  // the count lane counts exactly (a shard holds far fewer than 2^53
  // traces). q is passed by value so that it stays in a register.
  const auto bin_traces = [&]<std::size_t kTraces>(std::size_t t, double q,
                                                   auto&& load) {
    Scratch::Bin::Pair add[kTraces];
    for (std::size_t j = 0; j < kTraces; ++j) {
      const double d = samples[t + j] - shift;
      q += d * d;
      add[j] = Scratch::Bin::Pair{d, 1.0};
    }
    for (const Window& window : windows_) {
      std::uint64_t words[kTraces];
      for (std::size_t j = 0; j < kTraces; ++j) {
        words[j] = load(pts + (t + j) * stride + window.byte);
      }
      for (std::uint32_t k = window.begin; k < window.end; ++k) {
        const Field f = fields[k];
        for (std::size_t j = 0; j < kTraces; ++j) {
          bins[f.bins + ((words[j] >> f.shift) & f.mask)].pair += add[j];
        }
      }
    }
    return q;
  };
  // Traces [0, direct) read every window in place; a later trace's last
  // window would run past the end of pts.
  const std::size_t bytes = data.count * stride;
  const std::size_t direct =
      bytes >= reach_ ? (bytes - reach_) / stride + 1 : 0;
  const auto in_place = [](const std::uint8_t* at) { return load_le64(at); };
  double q = 0.0;
  std::size_t t = 0;
  for (; t + kBinTraces <= direct; t += kBinTraces) {
    q = bin_traces.template operator()<kBinTraces>(t, q, in_place);
  }
  for (; t < direct; ++t) {
    q = bin_traces.template operator()<1>(t, q, in_place);
  }
  const std::uint8_t* end = pts + bytes;
  for (; t < data.count; ++t) {
    q = bin_traces.template operator()<1>(t, q, [end](const std::uint8_t* at) {
      return load_le64_before(at, end);
    });
  }
  return q;
}

void ShardFeed::expand(const Slot& slot, const ShardData& data, double shift,
                       double sum_sq, Scratch& scratch) const {
  BlockHistogram& hist = scratch.histogram;
  const std::size_t n = std::size_t{1} << round_.sboxes[slot.sbox].in_bits;
  const Scratch::Bin* bins = scratch.bins.data() + slot.bins;
  for (std::size_t p = 0; p < n; ++p) {
    hist.sums[p] = bins[p].pair[0];
    hist.counts[p] = static_cast<std::uint64_t>(bins[p].pair[1]);
  }
  // Bins past n stay zero, as a fresh pass over this slot leaves them.
  if (scratch.histogram_bins > n) {
    std::fill(hist.counts + n, hist.counts + scratch.histogram_bins, 0);
    std::fill(hist.sums + n, hist.sums + scratch.histogram_bins, 0.0);
  }
  scratch.histogram_bins = n;
  hist.sum_sq = sum_sq;
  hist.shift = shift;
  hist.count = data.count;
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
  // The shift is the block's first sample, as build_block_histogram's.
  const double shift =
      fields_.empty() || data.count == 0 ? 0.0 : data.samples[0];
  const double sum_sq = fields_.empty() ? 0.0 : bin(data, shift, scratch);
  for (const Slot& slot : slots_) {
    SubWordSource sub_words(round_, data.pts, data.count, slot.sbox,
                            scratch.sub_pts.data());
    if (slot.scalar) expand(slot, data, shift, sum_sq, scratch);
    for (const std::size_t d : slot.members) {
      const bool scalar =
          distinguishers_[d]->data_kind() == TraceDataKind::kScalar;
      ShardBlock block;
      block.start = s * shard_size_;
      block.data = scalar ? data.samples : data.rows;
      block.width = scalar ? 1 : levels_;
      block.count = data.count;
      block.histogram = scalar ? &scratch.histogram : nullptr;
      block.sub_word_source = &sub_words;
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

Worklist resume_worklist(const CampaignManifest& manifest,
                         std::span<Distinguisher* const> distinguishers,
                         ShardStates& states,
                         const CampaignPersistence& persist) {
  const std::size_t num_shards = static_cast<std::size_t>(manifest.num_shards);
  SABLE_REQUIRE(!states.empty() && states[0].size() == num_shards,
                "shard-state matrix must span the campaign's shards");
  if (!persist.resume_path.empty()) {
    load_campaign_state(persist.resume_path, manifest, distinguishers,
                        states);
  }
  SABLE_REQUIRE(persist.shard_begin <= persist.shard_end,
                "campaign shard range is reversed");
  SABLE_REQUIRE(persist.shard_begin <= num_shards,
                "campaign shard range starts past the campaign");
  const std::size_t end = std::min(persist.shard_end, num_shards);
  Worklist list;
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (states[0][s]) {
      list.resumed.push_back(s);
    } else if (s >= persist.shard_begin && s < end) {
      list.work.push_back(s);
    }
  }
  list.complete = list.resumed.size() + list.work.size() == num_shards;
  // A partial run that was never persisted is lost work — refuse it
  // before any shard runs unless the caller asked for a checkpoint.
  SABLE_REQUIRE(list.complete || !persist.checkpoint_path.empty(),
                "partial campaign range needs a checkpoint path to persist "
                "its shard states");
  return list;
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
