// The attack-campaign driver every path shares. Simulated campaigns and
// corpus replay feed their shards through ONE per-shard feed on ONE
// scheduler, and they — like multi-process partial-state merges —
// reduce and finalize through the SAME reducer, so their results are
// bit-identical by construction: the same blocks reach the same
// accumulators and reduce through the same fixed shape. Many attack
// sets (every subkey of a round) are one flattened distinguisher list,
// so each shard is produced once for all of them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dpa/block_stats.hpp"
#include "dpa/distinguisher.hpp"
#include "engine/ordered_drain.hpp"
#include "engine/worker_pool.hpp"
#include "io/campaign_state.hpp"
#include "io/manifest.hpp"

namespace sable {

struct RoundSpec;  // crypto/round_target.hpp

/// A `distinguishers` x `shards` shard-state matrix with every shard
/// uncovered (null).
ShardStates make_shard_states(std::size_t distinguishers, std::size_t shards);

/// The online reduction of one shard-state matrix. Each shard is handed
/// over once, from any party, as soon as its states are final — fed, or
/// loaded, and serialized when a checkpoint needs them — and is reduced
/// at once with whatever it completes:
///   - unordered distinguishers climb the fixed-shape binary tree: round
///     r merges shard i + 2^r into shard i for every i ≡ 0 (mod 2^(r+1))
///     with i + 2^r < n, ragged right edge included. Each node has one
///     arrival counter; the second half to arrive merges the right-hand
///     states into the left and releases them;
///   - ordered distinguishers (MTD) fold every shard into shard 0 in
///     canonical order through an OrderedDrain, releasing each state
///     once it is folded.
/// The pairing depends on the shard count alone, never on the order the
/// shards arrive in or on which party hands them over, so the roots —
/// states[d][0] once every shard is in — are bit-identical for any
/// thread count. All other states are released by then.
class ShardReducer {
 public:
  /// `states` must have one row of num_shards (> 0) states per
  /// distinguisher and outlive the reducer.
  ShardReducer(std::span<Distinguisher* const> distinguishers,
               ShardStates& states);

  /// Hands over shard s (once per shard). Until this call the caller
  /// owns states[·][s]; from here the reducer does.
  void shard_done(std::size_t s);

 private:
  ShardStates& states_;
  std::size_t num_shards_;
  std::vector<std::size_t> unordered_;
  std::vector<std::size_t> ordered_;
  // [num_shards], by the node's midpoint i + 2^r: each midpoint below n
  // is the right half's first shard of exactly one node.
  std::vector<std::atomic<std::uint8_t>> arrivals_;
  OrderedDrain fold_;
};

/// Finalizes each distinguisher with its reduced root states[d][0].
void finalize_distinguishers(std::span<Distinguisher* const> distinguishers,
                             ShardStates& states);

/// Reduces a fully covered shard-state matrix (states[d][s] non-null for
/// every d, s) and finalizes each distinguisher with its root: every
/// shard goes to one ShardReducer from a parallel_for over `workers` (up
/// to `threads` parties), the same reduction a campaign performs as its
/// shards finish. Throws InvalidArgument ("cannot reduce a partially
/// covered campaign") when any shard state is missing.
void reduce_and_finalize_distinguishers(
    std::span<Distinguisher* const> distinguishers, ShardStates& states,
    WorkerPool& workers, std::size_t threads);

/// One shard's traces as a source hands them to the feed: `count` packed
/// plaintext states, `count` scalar samples for kScalar distinguishers
/// and/or `count` rows of the feed's `levels` doubles for kSampled ones.
/// A corpus holds one kind, so replay points both at its sample stream.
struct ShardData {
  const std::uint8_t* pts = nullptr;
  const double* samples = nullptr;
  const double* rows = nullptr;
  std::size_t count = 0;
};

/// The per-shard feed of one attack set: makes every distinguisher's
/// accumulator for the shard and groups the distinguishers by attacked
/// instance (slots; distinguishers attacking the same instance share
/// one). One pass over the shard bins every slot with a scalar
/// distinguisher at once: per trace it reads each 8-byte window of the
/// packed state once (RoundSpec::sub_word_windows), forms the shifted
/// sample and its square once, and adds {sample, 1} into compact per-slot
/// bins with one vector add, several traces side by side. Each
/// such slot's BlockHistogram then holds exactly the additions, in trace
/// order, that build_block_histogram makes over its sub-plaintexts. Each
/// of the slot's accumulators gets one ShardBlock — one virtual dispatch
/// per distinguisher per shard — whose sub-plaintexts are extracted on
/// first use (SubWordSource), so a slot whose accumulators all contract
/// its histogram is never extracted.
class ShardFeed {
 public:
  ShardFeed(const RoundSpec& round,
            std::span<Distinguisher* const> distinguishers,
            std::size_t shard_size, std::size_t levels);

  /// One party's working set, reused shard after shard: every binned
  /// slot's bins side by side, the current slot's histogram and its
  /// sub-plaintexts when extracted.
  struct Scratch {
    // One bin of a binned slot: its shifted-sample sum and its count.
    struct Bin {
      using Pair = double __attribute__((vector_size(2 * sizeof(double))));
      Pair pair = {0.0, 0.0};  // {sum, count}
    };
    std::vector<Bin> bins;              // [Σ 2^in_bits, binned slots]
    BlockHistogram histogram;
    std::size_t histogram_bins = 0;     // its bins that may be non-zero
    std::vector<std::uint8_t> sub_pts;  // [shard_size]
  };
  Scratch make_scratch() const;

  /// Accumulates canonical shard `s` into column s of `states`. Parties
  /// feed distinct shards, so they touch distinct matrix elements and the
  /// matrix needs no lock.
  void feed(std::size_t s, const ShardData& data, Scratch& scratch,
            ShardStates& states) const;

 private:
  struct Slot {
    std::size_t sbox = 0;               // the attacked instance
    std::vector<std::size_t> members;   // its distinguishers, in list order
    bool scalar = false;                // some member is kScalar: binned
    std::size_t bins = 0;               // its first bin, when binned
  };
  // A binned slot as the binning pass reads it: its sub-word in its
  // window's word, and its first bin.
  struct Field {
    std::uint64_t mask = 0;
    std::uint32_t shift = 0;
    std::uint32_t bins = 0;
  };
  // Consecutive fields (by instance) that read one window.
  struct Window {
    std::uint32_t byte = 0;
    std::uint32_t begin = 0;  // fields [begin, end)
    std::uint32_t end = 0;
  };

  // Zeroes scratch.bins and bins the shard's traces into them; returns
  // Σ (sample - shift)² in trace order.
  double bin(const ShardData& data, double shift, Scratch& scratch) const;
  // Expands the slot's bins into scratch.histogram.
  void expand(const Slot& slot, const ShardData& data, double shift,
              double sum_sq, Scratch& scratch) const;

  const RoundSpec& round_;
  std::span<Distinguisher* const> distinguishers_;
  std::size_t shard_size_;
  std::size_t levels_;
  std::vector<Slot> slots_;
  std::vector<Field> fields_;
  std::vector<Window> windows_;
  std::size_t bins_ = 0;   // Σ 2^in_bits over the binned slots
  std::size_t stride_ = 0; // round.state_bytes()
  std::size_t reach_ = 0;  // the last window's first byte + 8
};

/// The one attack-campaign driver: owns the shard-state matrix, runs the
/// persisted pass (resume, range split, checkpoints; see
/// run_persisted_waves) and feeds every shard of the worklist through
/// ShardFeed in ONE parallel_for on `threads` parties of `workers`. With
/// a checkpoint path each party also hands its fed shard to the
/// CheckpointDrain, which serializes it once and publishes checkpoints
/// from an ordered drain while the parties keep claiming shards: no wave
/// ends in a barrier. Without one the pass takes no lock and serializes
/// nothing. A run that covers every shard reduces as the shards finish:
/// each party hands its shard to one ShardReducer once it is fed and
/// serialized, and the resumed shards go to it from the same
/// parallel_for, so when the pass returns only the roots are left to
/// finalize. A partial run reduces nothing: its checkpoint needs the raw
/// states. The source is the caller's: each party builds one context
/// through make_ctx(), and fill(ctx, s) returns shard s's ShardData,
/// valid until the party's next fill. Returns false for a partial
/// persisted run (see run_persisted_waves), true when the results were
/// finalized.
template <typename MakeCtx, typename Fill>
bool drive_attack_campaign(const CampaignManifest& manifest,
                           const RoundSpec& round,
                           std::span<Distinguisher* const> distinguishers,
                           std::size_t levels,
                           const CampaignPersistence& persist,
                           WorkerPool& workers, std::size_t threads,
                           MakeCtx&& make_ctx, Fill&& fill) {
  const ShardFeed feed(round, distinguishers,
                       static_cast<std::size_t>(manifest.shard_size), levels);
  ShardStates states = make_shard_states(
      distinguishers.size(), static_cast<std::size_t>(manifest.num_shards));
  struct Party {
    decltype(make_ctx()) ctx;
    ShardFeed::Scratch scratch;
  };
  const auto accumulate = [&](const PersistedPass& pass) {
    std::optional<ShardReducer> reducer;
    if (pass.complete) reducer.emplace(distinguishers, states);
    // Indices below `resumed` hand a loaded shard to the reducer; the
    // rest feed work[k - resumed].
    const std::size_t resumed = reducer ? pass.resumed.size() : 0;
    workers.parallel_for(
        resumed + pass.work.size(), threads,
        [&] { return Party{make_ctx(), feed.make_scratch()}; },
        [&](Party& party, std::size_t k) {
          if (k < resumed) {
            reducer->shard_done(pass.resumed[k]);
            return;
          }
          k -= resumed;
          try {
            feed.feed(pass.work[k], fill(party.ctx, pass.work[k]),
                      party.scratch, states);
            if (pass.checkpoints) pass.checkpoints->shard_done(k);
          } catch (...) {
            if (pass.checkpoints) pass.checkpoints->fail();
            throw;
          }
          if (reducer) reducer->shard_done(pass.work[k]);
        });
  };
  if (!run_persisted_waves(manifest, distinguishers, states, persist,
                           accumulate)) {
    return false;
  }
  finalize_distinguishers(distinguishers, states);
  return true;
}

}  // namespace sable
