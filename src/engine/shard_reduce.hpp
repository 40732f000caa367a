// The attack-campaign driver every path shares. Simulated campaigns and
// corpus replay feed their shards through ONE per-shard feed on ONE
// scheduler, and they — like multi-process partial-state merges —
// reduce and finalize through the SAME code, so their results are
// bit-identical by construction: the same blocks reach the same
// accumulators and reduce through the same fixed shape. Many attack
// sets (every subkey of a round) are one flattened distinguisher list,
// so each shard is produced once for all of them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dpa/block_stats.hpp"
#include "dpa/distinguisher.hpp"
#include "engine/worker_pool.hpp"
#include "io/campaign_state.hpp"
#include "io/manifest.hpp"

namespace sable {

struct RoundSpec;  // crypto/round_target.hpp

/// A `distinguishers` x `shards` shard-state matrix with every shard
/// uncovered (null).
ShardStates make_shard_states(std::size_t distinguishers, std::size_t shards);

/// Reduces a fully covered shard-state matrix (states[d][s] non-null for
/// every d, s) and finalizes each distinguisher with its root. Ordered
/// distinguishers (MTD) reduce by the strict serial left fold in
/// canonical shard order; unordered ones through the fixed-shape binary
/// merge tree with each round's disjoint merges spread over `workers`
/// (up to `threads` parties) — the pairing, and therefore the result,
/// is bit-identical to the serial tree for any thread count. Throws
/// InvalidArgument when any shard state is missing.
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
/// accumulator for the shard and walks the distinct attacked instances
/// (slots; distinguishers attacking the same instance share one). Per
/// slot it extracts the sub-plaintexts once, bins the scalar block
/// histogram once if any scalar distinguisher attacks the instance, and
/// hands each of the slot's accumulators its ShardBlock — one virtual
/// dispatch per distinguisher per shard.
class ShardFeed {
 public:
  ShardFeed(const RoundSpec& round,
            std::span<Distinguisher* const> distinguishers,
            std::size_t shard_size, std::size_t levels);

  /// One party's working set, reused slot after slot: the current slot's
  /// sub-plaintexts and its scalar block histogram.
  struct Scratch {
    std::vector<std::uint8_t> sub_pts;  // [shard_size]
    BlockHistogram histogram;
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
    bool scalar = false;                // some member is kScalar
  };

  const RoundSpec& round_;
  std::span<Distinguisher* const> distinguishers_;
  std::size_t shard_size_;
  std::size_t levels_;
  std::vector<Slot> slots_;
};

/// The one attack-campaign driver: owns the shard-state matrix, runs the
/// persisted pass (resume, range split, checkpoints; see
/// run_persisted_waves), feeds every shard of the worklist through
/// ShardFeed in ONE parallel_for on `threads` parties of `workers`, and
/// reduces and finalizes once every shard is covered. With a checkpoint
/// path each party also hands its fed shard to the CheckpointDrain, which
/// serializes it once and publishes checkpoints from an ordered drain
/// while the parties keep claiming shards: no wave ends in a barrier.
/// Without one the pass takes no lock and serializes nothing. The source
/// is the caller's: each party builds one context through make_ctx(),
/// and fill(ctx, s) returns shard s's ShardData, valid until the party's
/// next fill. Returns false for a partial persisted run (see
/// run_persisted_waves), true when the results were finalized.
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
  const auto accumulate = [&](std::span<const std::size_t> work,
                              CheckpointDrain* checkpoints) {
    workers.parallel_for(
        work.size(), threads,
        [&] { return Party{make_ctx(), feed.make_scratch()}; },
        [&](Party& party, std::size_t k) {
          try {
            feed.feed(work[k], fill(party.ctx, work[k]), party.scratch,
                      states);
            if (checkpoints) checkpoints->shard_done(k);
          } catch (...) {
            if (checkpoints) checkpoints->fail();
            throw;
          }
        });
  };
  if (!run_persisted_waves(manifest, distinguishers, states, persist,
                           accumulate)) {
    return false;
  }
  reduce_and_finalize_distinguishers(distinguishers, states, workers,
                                     threads);
  return true;
}

}  // namespace sable
