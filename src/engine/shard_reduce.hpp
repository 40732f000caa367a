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
/// accumulator for the shard, extracts sub-plaintexts once per distinct
/// attacked instance (distinguishers attacking the same instance share
/// one slot), and hands each accumulator its ShardBlock — one virtual
/// dispatch per distinguisher per shard.
class ShardFeed {
 public:
  ShardFeed(const RoundSpec& round,
            std::span<Distinguisher* const> distinguishers,
            std::size_t shard_size, std::size_t levels);

  /// Sub-plaintext scratch for one party: one shard-sized slot per
  /// distinct attacked instance.
  std::vector<std::uint8_t> make_scratch() const;

  /// Accumulates canonical shard `s` into column s of `states`. Parties
  /// feed distinct shards, so they touch distinct matrix elements and the
  /// matrix needs no lock.
  void feed(std::size_t s, const ShardData& data,
            std::vector<std::uint8_t>& scratch, ShardStates& states) const;

 private:
  const RoundSpec& round_;
  std::span<Distinguisher* const> distinguishers_;
  std::size_t shard_size_;
  std::size_t levels_;
  std::vector<std::size_t> slot_sbox_;  // slot -> attacked instance
  std::vector<std::size_t> slot_of_;    // distinguisher -> slot
};

/// The one attack-campaign driver: owns the shard-state matrix, runs the
/// persistence waves (resume, range split, checkpoints; one wave over
/// every shard by default), feeds every shard of each wave through
/// ShardFeed on `threads` parties of `workers`, and reduces and
/// finalizes once every shard is covered. The source is the caller's:
/// each party builds one context through make_ctx(), and
/// fill(ctx, s) returns shard s's ShardData, valid until the party's
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
    std::vector<std::uint8_t> scratch;
  };
  const auto accumulate = [&](const std::vector<std::size_t>& work) {
    workers.parallel_for(
        work.size(), threads,
        [&] { return Party{make_ctx(), feed.make_scratch()}; },
        [&](Party& party, std::size_t k) {
          feed.feed(work[k], fill(party.ctx, work[k]), party.scratch, states);
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
