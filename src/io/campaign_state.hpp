// Serializable distinguisher state: campaign checkpoints and partial
// worker states as one on-disk format.
//
// A campaign-state file stores the manifest plus RAW per-shard
// accumulator states for a set of covered canonical shards — never
// merged prefixes. That choice is what makes checkpoint/resume and
// multi-process fan-out bit-identical to a single local run: the
// fixed-shape merge tree's pairing depends on the shard count (for
// non-power-of-2 counts a merged prefix would reduce in a DIFFERENT
// association than the tree), so persisted campaigns keep every shard's
// state separate and always replay the exact same reduction at the end.
//
// Layout (little-endian):
//   magic              8 bytes  "SABLSTAT"
//   version            u32      2 (1 in old-stream files: stream 1)
//   manifest           CampaignManifest
//   num_distinguishers u64      (d-order = the caller's distinguisher list)
//   covered_count      u64
//   covered shard ids  covered_count x u64, strictly ascending
//   blobs              covered_count x num_distinguishers x
//                      { blob_len u64, blob bytes } in (shard, d) order
//
// The format version implies the manifest's stream (io/manifest.hpp): v2
// files hold stream 2, and a v1 file loads as stream 1, so it fails the
// manifest check instead of folding old-stream shards into a campaign.
//
// Every blob is length-prefixed and the loader verifies the accumulator
// consumed exactly blob_len bytes, so a corrupt blob cannot silently
// desynchronize the stream; type/config mismatches surface as the
// accumulators' own tagged-load errors, wrapped into a path-tagged
// BadFileError here.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "dpa/distinguisher.hpp"
#include "io/manifest.hpp"

namespace sable {

/// Writes the covered subset of `states` (shards s with states[0][s]
/// non-null; every distinguisher must agree on coverage) atomically to
/// `path`. `states` must be a num_distinguishers x num_shards matrix.
void save_campaign_state(const std::string& path,
                         const CampaignManifest& manifest,
                         const ShardStates& states);

/// Loads a campaign-state file into `states`, creating each accumulator
/// via its distinguisher's make_shard_accumulator() and load()ing the
/// stored moments — prediction tables are rebuilt from the specs, never
/// read from disk. Shards already covered in `states` or covered twice
/// by the file throw ShardIndexError; a manifest that does not match
/// `expected` throws ManifestMismatchError; a distinguisher count
/// mismatch or any malformed blob throws BadFileError. Returns the
/// number of shards loaded.
std::size_t load_campaign_state(const std::string& path,
                                const CampaignManifest& expected,
                                std::span<Distinguisher* const> distinguishers,
                                ShardStates& states);

/// Persistence-aware campaign driver shared by the live engine and the
/// replay path: optionally resumes from persist.resume_path, derives the
/// uncovered worklist inside [persist.shard_begin, persist.shard_end),
/// hands it to `accumulate` in waves of persist.checkpoint_every_shards
/// (0 = one wave), and checkpoints `states` to persist.checkpoint_path
/// after each wave. `accumulate` must fill states[d][s] for every shard
/// in the worklist it is given. Returns true when every canonical shard
/// is covered afterwards (the caller may reduce and finalize), false for
/// a partial run — which requires a checkpoint path, otherwise the
/// partial work would be unrecoverable (InvalidArgument, thrown before
/// the first wave, so no shard is simulated or decoded in vain).
bool run_persisted_waves(
    const CampaignManifest& manifest,
    std::span<Distinguisher* const> distinguishers, ShardStates& states,
    const CampaignPersistence& persist,
    const std::function<void(const std::vector<std::size_t>&)>& accumulate);

}  // namespace sable
