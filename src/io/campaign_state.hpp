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
// state separate. A run that covers every shard — fresh, resumed or
// merged — then hands each one, once it is serialized, to the same
// reducer (engine/shard_reduce.hpp), which performs the same pairing as
// the shards finish.
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
#include "engine/ordered_drain.hpp"
#include "io/manifest.hpp"
#include "io/serial.hpp"

namespace sable {

/// Writes the covered subset of `states` (shards s with states[0][s]
/// non-null; every distinguisher must agree on coverage) atomically to
/// `path`. `states` must be a num_distinguishers x num_shards matrix.
/// It serializes each covered shard into its segment and hands them to
/// the one SABLSTAT writer, the one CheckpointDrain publishes through.
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

/// The checkpoint side of one persisted pass (run_persisted_waves over a
/// worklist, with a checkpoint path). The party that ran work[k] calls
/// shard_done(k) once it has fed the shard: that serializes the shard's
/// accumulator blobs once into a per-shard segment, laid out as SABLSTAT
/// stores them, and completes k in an OrderedDrain
/// (engine/ordered_drain.hpp). Whichever party drains advances the done
/// prefix of the worklist, and each time the prefix reaches a multiple of
/// checkpoint_every_shards (or the end of the worklist) it publishes a
/// checkpoint of the resumed shards plus exactly that prefix, written
/// from the cached segments. The other parties keep claiming shards
/// meanwhile. A throwing shard (the party calls fail()) or checkpoint
/// write stops the drain; the last published checkpoint stays.
class CheckpointDrain {
 public:
  /// `states` holds the resumed shards and nothing of `work` yet; `work`
  /// (non-empty, ascending) must outlive the drain.
  CheckpointDrain(const CampaignManifest& manifest, const ShardStates& states,
                  const CampaignPersistence& persist,
                  std::span<const std::size_t> work);

  /// Called once per work index k by the party that filled
  /// states[·][work[k]], after it did.
  void shard_done(std::size_t k);
  /// Stops publishing: called by a party whose shard threw.
  void fail() { drain_.fail(); }

 private:
  void publish(std::size_t done);

  const CampaignManifest& manifest_;
  const ShardStates& states_;
  const std::string& path_;
  std::span<const std::size_t> work_;
  std::size_t every_;
  std::vector<std::size_t> resumed_;  // ascending
  std::vector<ByteWriter> segments_;  // [num_shards], covered ones filled
  std::vector<std::size_t> covered_;  // publish()'s list; drainer only
  OrderedDrain drain_;
};

/// What one persisted pass hands its driver.
struct PersistedPass {
  /// The uncovered shards of the range, ascending: the driver feeds
  /// every one of them.
  std::span<const std::size_t> work;
  /// The shards loaded from the resume file, ascending.
  std::span<const std::size_t> resumed;
  /// Non-null when the run checkpoints (see CheckpointDrain).
  CheckpointDrain* checkpoints = nullptr;
  /// True when the resumed shards and the work cover every canonical
  /// shard, so the run finalizes; a partial run keeps its raw states.
  bool complete = false;
};

/// Persistence-aware campaign driver shared by the live engine and the
/// replay path: optionally resumes from persist.resume_path, derives the
/// uncovered worklist inside [persist.shard_begin, persist.shard_end)
/// and hands all of it to `accumulate` at once, with a CheckpointDrain
/// when persist.checkpoint_path is set. The drain has serialized every
/// resumed shard before `accumulate` runs. `accumulate` must fill
/// states[d][s] for every shard s = work[k] and, given a drain, call
/// shard_done(k) after each (fail() when a shard throws); only a
/// complete pass may release states (by reducing them), and only once
/// the drain has serialized them. Checkpoints are published every
/// persist.checkpoint_every_shards shards of the worklist's done prefix
/// (0 = once, at its end) — the same files a range run over each prefix
/// would write. With a checkpoint path and an empty worklist (a range
/// already covered, or a resume of a state covering every shard), the
/// state is published once, before `accumulate` runs, so every
/// checkpointing invocation leaves a file. Returns pass.complete: true when every canonical shard
/// is covered afterwards (the caller may finalize), false for a partial
/// run — which requires a checkpoint path, otherwise the partial work
/// would be unrecoverable (InvalidArgument, thrown before `accumulate`,
/// so no shard is simulated or decoded in vain).
bool run_persisted_waves(
    const CampaignManifest& manifest,
    std::span<Distinguisher* const> distinguishers, ShardStates& states,
    const CampaignPersistence& persist,
    const std::function<void(const PersistedPass&)>& accumulate);

}  // namespace sable
