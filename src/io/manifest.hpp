// Campaign identity and persistence knobs.
//
// A CampaignManifest pins everything a trace stream is a pure function
// of — the generator's stream version, the round's functional spec hash,
// the seed, trace count, resolved shard size and key — so every
// persisted artifact (recorded corpus, checkpoint, partial worker state)
// can prove at load time that it belongs to the campaign the caller is
// running. A mismatch on ANY field
// means the bytes on disk describe a different trace stream; loaders
// throw ManifestMismatchError naming the first differing field rather
// than silently folding foreign state into a result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace sable {

class ByteReader;
class ByteWriter;

/// The trace stream this build generates: per-shard plaintexts drawn one
/// next() per 64 state bits and ziggurat noise (stream 2). Stream 1 drew
/// one below(2^bits) per S-box instance and Box–Muller noise; its files
/// still parse but never match a running campaign.
inline constexpr std::uint32_t kCampaignStream = 2;

/// The identity of a campaign's trace stream: two campaigns with equal
/// manifests generate bit-identical traces (the determinism contract in
/// engine/trace_engine.hpp). shard_size and num_shards are stored
/// RESOLVED (campaign_shard_size / layout), never the 0 autotune
/// sentinel, so a manifest's shard decomposition is explicit on disk.
struct CampaignManifest {
  /// Generator version of the stream. save() and load() leave it out:
  /// each container's format version implies it (SABLCORP v3 and
  /// SABLSTAT v2 hold stream 2, older versions stream 1), and writers
  /// accept only kCampaignStream.
  std::uint32_t stream = kCampaignStream;
  /// Functional hash of the RoundSpec (crypto/round_target.hpp:
  /// round_spec_hash) — style, instance count, per-instance truth tables.
  std::uint64_t spec_hash = 0;
  std::uint64_t seed = 0;
  std::uint64_t num_traces = 0;
  std::uint64_t shard_size = 0;  // resolved, 64-granular
  std::uint64_t num_shards = 0;
  /// Stored as the IEEE-754 bit pattern, compared exactly: noise enters
  /// the simulated stream, so "close" sigmas are different campaigns.
  double noise_sigma = 0.0;
  /// Packed round key (CampaignOptions::key).
  std::vector<std::uint8_t> key;

  bool operator==(const CampaignManifest&) const = default;

  void save(ByteWriter& writer) const;
  void load(ByteReader& reader);
};

/// Throws ManifestMismatchError (tagged with `path`) naming the first
/// field on which `actual` disagrees with `expected`, stream first;
/// no-op when equal.
void require_manifest_match(const std::string& path,
                            const CampaignManifest& expected,
                            const CampaignManifest& actual);

/// "All shards" sentinel for CampaignPersistence::shard_end.
inline constexpr std::size_t kAllShards =
    std::numeric_limits<std::size_t>::max();

/// Checkpoint/resume and fan-out controls of a persisted campaign run
/// (TraceEngine::run_distinguishers / replay_distinguishers). Defaults
/// reproduce the plain in-memory run: no resume, no checkpointing, every
/// shard.
struct CampaignPersistence {
  /// Load this campaign-state file first and skip its covered shards.
  /// Empty = fresh start. The file's manifest must match the campaign.
  std::string resume_path;
  /// Write campaign state here — each time another
  /// checkpoint_every_shards shards of this invocation's worklist are
  /// done in canonical order (0 = only once, at the end of its range).
  /// Each checkpoint holds the resumed shards plus that done prefix, and
  /// is published while the campaign runs on: no shard waits for it.
  /// Empty = never checkpoint. Writes are atomic, so an interrupted run
  /// leaves the previous checkpoint intact.
  std::string checkpoint_path;
  std::size_t checkpoint_every_shards = 0;
  /// Canonical shard range [shard_begin, shard_end) THIS invocation
  /// covers — the multi-process fan-out knob: N workers each take a
  /// disjoint range and checkpoint a partial state, merge_partials folds
  /// them. shard_end is clamped to the campaign's shard count.
  std::size_t shard_begin = 0;
  std::size_t shard_end = kAllShards;
};

}  // namespace sable
