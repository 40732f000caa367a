#include "io/replay.hpp"

#include <vector>

#include "crypto/round_target.hpp"
#include "engine/shard_reduce.hpp"
#include "engine/worker_pool.hpp"
#include "io/corpus_cache.hpp"
#include "util/error.hpp"

namespace sable {

namespace {

// The per-replay validation performed ONCE up front (the corpus
// structure itself was already validated when the reader was
// constructed): stream, spec hash, stride, and every distinguisher's
// contract.
void validate_for_replay(const CorpusManifest& cm, const std::string& path,
                         const RoundSpec& round,
                         std::span<Distinguisher* const> distinguishers) {
  const CampaignManifest& manifest = cm.campaign;
  // An old-stream corpus holds traces no live campaign of this build
  // generates: its scores could not be resumed or merged with any.
  CampaignManifest current = manifest;
  current.stream = kCampaignStream;
  require_manifest_match(path, current, manifest);
  SABLE_REQUIRE(!distinguishers.empty(),
                "replay needs at least one distinguisher");
  SABLE_REQUIRE(manifest.num_traces >= 2,
                "attack campaigns require at least two traces");
  if (round_spec_hash(round) != manifest.spec_hash) {
    throw ManifestMismatchError(
        path,
        "corpus was recorded for a different round spec than the one being "
        "attacked");
  }
  SABLE_REQUIRE(cm.pt_stride == round.state_bytes(),
                "corpus plaintext stride must equal the round's packed "
                "state width");
  const TraceDataKind kind = cm.kind == kCorpusKindScalar
                                 ? TraceDataKind::kScalar
                                 : TraceDataKind::kSampled;
  for (Distinguisher* dist : distinguishers) {
    SABLE_REQUIRE(dist != nullptr, "distinguisher must not be null");
    dist->validate(round);
    SABLE_REQUIRE(dist->data_kind() == kind,
                  "distinguisher's trace data kind does not match the "
                  "corpus (scalar vs cycle-sampled)");
  }
}

// A corpus holds one data kind, validated against every distinguisher,
// so both ShardData streams point at its samples.
ShardData shard_data(const CorpusShardView& view) {
  return ShardData{view.pts, view.samples, view.samples, view.count};
}

}  // namespace

bool replay_distinguishers(const CorpusReader& corpus, const RoundSpec& round,
                           std::span<Distinguisher* const> distinguishers,
                           const CampaignPersistence& persist,
                           std::size_t num_threads, WorkerPool* pool) {
  const CorpusManifest& cm = corpus.manifest();
  validate_for_replay(cm, corpus.path(), round, distinguishers);
  WorkerPool local_pool;
  return drive_attack_campaign(
      cm.campaign, round, distinguishers,
      static_cast<std::size_t>(cm.sample_width), persist,
      pool ? *pool : local_pool, resolve_thread_count(num_threads),
      [] { return CorpusDecodeScratch(); },
      [&](CorpusDecodeScratch& scratch, std::size_t s) {
        return shard_data(corpus.read_shard(s, scratch));
      });
}

void replay_shared(SharedCorpus& corpus, const RoundSpec& round,
                   std::span<const std::span<Distinguisher* const>> sets,
                   std::size_t num_threads, WorkerPool* pool) {
  SABLE_REQUIRE(!sets.empty(), "replay_shared needs at least one attack set");
  // One flattened list: every set sees the same shard blocks and reduces
  // through the same tree or ordered fold as it would alone, and each
  // shard is decoded once per party for all of them.
  std::vector<Distinguisher*> all;
  for (const std::span<Distinguisher* const> set : sets) {
    SABLE_REQUIRE(!set.empty(), "replay needs at least one distinguisher");
    all.insert(all.end(), set.begin(), set.end());
  }
  replay_distinguishers(corpus.reader(), round, all, {}, num_threads, pool);
}

}  // namespace sable
