#include "io/replay.hpp"

#include "crypto/round_target.hpp"
#include "engine/shard_reduce.hpp"
#include "engine/worker_pool.hpp"
#include "io/corpus_cache.hpp"
#include "util/error.hpp"

namespace sable {

namespace {

// The per-evaluation validation replay performs ONCE up front (the
// corpus structure itself was already validated when the reader was
// constructed): spec hash when `check_spec` (SharedCorpus memoizes it
// across evaluations), stride, and every distinguisher's contract.
void validate_for_replay(const CorpusManifest& cm, const std::string& path,
                         const RoundSpec& round,
                         std::span<Distinguisher* const> distinguishers,
                         bool check_spec) {
  const CampaignManifest& manifest = cm.campaign;
  SABLE_REQUIRE(!distinguishers.empty(),
                "replay needs at least one distinguisher");
  SABLE_REQUIRE(manifest.num_traces >= 2,
                "attack campaigns require at least two traces");
  if (check_spec && round_spec_hash(round) != manifest.spec_hash) {
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

// The SharedCorpus source of the attack driver: each party holds one
// lease, dropped before the next acquire, so a party pins at most one
// cached slot.
bool replay_leased(SharedCorpus& corpus, const RoundSpec& round,
                   std::span<Distinguisher* const> distinguishers,
                   const CampaignPersistence& persist, WorkerPool& workers,
                   std::size_t threads) {
  const CorpusManifest& cm = corpus.manifest();
  return drive_attack_campaign(
      cm.campaign, round, distinguishers,
      static_cast<std::size_t>(cm.sample_width), persist, workers, threads,
      [] { return SharedCorpus::Lease(); },
      [&](SharedCorpus::Lease& lease, std::size_t s) {
        lease = SharedCorpus::Lease();
        lease = corpus.acquire(s);
        return shard_data(lease.view());
      });
}

}  // namespace

bool replay_distinguishers(const CorpusReader& corpus, const RoundSpec& round,
                           std::span<Distinguisher* const> distinguishers,
                           const CampaignPersistence& persist,
                           std::size_t num_threads, WorkerPool* pool) {
  const CorpusManifest& cm = corpus.manifest();
  validate_for_replay(cm, corpus.path(), round, distinguishers,
                      /*check_spec=*/true);
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

bool replay_distinguishers(SharedCorpus& corpus, const RoundSpec& round,
                           std::span<Distinguisher* const> distinguishers,
                           const CampaignPersistence& persist,
                           std::size_t num_threads, WorkerPool* pool) {
  const std::uint64_t hash = round_spec_hash(round);
  const bool check_spec = !corpus.spec_validated(hash);
  validate_for_replay(corpus.manifest(), corpus.reader().path(), round,
                      distinguishers, check_spec);
  if (check_spec) corpus.note_spec_validated(hash);
  WorkerPool local_pool;
  return replay_leased(corpus, round, distinguishers, persist,
                       pool ? *pool : local_pool,
                       resolve_thread_count(num_threads));
}

void replay_shared(SharedCorpus& corpus, const RoundSpec& round,
                   std::span<const std::span<Distinguisher* const>> sets,
                   std::size_t num_threads, WorkerPool* pool) {
  SABLE_REQUIRE(!sets.empty(), "replay_shared needs at least one attack set");
  const std::uint64_t hash = round_spec_hash(round);
  const bool check_spec = !corpus.spec_validated(hash);
  for (std::size_t k = 0; k < sets.size(); ++k) {
    validate_for_replay(corpus.manifest(), corpus.reader().path(), round,
                        sets[k], check_spec && k == 0);
  }
  if (check_spec) corpus.note_spec_validated(hash);

  // Parties claim whole sets and drive each, start to finish, on their
  // own thread: the set's shard loop streams every chunk through the
  // shared cache, so concurrent sets decode each chunk once between them
  // instead of once each.
  WorkerPool local_pool;
  WorkerPool& workers = pool ? *pool : local_pool;
  workers.parallel_for(sets.size(), resolve_thread_count(num_threads),
                       [] { return 0; }, [&](int, std::size_t k) {
                         replay_leased(corpus, round, sets[k], {}, workers,
                                       /*threads=*/1);
                       });
}

}  // namespace sable
