// Replaying recorded corpora into the distinguisher pipeline: any attack
// the live engine can drive runs from disk instead, with no simulation
// and bit-identical results — the corpus preserves the canonical shard
// decomposition, so accumulation, reduction and finalization are the
// exact operations of the live run on the exact same blocks. Delta-coded
// chunks of a v3 corpus decode through per-thread scratch buffers on the
// way in; the decoded blocks are byte-identical to the recorded traces,
// so the bit-identity guarantee is unchanged.
#pragma once

#include <cstddef>
#include <span>

#include "dpa/distinguisher.hpp"
#include "io/corpus.hpp"
#include "io/manifest.hpp"

namespace sable {

struct RoundSpec;  // crypto/round_target.hpp
class WorkerPool;
class SharedCorpus;  // io/corpus_cache.hpp

/// Drives `distinguishers` over the recorded corpus, honoring the same
/// checkpoint/resume/fan-out controls as a live run. `round` must hash
/// to the corpus's spec (ManifestMismatchError otherwise) and every
/// distinguisher's data kind must match the corpus kind — a scalar
/// corpus cannot feed a time-resolved attack (InvalidArgument). Shards
/// are accumulated in parallel over `num_threads` workers (0 = hardware
/// concurrency) on `pool` (an internal pool when null). Returns true
/// when the campaign completed (results finalized), false for a partial
/// persisted run.
bool replay_distinguishers(const CorpusReader& corpus, const RoundSpec& round,
                           std::span<Distinguisher* const> distinguishers,
                           const CampaignPersistence& persist = {},
                           std::size_t num_threads = 0,
                           WorkerPool* pool = nullptr);

/// Runs several independent attack sets over the corpus in ONE pass.
/// Every set is validated like a replay_distinguishers list; the sets
/// are then concatenated and replayed as one list, so each party decodes
/// a shard once into its own scratch and feeds every set from it. The
/// results are bit-identical to replaying each set on its own. No
/// checkpoint/resume. `perfbench/` is the only non-test caller; the CLI
/// flattens its sets itself.
void replay_shared(SharedCorpus& corpus, const RoundSpec& round,
                   std::span<const std::span<Distinguisher* const>> sets,
                   std::size_t num_threads = 0, WorkerPool* pool = nullptr);

}  // namespace sable
