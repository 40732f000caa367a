// TraceEngine — batched, thread-sharded trace generation with streaming
// consumption, over round targets.
//
// The engine turns a RoundSpec — N S-box instances synthesized side by
// side in one logic style — into power-trace campaigns at MTD scale.
// Within a shard, each trace's summed power is a few leakage-table
// lookups, one per instance (crypto/leakage_table.hpp: the tables are
// built once by the bit-parallel circuit simulators and reproduce them
// bit for bit); across shards, a worker pool spreads the campaign over
// cores. Traces are either retained in a TraceSet (run) or handed
// block-by-block in canonical order to streaming consumers (stream /
// stream_sampled) — and attacks skip the hand-off entirely through the
// distinguisher pipeline (run_distinguishers): every attack is a
// Distinguisher whose per-shard accumulators ride the worker pool and
// reduce through a fixed-shape binary merge tree (or an ordered fold for
// MTD), so an attack over 10^7 traces needs O(guesses) memory per shard
// and one pass. run_distinguishers is the one attack driver: any number
// of distinguishers — e.g. a CPA per subkey of a 16-S-box round — share
// ONE generated campaign instead of regenerating it per attack, and
// run_attack below is that driver with a single attack.
//
// Attacks select one instance via AttackSelector{sbox_index, model, bit}:
// the accumulators consume that instance's sub-plaintexts and guess its
// subkey while the other N-1 instances contribute algorithmic noise — the
// paper's real threat model for a cipher's nonlinear layer.
//
// Determinism: a campaign is defined as a sequence of fixed-size shards
// (shard_size traces, rounded to whole 64-lane words). Shard s draws its
// plaintexts and noise from counter-derived sub-streams
// campaign_shard_seed(seed, s, ·) and starts from fresh target state,
// so its traces depend only on (options, s) — never on which worker ran
// it or how many there were. The merge tree's shape depends only on the
// shard count. Results are bit-identical for any num_threads, including
// 1. shard_size is therefore part of the stream definition (it sets the
// shard boundaries), not a pure performance knob — which is why the
// shard_size = 0 autotune derives the size from num_traces and fixed
// constants alone (see campaign_shard_size), never from the machine.
//
// SIMD: campaigns read leakage tables, which the u64 batch simulators
// and the portable lane packer build once per engine, so no campaign
// simulates in a vector word. Every kernel is one portable body, so a
// campaign is bit-identical on every machine.
// Workers are persistent: each engine keeps a pool of worker clones AND a
// parked thread pool (engine/worker_pool.hpp) alive across campaigns, so
// sweeps of many small campaigns pay synthesis, tabulation, cloning and
// thread creation once — not once per campaign.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "crypto/round_target.hpp"
#include "dpa/distinguisher.hpp"
#include "dpa/mtd.hpp"
#include "dpa/second_order.hpp"
#include "dpa/streaming.hpp"
#include "io/corpus.hpp"
#include "io/manifest.hpp"
#include "power/trace.hpp"
#include "util/error.hpp"

namespace sable {

class CorpusReader;  // io/corpus.hpp

struct CampaignOptions {
  std::size_t num_traces = 0;
  /// Packed round key: one sub-key per S-box instance, LSB-first in
  /// instance order (nibble-packed for 4-bit S-boxes; see
  /// RoundSpec::pack_subkeys). Must be round().state_bytes() long — the
  /// default single zero byte fits any single-S-box target.
  std::vector<std::uint8_t> key = {0};
  /// Gaussian measurement noise RMS [J] added per trace (per sample for
  /// time-resolved campaigns). Must be finite and >= 0: every campaign
  /// entry point throws InvalidArgument before any shard runs otherwise.
  double noise_sigma = 0.0;
  /// Seed of the campaign's plaintext/noise streams; one seed reproduces
  /// the exact trace sequence bit for bit.
  std::uint64_t seed = 0xA77ACC;
  /// Traces per campaign shard (rounded down to whole 64-lane words).
  /// Shards are the unit of parallel scheduling AND of the stream
  /// definition: changing shard_size changes the generated traces.
  /// 0 (the default) autotunes from num_traces alone — a pure function
  /// of the options, so autotuned campaigns are still reproducible
  /// everywhere; see campaign_shard_size for the exact rule.
  std::size_t shard_size = 0;
  /// Worker threads the campaign shards are scheduled over.
  /// 0 = hardware concurrency. Any value yields bit-identical results.
  std::size_t num_threads = 0;
};

/// Shard granularity of a campaign: shard_size rounded down to whole
/// 64-lane words, CLAMPED to at least one word — a shard_size in [1, 63]
/// yields 64-trace shards rather than rounding to zero.
///
/// shard_size = 0 autotunes: clamp(num_traces / 256 rounded down to a
/// whole 64-lane word, 1024, 65536). The constants are fixed — NOT
/// derived from the thread count or the machine — so the
/// autotuned stream is exactly as reproducible as an explicit size:
/// campaigns up to 1024 traces stay single-shard, larger ones aim for
/// ~256 shards (comfortable dynamic-scheduling slack for any realistic
/// core count) and cap the shard at 65536 traces so per-shard buffers
/// stay cache-sized.
std::size_t campaign_shard_size(const CampaignOptions& options);

/// Seed of shard `shard`'s sub-stream `stream` (0 = plaintexts, 1 =
/// noise): a splitmix64-style mix of the campaign seed and a counter, so
/// shards are decorrelated yet reproducible from (seed, shard) alone.
std::uint64_t campaign_shard_seed(std::uint64_t campaign_seed,
                                  std::size_t shard, std::size_t stream);

/// Worker threads a campaign resolves to (0 = hardware concurrency).
std::size_t campaign_thread_count(const CampaignOptions& options);

/// Widest lane word compiled into this binary: a one-line forward to
/// supported_lane_widths().back() (util/lane_word.hpp). Campaigns no
/// longer have a lane width (they read leakage tables); the forward stays
/// for callers that report or pack at the former campaign width. No
/// argument changes the result.
std::size_t campaign_lane_width(const CampaignOptions& options,
                                LogicStyle style);

/// Receives (plaintexts, samples, count) blocks as the campaign streams.
/// `plaintexts` holds count * round().state_bytes() packed bytes — one
/// byte per trace for single-S-box targets, the wide state for rounds
/// (extract an instance's sub-plaintexts with RoundSpec::sub_words).
/// `samples` holds one sample per trace from stream(), and count rows of
/// target().num_levels() samples from stream_sampled().
using TraceSink =
    std::function<void(const std::uint8_t*, const double*, std::size_t)>;

namespace detail {
struct EnginePools;  // persistent worker clones + thread pool
}  // namespace detail

class TraceEngine {
 public:
  /// An engine over a full round: every instance of `round` is
  /// synthesized (identical specs share a circuit) and simulated side by
  /// side, emitting summed power.
  TraceEngine(const RoundSpec& round, const Technology& tech);

  /// Single-S-box adapter (the historic constructor): the N = 1 round.
  TraceEngine(const SboxSpec& spec, LogicStyle style, const Technology& tech);

  ~TraceEngine();
  TraceEngine(TraceEngine&&) noexcept;
  TraceEngine& operator=(TraceEngine&&) noexcept;

  /// Runs the campaign and retains every trace (for batch-style consumers
  /// and offline re-analysis). Shards are simulated in parallel and land
  /// directly in their canonical-order slice of the TraceSet, whose
  /// pt_width is the round's packed state width.
  TraceSet run(const CampaignOptions& options);

  /// Runs the campaign without retaining traces: each shard of at most
  /// campaign_shard_size() traces is simulated (in parallel across
  /// shards) and handed to `sink` in canonical shard order, then its
  /// storage is recycled. The sink is never called concurrently with
  /// itself, but it runs on whichever campaign thread finished the next
  /// shard — the calling thread or a pool thread — so it must not rely on
  /// thread identity (thread_local state, thread-affine handles); plain
  /// captured state needs no locking, as consecutive calls are ordered by
  /// the stream's mutex. An exception from the sink stops the stream and
  /// reaches the caller. In-flight shards are bounded, so a slow sink
  /// cannot accumulate unbounded buffers.
  void stream(const CampaignOptions& options, const TraceSink& sink);

  /// As stream(), but time-resolved: each trace is a row of
  /// target().num_levels() per-logic-level samples, so the sink's sample
  /// buffer holds `count` such rows back to back. Covers every logic
  /// style (differential, static CMOS, WDDL).
  void stream_sampled(const CampaignOptions& options, const TraceSink& sink);

  /// Drives any set of pluggable distinguishers through ONE simulated
  /// campaign — the engine's one attack driver (run_attack is the
  /// single-attack shorthand). Per shard, each distinguisher's
  /// ShardAccumulator consumes the shard's block (one binning pass for
  /// every attacked instance, sub-plaintexts extracted only where an
  /// accumulator reads them, one virtual dispatch per distinguisher per
  /// shard); per-shard states reduce as the shards
  /// finish, through the fixed-shape merge tree, or the ordered left fold
  /// for Distinguisher::ordered() (MTD prefix semantics). Afterwards each
  /// distinguisher holds its typed result. Mixing scalar and
  /// time-resolved distinguishers simulates each shard once per data
  /// kind with identical per-kind streams, so every result is
  /// bit-identical to the same distinguisher run alone. Results are
  /// bit-identical for any num_threads and on every machine.
  ///
  /// `persist` (default: a plain in-memory run) is the persisted pass of
  /// drive_attack_campaign (engine/shard_reduce.hpp): it optionally
  /// resumes shard states from persist.resume_path, simulates only the
  /// uncovered shards of [shard_begin, shard_end) in one pass,
  /// checkpoints to persist.checkpoint_path every checkpoint_every_shards
  /// shards of its done prefix — or once, when nothing is left to
  /// simulate — and, when every canonical shard is covered, reduces and
  /// finalizes exactly as the plain run. Returns true when results were
  /// finalized, false for a partial (persisted) run whose shard states
  /// went to the checkpoint file. Checkpoints store RAW per-shard states
  /// (see io/campaign_state.hpp), so resumed, split and merged campaigns
  /// are bit-identical to one uninterrupted local run.
  bool run_distinguishers(const CampaignOptions& options,
                          std::span<Distinguisher* const> distinguishers,
                          const CampaignPersistence& persist = {});

  /// Folds N partial campaign-state files (each from a
  /// run_distinguishers invocation over a disjoint shard range — the
  /// multi-process fan-out) into finalized results: every file's
  /// manifest must match this campaign, together they must cover every
  /// canonical shard exactly once, and the reduction is the same
  /// fixed-shape tree a single local run performs — bit-identical
  /// results, proven in tests. No simulation happens here.
  void merge_partials(const CampaignOptions& options,
                      std::span<Distinguisher* const> distinguishers,
                      const std::vector<std::string>& partial_paths);

  /// Records the campaign's trace stream to a corpus file at `path`
  /// (io/corpus.hpp): shards are simulated and encoded in parallel and
  /// written in canonical order, scalar or cycle-sampled per `kind`, in
  /// the v3 format. The default compresses chunks with delta+plane+RLE;
  /// pass `kCorpusCompressionNone` for raw chunks. Whatever the encoding,
  /// the corpus replays into any matching distinguisher set
  /// bit-identically to the live campaign.
  void record(const CampaignOptions& options, TraceDataKind kind,
              const std::string& path,
              std::uint32_t compression = kCorpusCompressionDeltaPlaneRle);

  /// Replays a recorded corpus into `distinguishers` — no simulation,
  /// same results, same persistence controls as run_distinguishers
  /// (replay_distinguishers over this engine's worker pool). The corpus
  /// must have been recorded for this engine's round.
  bool replay(const CorpusReader& corpus,
              std::span<Distinguisher* const> distinguishers,
              const CampaignPersistence& persist = {},
              std::size_t num_threads = 0);

  /// The manifest pinning this engine + options campaign (resolved shard
  /// layout, round spec hash) — what every persisted artifact of the
  /// campaign is validated against.
  CampaignManifest campaign_manifest(const CampaignOptions& options) const;

  RoundTarget& target() { return target_; }
  const RoundSpec& round() const { return target_.round(); }
  /// Spec of one S-box instance (the attacked one, usually).
  const SboxSpec& spec(std::size_t sbox_index = 0) const;

 private:
  RoundTarget target_;
  // Hides the persistent worker clones and threads from this header; see
  // trace_engine.cpp.
  std::unique_ptr<detail::EnginePools> pools_;
};

/// Runs ONE attack through run_distinguishers and returns its typed
/// result by value, e.g.
///   run_attack(engine, options, CpaDistinguisher(engine.spec(i), selector))
/// For MTD pass the correct subkey as
/// engine.round().sub_word(options.key.data(), i). Every check of the
/// driver applies: at least two traces, the key width, and the attack's
/// validate() against the round.
template <typename Attack>
auto run_attack(TraceEngine& engine, const CampaignOptions& options,
                Attack attack) {
  Distinguisher* const list[] = {&attack};
  engine.run_distinguishers(options, list);
  return attack.result();
}

}  // namespace sable
