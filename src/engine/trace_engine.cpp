#include "engine/trace_engine.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <utility>
#include <vector>

#include "engine/ordered_drain.hpp"
#include "engine/shard_reduce.hpp"
#include "engine/worker_pool.hpp"
#include "io/campaign_state.hpp"
#include "io/corpus.hpp"
#include "io/replay.hpp"
#include "util/error.hpp"
#include "util/lane_word.hpp"

namespace sable {

std::size_t campaign_shard_size(const CampaignOptions& options) {
  // Shard granularity is one 64-lane word: the static-CMOS lane history
  // (crypto/round_target.hpp) runs trace t in lane t % 64, so every shard
  // starts on a fresh lane 0. The max() clamps shard sizes below one
  // granule to a whole word instead of letting the division round them to
  // zero shards.
  constexpr std::size_t kGranule = 64;
  if (options.shard_size == 0) {
    // Autotune. shard_size is part of the stream definition, so the
    // derived size must be a pure function of the options: only
    // num_traces and fixed constants enter — never the thread count or
    // anything probed from the machine. Aim for ~256 shards
    // (dynamic-scheduling slack for any realistic core count without
    // drowning in per-shard setup), keep campaigns up to 1024 traces
    // single-shard, and cap shards at 65536 traces so per-shard
    // trace buffers stay cache-sized.
    constexpr std::size_t kTargetShards = 256;
    constexpr std::size_t kMinShard = 1024;
    constexpr std::size_t kMaxShard = 65536;
    const std::size_t derived =
        options.num_traces / kTargetShards / kGranule * kGranule;
    return std::clamp(derived, kMinShard, kMaxShard);
  }
  return std::max<std::size_t>(kGranule,
                               options.shard_size / kGranule * kGranule);
}

std::uint64_t campaign_shard_seed(std::uint64_t campaign_seed,
                                  std::size_t shard, std::size_t stream) {
  // splitmix64 finalizer over a (seed, shard, stream) counter: every shard
  // gets a decorrelated sub-stream that is reproducible from the campaign
  // seed and the shard index alone, no matter which worker runs it.
  std::uint64_t z =
      campaign_seed ^
      (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(shard) + 1)) ^
      (0xD1B54A32D192ED03ULL * (static_cast<std::uint64_t>(stream) + 1));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::size_t campaign_thread_count(const CampaignOptions& options) {
  return resolve_thread_count(options.num_threads);
}

std::size_t campaign_lane_width(const CampaignOptions&, LogicStyle) {
  return supported_lane_widths().back();
}

// ---- persistent engine state ----------------------------------------------

namespace detail {

// An engine's persistent campaign state: the idle worker clones campaigns
// check workers out of, and the parked campaign threads — spawned on the
// first multi-threaded campaign, reused (not re-created) by every later
// one. Keeping both across campaigns means a sweep of many small
// campaigns (per-style tables, SPICE calibration) pays synthesis and
// tabulation once and cloning once per worker — not once per campaign.
struct EnginePools {
  std::mutex mutex;
  std::vector<std::unique_ptr<RoundTarget>> idle;
  WorkerPool workers;
};

}  // namespace detail

namespace {

// Fixed block-granular decomposition of a campaign: shard s covers traces
// [start(s), start(s) + count(s)) of the canonical trace order.
struct ShardLayout {
  std::size_t shard_size = 0;
  std::size_t num_shards = 0;
  std::size_t num_traces = 0;
  std::size_t start(std::size_t s) const { return s * shard_size; }
  std::size_t count(std::size_t s) const {
    return std::min(shard_size, num_traces - start(s));
  }
};

ShardLayout layout_for(const CampaignOptions& options) {
  ShardLayout layout;
  layout.shard_size = campaign_shard_size(options);
  layout.num_traces = options.num_traces;
  layout.num_shards =
      (options.num_traces + layout.shard_size - 1) / layout.shard_size;
  return layout;
}

// Checked by every campaign entry point before any shard runs.
void validate_options(const RoundSpec& round,
                      const CampaignOptions& options) {
  SABLE_REQUIRE(options.key.size() == round.state_bytes(),
                "CampaignOptions::key must hold round().state_bytes() packed "
                "bytes (use RoundSpec::pack_subkeys)");
  // A NaN, infinite or negative sigma would turn every trace (and every
  // score) into NaN and be stamped into the manifest as is.
  SABLE_REQUIRE(std::isfinite(options.noise_sigma) &&
                    options.noise_sigma >= 0.0,
                "CampaignOptions::noise_sigma must be finite and >= 0");
}

// Simulates one shard of `kind` into caller-provided storage: `out`
// takes count samples (kScalar) or count rows of num_levels() samples
// (kSampled). This is campaign stream kCampaignStream (io/manifest.hpp):
// the plaintexts are RoundSpec::fill_random_states over the shard's
// counter-derived sub-stream 0 — one next() per 64 state bits, so one
// draw per trace for a single S-box or a 16-nibble PRESENT round — and
// the noise is Rng::gaussian's ziggurat over sub-stream 1, in the order
// trace_batch / trace_batch_sampled document. Per-shard RNG streams and
// a fresh target state (the static-CMOS lane history) make the result a
// pure function of (options, shard, kind) — the invariant every
// determinism guarantee rests on. The traces are leakage-table lookups
// (crypto/leakage_table.hpp).
void simulate_shard(RoundTarget& target, const CampaignOptions& options,
                    const ShardLayout& layout, std::size_t shard,
                    TraceDataKind kind, std::uint8_t* pts, double* out) {
  const std::size_t count = layout.count(shard);
  Rng pt_rng(campaign_shard_seed(options.seed, shard, 0));
  target.round().fill_random_states(pt_rng, count, pts);
  Rng noise_rng(campaign_shard_seed(options.seed, shard, 1));
  target.reset_state();
  if (kind == TraceDataKind::kScalar) {
    target.trace_batch(pts, count, options.key.data(), options.noise_sigma,
                       noise_rng, out);
  } else {
    target.trace_batch_sampled(pts, count, options.key.data(),
                               options.noise_sigma, noise_rng, out);
  }
}

// RAII lease of a worker target from the engine's persistent pool: an
// idle clone is reused, a missing one is cloned from the prototype, and
// either way the worker returns to the pool at scope exit — campaigns on
// the same engine share workers instead of re-cloning. Stale lane state
// is harmless: every shard resets the target before simulating.
class WorkerLease {
 public:
  WorkerLease(const RoundTarget& prototype, detail::EnginePools& pool)
      : pool_(pool) {
    {
      std::lock_guard<std::mutex> lock(pool_.mutex);
      if (!pool_.idle.empty()) {
        worker_ = std::move(pool_.idle.back());
        pool_.idle.pop_back();
      }
    }
    if (!worker_) {
      worker_ = std::make_unique<RoundTarget>(prototype.clone());
    }
  }
  ~WorkerLease() {
    std::lock_guard<std::mutex> lock(pool_.mutex);
    pool_.idle.push_back(std::move(worker_));
  }
  WorkerLease(const WorkerLease&) = delete;
  WorkerLease& operator=(const WorkerLease&) = delete;

  RoundTarget& target() { return *worker_; }

 private:
  detail::EnginePools& pool_;
  std::unique_ptr<RoundTarget> worker_;
};

// Per-party context of a simulating campaign: a leased target clone plus
// trace buffers for one shard, so the shard loop never allocates or
// shares mutable state. `samples` holds `sample_width` doubles per trace
// (1 for scalar data, num_levels() for a time-resolved stream); the
// attack driver fills `rows` with time-resolved data beside the scalar
// samples, since a mixed campaign needs both. Consumers that simulate
// into external storage lease a bare WorkerLease instead: run's TraceSet
// slices, and the stream ring's slots (beside an encode scratch).
struct WorkerCtx {
  WorkerLease lease;
  std::vector<std::uint8_t> pts;
  std::vector<double> samples;
  std::vector<double> rows;

  WorkerCtx(const RoundTarget& prototype, detail::EnginePools& pool,
            std::size_t shard_size, std::size_t sample_width,
            std::size_t row_width)
      : lease(prototype, pool),
        pts(shard_size * prototype.round().state_bytes()),
        samples(shard_size * sample_width),
        rows(shard_size * row_width) {}
};

// The ordered stream behind stream(), stream_sampled() and record(), on
// the pool's one scheduler. parallel_for claims shards in canonical
// order; each party simulates its shard of `kind` into slot s % window
// of a ring, runs the stream's parallel step on it, and completes it in
// an OrderedDrain (engine/ordered_drain.hpp), whose drainer hands every
// consecutive completed slot to the ordered step in canonical order,
// never concurrently.
//
// The two steps: with a `writer` (record), the parallel step is the
// codec — encode_shard into the slot's EncodedShard with the party's own
// CodecScratch — and the drain only calls append_encoded, so the encode
// scales with the parties and only the file write stays sequential.
// Without one (stream, stream_sampled) there is no parallel step and the
// drain calls `sink` with the slot's traces.
//
// Slot ownership: a party may fill slot s % window only once the drain
// acquires s (its previous occupant was drained). From then until it
// completes s, the slot — traces and encoded chunk alike — belongs to
// that party alone; from then until the ordered step returns, to the
// drainer. The ring holds `window` slots, sized from the thread count:
// enough slack that parties at different shard speeds do not stall on
// the drain, yet O(threads) memory rather than O(num_shards). Slots are
// cache-line aligned and their buffers recycled, so steady-state
// streaming does not allocate. Claims are in canonical order and a party
// holds at most one undrained shard, so the shard at the drain's turn is
// always being simulated or complete — the wait cannot deadlock. Any
// exception (simulation, encode, sink or write) fails the drain, which
// stops further ordered calls and releases the waiting parties before
// parallel_for rethrows it.
void stream_shards(const RoundTarget& prototype, detail::EnginePools& pool,
                   const CampaignOptions& options, TraceDataKind kind,
                   const TraceSink& sink, CorpusWriter* writer) {
  validate_options(prototype.round(), options);
  const std::size_t width =
      kind == TraceDataKind::kScalar ? 1 : prototype.num_levels();
  SABLE_REQUIRE(width > 0,
                "time-resolved campaigns need at least one logic level");
  const ShardLayout layout = layout_for(options);
  if (layout.num_shards == 0) return;
  const std::size_t pt_stride = prototype.round().state_bytes();
  const std::size_t threads = campaign_thread_count(options);
  struct alignas(64) Slot {
    std::vector<std::uint8_t> pts;
    std::vector<double> samples;
    EncodedShard encoded;
  };
  // A party's context: its leased simulator and its encode scratch.
  struct Party {
    WorkerLease lease;
    CodecScratch codec;
  };
  const std::size_t window = std::min(layout.num_shards, 2 * threads + 2);
  std::vector<Slot> slots(window);
  OrderedDrain drain(window);

  const auto deliver = [&](Party& party, std::size_t s) {
    if (!drain.acquire(s)) return;
    Slot& slot = slots[s % window];
    const std::size_t count = layout.count(s);
    slot.pts.resize(count * pt_stride);
    slot.samples.resize(count * width);
    simulate_shard(party.lease.target(), options, layout, s, kind,
                   slot.pts.data(), slot.samples.data());
    if (writer) {
      writer->encode_shard(slot.pts.data(), slot.samples.data(), count,
                           party.codec, slot.encoded);
    }
    drain.complete(s, [&](std::size_t turn) {
      Slot& head = slots[turn % window];
      if (writer) {
        writer->append_encoded(head.encoded);
      } else {
        sink(head.pts.data(), head.samples.data(), layout.count(turn));
      }
    });
  };

  pool.workers.parallel_for(
      layout.num_shards, threads,
      [&] { return Party{WorkerLease(prototype, pool), {}}; },
      [&](Party& party, std::size_t s) {
        try {
          deliver(party, s);
        } catch (...) {
          drain.fail();
          throw;
        }
      });
}

TraceSet run_campaign(const RoundTarget& prototype, detail::EnginePools& pool,
                      const CampaignOptions& options) {
  const ShardLayout layout = layout_for(options);
  const std::size_t stride = prototype.round().state_bytes();
  TraceSet traces;
  traces.pt_width = stride;
  traces.plaintexts.resize(options.num_traces * stride);
  traces.samples.resize(options.num_traces);
  // Shards map to disjoint slices of the canonical trace order, so workers
  // simulate straight into the final TraceSet with no ordering hand-off.
  pool.workers.parallel_for(
      layout.num_shards, campaign_thread_count(options),
      [&] { return WorkerLease(prototype, pool); },
      [&](WorkerLease& lease, std::size_t s) {
        simulate_shard(lease.target(), options, layout, s,
                       TraceDataKind::kScalar,
                       traces.plaintexts.data() + layout.start(s) * stride,
                       traces.samples.data() + layout.start(s));
      });
  return traces;
}

// The live source of the attack driver (engine/shard_reduce.hpp): each
// party leases a target clone and generates the trace data each data
// kind needs. A mixed campaign simulates the shard once per kind; the
// plaintext stream is regenerated identically (same counter-derived seed)
// and each kind draws its noise exactly as its single-kind campaign
// would, so sharing a campaign never changes a result.
bool run_distinguishers_impl(const RoundTarget& prototype,
                             detail::EnginePools& pool,
                             const CampaignOptions& options,
                             const CampaignManifest& manifest,
                             std::span<Distinguisher* const> distinguishers,
                             const CampaignPersistence& persist) {
  const ShardLayout layout = layout_for(options);
  const std::size_t levels = prototype.num_levels();
  bool any_scalar = false;
  bool any_sampled = false;
  for (Distinguisher* d : distinguishers) {
    if (d->data_kind() == TraceDataKind::kScalar) {
      any_scalar = true;
    } else {
      any_sampled = true;
    }
  }
  return drive_attack_campaign(
      manifest, prototype.round(), distinguishers, levels, persist,
      pool.workers, campaign_thread_count(options),
      [&] {
        return WorkerCtx(prototype, pool, layout.shard_size,
                         any_scalar ? 1 : 0, any_sampled ? levels : 0);
      },
      [&](WorkerCtx& ctx, std::size_t s) {
        if (any_scalar) {
          simulate_shard(ctx.lease.target(), options, layout, s,
                         TraceDataKind::kScalar, ctx.pts.data(),
                         ctx.samples.data());
        }
        if (any_sampled) {
          simulate_shard(ctx.lease.target(), options, layout, s,
                         TraceDataKind::kSampled, ctx.pts.data(),
                         ctx.rows.data());
        }
        return ShardData{ctx.pts.data(), ctx.samples.data(), ctx.rows.data(),
                         layout.count(s)};
      });
}

}  // namespace

// ---- TraceEngine ----------------------------------------------------------

TraceEngine::TraceEngine(const RoundSpec& round, const Technology& tech)
    : target_(round, tech),
      pools_(std::make_unique<detail::EnginePools>()) {}

TraceEngine::TraceEngine(const SboxSpec& spec, LogicStyle style,
                         const Technology& tech)
    : target_(single_sbox_round(spec, style), tech),
      pools_(std::make_unique<detail::EnginePools>()) {}

TraceEngine::~TraceEngine() = default;
TraceEngine::TraceEngine(TraceEngine&&) noexcept = default;
TraceEngine& TraceEngine::operator=(TraceEngine&&) noexcept = default;

const SboxSpec& TraceEngine::spec(std::size_t sbox_index) const {
  SABLE_REQUIRE(sbox_index < round().num_sboxes(),
                "S-box index out of range for the round");
  return round().sboxes[sbox_index];
}

TraceSet TraceEngine::run(const CampaignOptions& options) {
  validate_options(round(), options);
  return run_campaign(target_, *pools_, options);
}

void TraceEngine::stream(const CampaignOptions& options,
                         const TraceSink& sink) {
  stream_shards(target_, *pools_, options, TraceDataKind::kScalar, sink,
                nullptr);
}

void TraceEngine::stream_sampled(const CampaignOptions& options,
                                 const TraceSink& sink) {
  stream_shards(target_, *pools_, options, TraceDataKind::kSampled, sink,
                nullptr);
}

void TraceEngine::run_distinguishers(
    const CampaignOptions& options,
    std::span<Distinguisher* const> distinguishers) {
  run_distinguishers(options, distinguishers, CampaignPersistence{});
}

bool TraceEngine::run_distinguishers(
    const CampaignOptions& options,
    std::span<Distinguisher* const> distinguishers,
    const CampaignPersistence& persist) {
  SABLE_REQUIRE(!distinguishers.empty(),
                "run_distinguishers needs at least one distinguisher");
  SABLE_REQUIRE(options.num_traces >= 2,
                "attack campaigns require at least two traces");
  validate_options(round(), options);
  for (Distinguisher* d : distinguishers) {
    SABLE_REQUIRE(d != nullptr, "distinguisher must not be null");
    d->validate(round());
    if (d->data_kind() == TraceDataKind::kSampled) {
      SABLE_REQUIRE(target_.num_levels() > 0,
                    "time-resolved campaigns need at least one logic level");
    }
  }
  const CampaignManifest manifest = campaign_manifest(options);
  return run_distinguishers_impl(target_, *pools_, options, manifest,
                                 distinguishers, persist);
}

void TraceEngine::merge_partials(
    const CampaignOptions& options,
    std::span<Distinguisher* const> distinguishers,
    const std::vector<std::string>& partial_paths) {
  SABLE_REQUIRE(!distinguishers.empty(),
                "merge_partials needs at least one distinguisher");
  SABLE_REQUIRE(!partial_paths.empty(),
                "merge_partials needs at least one partial state file");
  validate_options(round(), options);
  for (Distinguisher* d : distinguishers) {
    SABLE_REQUIRE(d != nullptr, "distinguisher must not be null");
    d->validate(round());
  }
  const CampaignManifest manifest = campaign_manifest(options);
  ShardStates states = make_shard_states(
      distinguishers.size(), static_cast<std::size_t>(manifest.num_shards));
  // Overlaps between files throw ShardIndexError from the loader; gaps
  // surface in the reducer's full-coverage check.
  for (const std::string& path : partial_paths) {
    load_campaign_state(path, manifest, distinguishers, states);
  }
  reduce_and_finalize_distinguishers(distinguishers, states, pools_->workers,
                                     campaign_thread_count(options));
}

void TraceEngine::record(const CampaignOptions& options, TraceDataKind kind,
                         const std::string& path, std::uint32_t compression) {
  validate_options(round(), options);
  SABLE_REQUIRE(options.num_traces >= 1,
                "recording requires at least one trace");
  CorpusManifest manifest;
  manifest.campaign = campaign_manifest(options);
  manifest.compression = compression;
  manifest.pt_stride = round().state_bytes();
  if (kind == TraceDataKind::kScalar) {
    manifest.kind = kCorpusKindScalar;
    manifest.sample_width = 1;
  } else {
    SABLE_REQUIRE(target_.num_levels() > 0,
                  "time-resolved campaigns need at least one logic level");
    manifest.kind = kCorpusKindSampled;
    manifest.sample_width = target_.num_levels();
  }
  CorpusWriter writer(path, manifest);
  // The parties encode each shard with their own scratch (encode_shard is
  // pure), and the drain appends the chunks in canonical order, never
  // concurrently — append_encoded's contract — though not always on this
  // thread.
  stream_shards(target_, *pools_, options, kind, TraceSink{}, &writer);
  writer.finish();
}

bool TraceEngine::replay(const CorpusReader& corpus,
                         std::span<Distinguisher* const> distinguishers,
                         const CampaignPersistence& persist,
                         std::size_t num_threads) {
  return replay_distinguishers(corpus, round(), distinguishers, persist,
                               num_threads, &pools_->workers);
}

CampaignManifest TraceEngine::campaign_manifest(
    const CampaignOptions& options) const {
  const ShardLayout layout = layout_for(options);
  CampaignManifest manifest;
  manifest.spec_hash = round_spec_hash(round());
  manifest.seed = options.seed;
  manifest.num_traces = options.num_traces;
  manifest.shard_size = layout.shard_size;
  manifest.num_shards = layout.num_shards;
  manifest.noise_sigma = options.noise_sigma;
  manifest.key = options.key;
  return manifest;
}

}  // namespace sable
