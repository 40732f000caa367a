// The pluggable distinguisher pipeline: one contract every attack speaks,
// one engine driver that runs any set of them over a single campaign.
//
// A Distinguisher describes an attack (what trace data it consumes, which
// S-box instance it targets, how its per-shard partial results reduce); a
// ShardAccumulator is its per-shard state. The TraceEngine drives the
// pipeline (TraceEngine::run_distinguishers): shards are simulated on the
// worker pool, each distinguisher's accumulator consumes the shard's
// block, and the per-shard states reduce either through the fixed-shape
// binary merge tree (unordered — CPA, DoM, multi-CPA, second-order) or an
// explicitly ordered left fold in canonical shard order (the MTD
// checkpoint semantics). Both run as the shards finish, on the workers
// (ShardReducer, engine/shard_reduce.hpp), with the pairing fixed by the
// shard count. finalize() then turns the reduced root into the
// distinguisher's typed result.
//
// Hot-path contract: accumulate() receives whole shard blocks, so there is
// ONE virtual dispatch per distinguisher per shard — the per-trace inner
// loops run devirtualized inside the concrete accumulators (the streaming
// classes in streaming.hpp / second_order.hpp). A per-trace virtual call
// would add an indirect call to every trace's few-nanosecond update;
// per-shard calls are free.
//
// Determinism: a shard accumulator is a pure function of its shard's
// traces, the reduction shape is a function of the shard count alone, and
// ordered reductions fold strictly in canonical shard order, one step at
// a time — so every distinguisher result is bit-identical for any
// num_threads and on every machine, like the campaigns they generalize.
//
// Running several distinguishers in one call shares the simulation: a
// 16-subkey attack on a 16-S-box round costs one campaign, not sixteen
// (one pass bins every attacked instance's scalar block histogram, and
// sub-plaintexts are extracted once per instance, only where an
// accumulator reads them). Mixing
// scalar and time-resolved distinguishers is allowed; each shard is then
// simulated once per data kind with identical per-kind streams, keeping
// both bit-identical to their single-kind campaigns.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "crypto/leakage.hpp"
#include "dpa/attack.hpp"
#include "dpa/mtd.hpp"
#include "dpa/second_order.hpp"
#include "dpa/streaming.hpp"

namespace sable {

/// What per-trace data a distinguisher consumes.
enum class TraceDataKind {
  kScalar,   // one summed power sample per trace (trace_batch)
  kSampled,  // num_levels() per-logic-level samples (trace_batch_sampled)
};

/// One attacked instance's sub-plaintexts of one shard, extracted from the
/// shard's packed states into a caller's buffer on first use (get()), then
/// served from there. A feed hands every accumulator on the instance the
/// same source, so the instance is extracted at most once per shard, and
/// not at all when every accumulator contracts the block's histogram.
/// Single-threaded: one party owns the source and its buffer.
class SubWordSource {
 public:
  /// `states` holds `count` packed states of `round`; `out` has room for
  /// `count` sub-words. All three must outlive the source.
  SubWordSource(const RoundSpec& round, const std::uint8_t* states,
                std::size_t count, std::size_t sbox_index, std::uint8_t* out)
      : round_(round),
        states_(states),
        count_(count),
        sbox_index_(sbox_index),
        out_(out) {}

  /// The sub-plaintexts (RoundSpec::sub_words), extracted on the first
  /// call.
  const std::uint8_t* get();

 private:
  const RoundSpec& round_;
  const std::uint8_t* states_;
  std::size_t count_;
  std::size_t sbox_index_;
  std::uint8_t* out_;
  bool extracted_ = false;
};

/// One shard's worth of traces, as handed to ShardAccumulator::accumulate:
/// `data` holds `count` traces of `width` doubles each (width 1 for
/// kScalar, the target's level count for kSampled), and sub_words() are
/// the attacked instance's sub-plaintexts — `sub_pts` when the caller
/// filled it, else extracted from `sub_word_source` on the first call.
/// Accumulators read them through sub_words() only, and only when they
/// need them. `start` is the canonical campaign index of the first trace
/// — ordered distinguishers (MTD) locate their checkpoints with it.
/// `histogram`, when set, is the block's scalar BlockHistogram over
/// exactly traces [0, count) (dpa/block_stats.hpp): the engine bins every
/// attacked instance of a shard in one pass and every scalar accumulator
/// on an instance contracts its histogram instead of re-binning the
/// block, so the engine extracts an instance's sub-words only for blocks
/// that are still binned or cut (sampled blocks, MTD shards a checkpoint
/// cuts). It is null for sampled blocks and for callers that build blocks
/// themselves; scalar accumulators then bin the block on their own, with
/// bit-identical results. A block and everything it points to are valid
/// for the one accumulate() call it is handed to.
struct ShardBlock {
  std::size_t start = 0;
  const std::uint8_t* sub_pts = nullptr;
  const double* data = nullptr;
  std::size_t count = 0;
  std::size_t width = 1;
  const BlockHistogram* histogram = nullptr;
  SubWordSource* sub_word_source = nullptr;

  const std::uint8_t* sub_words() const;
};

class ByteReader;
class ByteWriter;

/// Per-shard accumulation state. accumulate() consumes whole blocks;
/// merge() folds another accumulator of the SAME distinguisher over a
/// later disjoint trace range into this one (for ordered distinguishers,
/// strictly the next range in canonical order).
///
/// save()/load() are the campaign-persistence hooks (io/campaign_state.hpp):
/// save() serializes a RAW (unreduced) shard state bit-exactly; load()
/// overwrites a freshly made_shard_accumulator()'d state with a saved one,
/// throwing InvalidArgument when the blob belongs to a different
/// accumulator type or configuration. Checkpoints store shard states
/// individually — never merged prefixes — so resumed and merged campaigns
/// replay the exact fixed-shape reduction of a local run.
class ShardAccumulator {
 public:
  virtual ~ShardAccumulator() = default;
  virtual void accumulate(const ShardBlock& block) = 0;
  virtual void merge(ShardAccumulator& other) = 0;
  virtual void save(ByteWriter& writer) const = 0;
  virtual void load(ByteReader& reader) = 0;
};

/// The engine's shard-state matrix: states[d][s] is distinguisher d's
/// accumulator for canonical shard s (null while s is uncovered). The
/// shared currency of the campaign driver, checkpoint/resume and the
/// multi-process partial-state merge.
using ShardStates = std::vector<std::vector<std::unique_ptr<ShardAccumulator>>>;

/// An attack the engine can drive through a campaign. Implementations are
/// single-use state machines: run_distinguishers() creates shard
/// accumulators, reduces them, and hands the root to finalize(), after
/// which the typed result() accessor of the concrete class is valid.
/// Re-running overwrites the result.
class Distinguisher {
 public:
  virtual ~Distinguisher() = default;

  virtual TraceDataKind data_kind() const = 0;
  /// The attacked S-box instance (whose sub-plaintexts accumulate() gets).
  virtual std::size_t sbox_index() const = 0;
  /// True for distinguishers whose reduction must be the ordered left
  /// fold over canonical shard order (prefix semantics — MTD); false
  /// selects the fixed-shape binary merge tree.
  virtual bool ordered() const { return false; }
  /// Checks this distinguisher against the campaign's round (selector
  /// range, spec identity). Throws InvalidArgument on mismatch.
  virtual void validate(const RoundSpec& round) const = 0;
  /// Fresh per-shard state; copies of the distinguisher's prototype share
  /// the immutable prediction table, so this is O(guesses).
  virtual std::unique_ptr<ShardAccumulator> make_shard_accumulator()
      const = 0;
  /// Consumes the fully reduced root accumulator.
  virtual void finalize(ShardAccumulator& root) = 0;
};

/// The checks every attack entry point (run, replay, merge) makes of its
/// list: at least one distinguisher, no null entry, and each one valid
/// for `round` (Distinguisher::validate). Throws InvalidArgument.
void validate_distinguishers(const RoundSpec& round,
                             std::span<Distinguisher* const> distinguishers);

namespace detail {

/// The body every single-accumulator distinguisher shares: the spec it
/// attacks, its selector, a prototype accumulator each shard copies (the
/// copies share the immutable prediction table) and the finalized result.
/// Each shard accumulates into a copy of the prototype; finalize() reads
/// `Acc::result()` off the reduced root (scalar CPA reports its
/// `combined` scores). The members are defined in distinguisher.cpp and
/// explicitly instantiated there for the four distinguishers below, so a
/// new attack of this shape adds one instantiation there and a
/// constructor here.
template <typename Acc, typename Result, TraceDataKind kKind>
class AccumulatorDistinguisher : public Distinguisher {
 public:
  TraceDataKind data_kind() const override { return kKind; }
  std::size_t sbox_index() const override { return selector_.sbox_index; }
  void validate(const RoundSpec& round) const override;
  std::unique_ptr<ShardAccumulator> make_shard_accumulator() const override;
  void finalize(ShardAccumulator& root) override;

  const AttackSelector& selector() const { return selector_; }
  const Result& result() const;

 protected:
  AccumulatorDistinguisher(const SboxSpec& spec, const AttackSelector& selector,
                           Acc prototype)
      : spec_(spec), selector_(selector), prototype_(std::move(prototype)) {}

 private:
  SboxSpec spec_;
  AttackSelector selector_;
  Acc prototype_;
  std::optional<Result> result_;
};

}  // namespace detail

/// First-order streaming CPA on one subkey (wraps a scalar StreamingCpa
/// and reports its one column's scores; run alone through run_attack).
/// Many instances in one run_distinguishers() call attack many subkeys in
/// one pass.
class CpaDistinguisher final
    : public detail::AccumulatorDistinguisher<StreamingCpa, AttackResult,
                                              TraceDataKind::kScalar> {
 public:
  CpaDistinguisher(const SboxSpec& spec, const AttackSelector& selector)
      : AccumulatorDistinguisher(
            spec, selector, StreamingCpa(spec, selector.model, selector.bit)) {}
};

/// Difference-of-means on one predicted output bit (wraps StreamingDom;
/// selector.model is ignored — DoM is inherently the single-bit model, so
/// validate() requires selector.bit in range whatever the model).
class DomDistinguisher final
    : public detail::AccumulatorDistinguisher<StreamingDom, AttackResult,
                                              TraceDataKind::kScalar> {
 public:
  DomDistinguisher(const SboxSpec& spec, const AttackSelector& selector)
      : AccumulatorDistinguisher(spec, selector,
                                 StreamingDom(spec, selector.bit)) {}
};

/// Time-resolved CPA: one correlation column per logic level, best |ρ|
/// over the sample axis per guess (wraps StreamingCpa::time_resolved).
/// `width` must equal the campaign target's num_levels().
class MultiCpaDistinguisher final
    : public detail::AccumulatorDistinguisher<
          StreamingCpa, MultiAttackResult, TraceDataKind::kSampled> {
 public:
  MultiCpaDistinguisher(const SboxSpec& spec, const AttackSelector& selector,
                        std::size_t width)
      : AccumulatorDistinguisher(
            spec, selector,
            StreamingCpa::time_resolved(spec, selector.model, width,
                                        selector.bit)) {}
};

/// Second-order centered-product CPA across logic-level pairs (wraps
/// StreamingSecondOrderCpa) — the stronger distinguisher the ROADMAP
/// queued on top of the multisample campaigns.
class SecondOrderCpaDistinguisher final
    : public detail::AccumulatorDistinguisher<StreamingSecondOrderCpa,
                                              SecondOrderAttackResult,
                                              TraceDataKind::kSampled> {
 public:
  SecondOrderCpaDistinguisher(const SboxSpec& spec,
                              const AttackSelector& selector)
      : AccumulatorDistinguisher(
            spec, selector,
            StreamingSecondOrderCpa(spec, selector.model, selector.bit)) {}
};

/// The measurements-to-disclosure experiment as an ordered distinguisher:
/// each shard accumulator feeds its shard through a scalar StreamingCpa
/// (the one CPA accumulator at width 1) and snapshots the in-shard
/// checkpoints as width-1 accumulators too. A shard no checkpoint falls
/// strictly inside contracts the block's shared histogram in one
/// add_histogram call (a checkpoint exactly at the shard end still
/// snapshots after it); a cut shard goes through add_block one
/// checkpoint segment at a time. The left fold in canonical shard order
/// ranks every snapshot against the merged prefix of the shards before
/// it. Segments and merge order are fixed by the ladder and the shard
/// layout, so the MTD curve is bit-identical across thread counts and
/// machines.
/// The checkpoint ladder is canonicalized at construction: sorted,
/// unique, restricted to [2, num_traces]. `num_traces` must be the
/// campaign's trace count: finalize() throws InvalidArgument when the
/// reduced campaign holds any other count, rather than report an MTD over
/// a clipped or unreached ladder.
class MtdDistinguisher final : public Distinguisher {
 public:
  MtdDistinguisher(const SboxSpec& spec, const AttackSelector& selector,
                   std::size_t correct_key,
                   const std::vector<std::size_t>& checkpoints,
                   std::size_t num_traces);

  TraceDataKind data_kind() const override { return TraceDataKind::kScalar; }
  std::size_t sbox_index() const override { return selector_.sbox_index; }
  bool ordered() const override { return true; }
  void validate(const RoundSpec& round) const override;
  std::unique_ptr<ShardAccumulator> make_shard_accumulator() const override;
  void finalize(ShardAccumulator& root) override;

  const MtdResult& result() const;

 private:
  SboxSpec spec_;
  AttackSelector selector_;
  std::size_t correct_key_;
  std::size_t num_traces_;
  // Shared with every shard accumulator (immutable after construction).
  std::shared_ptr<const std::vector<std::size_t>> ladder_;
  StreamingCpa prototype_;
  std::optional<MtdResult> result_;
};

}  // namespace sable
