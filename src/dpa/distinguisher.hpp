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
// checkpoint semantics). finalize() then turns the reduced root into the
// distinguisher's typed result.
//
// Hot-path contract: accumulate() receives whole shard blocks, so there is
// ONE virtual dispatch per distinguisher per shard — the per-trace inner
// loops run devirtualized inside the concrete accumulators (the streaming
// classes in streaming.hpp / second_order.hpp). At the engine's ~45 ns
// per-trace budget, per-trace virtual calls would dominate; per-shard
// calls are free.
//
// Determinism: a shard accumulator is a pure function of its shard's
// traces, the reduction shape is a function of the shard count alone, and
// ordered reductions run on the calling thread — so every distinguisher
// result is bit-identical for any num_threads and on every machine, like
// the campaigns they generalize.
//
// Running several distinguishers in one call shares the simulation: a
// 16-subkey attack on a 16-S-box round costs one campaign, not sixteen
// (sub-plaintext extraction and the scalar block histogram are
// deduplicated per attacked instance). Mixing
// scalar and time-resolved distinguishers is allowed; each shard is then
// simulated once per data kind with identical per-kind streams, keeping
// both bit-identical to their single-kind campaigns.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
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

/// One shard's worth of traces, as handed to ShardAccumulator::accumulate:
/// `sub_pts` are the attacked instance's sub-plaintexts, `data` holds
/// `count` traces of `width` doubles each (width 1 for kScalar, the
/// target's level count for kSampled). `start` is the canonical campaign
/// index of the first trace — ordered distinguishers (MTD) locate their
/// checkpoints with it. `histogram`, when set, is the block's scalar
/// BlockHistogram over exactly traces [0, count) (dpa/block_stats.hpp):
/// the engine bins each shard once per attacked instance and every
/// scalar accumulator on that instance contracts it instead of re-binning
/// the block. It is null for sampled blocks and for callers that build
/// blocks themselves; scalar accumulators then bin the block on their
/// own, with bit-identical results.
struct ShardBlock {
  std::size_t start = 0;
  const std::uint8_t* sub_pts = nullptr;
  const double* data = nullptr;
  std::size_t count = 0;
  std::size_t width = 1;
  const BlockHistogram* histogram = nullptr;
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

/// First-order streaming CPA on one subkey (wraps StreamingCpa; run alone
/// through run_attack). Many instances in one run_distinguishers() call
/// attack many subkeys in one pass.
class CpaDistinguisher final : public Distinguisher {
 public:
  CpaDistinguisher(const SboxSpec& spec, const AttackSelector& selector);

  TraceDataKind data_kind() const override { return TraceDataKind::kScalar; }
  std::size_t sbox_index() const override { return selector_.sbox_index; }
  void validate(const RoundSpec& round) const override;
  std::unique_ptr<ShardAccumulator> make_shard_accumulator() const override;
  void finalize(ShardAccumulator& root) override;

  const AttackSelector& selector() const { return selector_; }
  const AttackResult& result() const;

 private:
  SboxSpec spec_;
  AttackSelector selector_;
  StreamingCpa prototype_;
  std::optional<AttackResult> result_;
};

/// Difference-of-means on one predicted output bit (wraps StreamingDom;
/// selector.model is ignored — DoM is inherently the single-bit model).
class DomDistinguisher final : public Distinguisher {
 public:
  DomDistinguisher(const SboxSpec& spec, const AttackSelector& selector);

  TraceDataKind data_kind() const override { return TraceDataKind::kScalar; }
  std::size_t sbox_index() const override { return selector_.sbox_index; }
  void validate(const RoundSpec& round) const override;
  std::unique_ptr<ShardAccumulator> make_shard_accumulator() const override;
  void finalize(ShardAccumulator& root) override;

  const AttackResult& result() const;

 private:
  SboxSpec spec_;
  AttackSelector selector_;
  StreamingDom prototype_;
  std::optional<AttackResult> result_;
};

/// Time-resolved CPA: one correlation column per logic level, best |ρ|
/// over the sample axis per guess (wraps StreamingMultiCpa). `width` must
/// equal the campaign target's num_levels().
class MultiCpaDistinguisher final : public Distinguisher {
 public:
  MultiCpaDistinguisher(const SboxSpec& spec, const AttackSelector& selector,
                        std::size_t width);

  TraceDataKind data_kind() const override { return TraceDataKind::kSampled; }
  std::size_t sbox_index() const override { return selector_.sbox_index; }
  void validate(const RoundSpec& round) const override;
  std::unique_ptr<ShardAccumulator> make_shard_accumulator() const override;
  void finalize(ShardAccumulator& root) override;

  const MultiAttackResult& result() const;

 private:
  SboxSpec spec_;
  AttackSelector selector_;
  StreamingMultiCpa prototype_;
  std::optional<MultiAttackResult> result_;
};

/// Second-order centered-product CPA across logic-level pairs (wraps
/// StreamingSecondOrderCpa) — the stronger distinguisher the ROADMAP
/// queued on top of the multisample campaigns.
class SecondOrderCpaDistinguisher final : public Distinguisher {
 public:
  SecondOrderCpaDistinguisher(const SboxSpec& spec,
                              const AttackSelector& selector);

  TraceDataKind data_kind() const override { return TraceDataKind::kSampled; }
  std::size_t sbox_index() const override { return selector_.sbox_index; }
  void validate(const RoundSpec& round) const override;
  std::unique_ptr<ShardAccumulator> make_shard_accumulator() const override;
  void finalize(ShardAccumulator& root) override;

  const SecondOrderAttackResult& result() const;

 private:
  SboxSpec spec_;
  AttackSelector selector_;
  StreamingSecondOrderCpa prototype_;
  std::optional<SecondOrderAttackResult> result_;
};

/// The measurements-to-disclosure experiment as an ordered distinguisher:
/// each shard accumulator feeds its shard through StreamingCpa and
/// snapshots the in-shard checkpoints. A shard no checkpoint falls
/// strictly inside contracts the block's shared histogram in one
/// add_histogram call (a checkpoint exactly at the shard end still
/// snapshots after it); a cut shard goes through add_block one
/// checkpoint segment at a time. The left fold in canonical shard order
/// ranks every snapshot against the merged prefix of the shards before
/// it. Segments and merge order are fixed by the ladder and the shard
/// layout, so the MTD curve is bit-identical across thread counts and
/// machines.
/// The checkpoint ladder is canonicalized at construction: sorted,
/// unique, restricted to [2, num_traces].
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
  // Shared with every shard accumulator (immutable after construction).
  std::shared_ptr<const std::vector<std::size_t>> ladder_;
  StreamingCpa prototype_;
  std::optional<MtdResult> result_;
};

}  // namespace sable
