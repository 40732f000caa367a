// Streaming (one-pass) attack accumulators.
//
// The classic CPA/DoM formulations keep every trace resident and make one
// pass per key guess; at the 10^5–10^7 traces an MTD curve needs, that is
// the memory and time bottleneck of the whole experiment. The accumulators
// here consume traces as they are produced — O(guesses) state, one pass —
// and can be snapshotted at any point, which is exactly what an
// incremental measurements-to-disclosure driver needs.
//
// Numerics: Welford-form means and co-moments (not raw-moment sums), so
// the scores agree with the two-pass Pearson formulation to ~1e-13 even
// though trace energies sit at ~1e-13 J with ~1e-15 J of data-dependent
// variation.
//
// One consumption path: the block-factored path (dpa/block_stats.hpp):
// per-plaintext sufficient statistics in one O(count) pass, one dense
// contraction per block, then a pairwise fold. The scalar accumulators
// split it in two: add_histogram() contracts a prebuilt BlockHistogram,
// and add_block() is build_block_histogram() followed by add_histogram().
// The engine bins each shard once per attacked instance and hands that
// histogram to every scalar accumulator on the instance (MTD too, unless
// a checkpoint cuts the shard: then it feeds add_block once per segment).
// The block passes' working set is per thread, not per accumulator, so
// retained shard states and MTD snapshots carry only their logical
// moments.
//
// Every accumulator is copyable (copies share the immutable prediction
// table) and mergeable: merge() folds another accumulator over a disjoint
// trace subset into this one in O(guesses), the primitive under the
// thread-sharded TraceEngine. Merging in a fixed order is deterministic,
// so sharded campaigns are bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/leakage.hpp"
#include "crypto/sboxes.hpp"
#include "dpa/attack.hpp"
#include "power/stats.hpp"

namespace sable {

class ByteReader;
class ByteWriter;
struct BlockHistogram;  // dpa/block_stats.hpp

// Serialization (io/serial.hpp): every streaming accumulator has a
// versionless tagged save()/load() pair embedded inside the versioned
// campaign-state container (io/campaign_state.hpp). save() emits a type
// tag, the configuration (guess count, model, bit, width) and the moment
// state bit-exactly; load() overwrites the moment state of an accumulator
// ALREADY CONSTRUCTED with the matching spec — the prediction tables are
// rebuilt from the spec, never trusted from disk — and throws
// InvalidArgument when the tag or configuration disagrees (the container
// wraps that into a path-tagged typed error).

/// One-pass correlation power analysis: per key guess a running mean /
/// M2 / co-moment against the shared sample stream.
class StreamingCpa {
 public:
  StreamingCpa(const SboxSpec& spec, PowerModel model, std::size_t bit = 0);

  /// Block-factored hot path (dpa/block_stats.hpp): one O(count)
  /// histogram pass with no guess loop, one G×P contraction against the
  /// prediction table, then a pairwise fold of the block's moments into
  /// the running state. The plaintext range check is hoisted to once per
  /// block. Scores agree with the two-pass Pearson formulation to ~1e-13;
  /// one add_block call per engine shard makes sharded campaigns
  /// bit-identical across thread counts.
  void add_block(const std::uint8_t* pts, const double* samples,
                 std::size_t count);

  /// The contraction and fold of add_block over a histogram someone else
  /// built (the engine's shared per-instance histogram): bit-identical to
  /// add_block over the same traces, since add_block builds exactly this
  /// histogram and calls it.
  void add_histogram(const BlockHistogram& hist);

  /// Folds `other` — an accumulator over a disjoint trace subset with the
  /// same spec/model/bit configuration — into this one: flat-array
  /// co-moment merge, O(guesses). The result carries the moments of the
  /// concatenated streams.
  void merge(const StreamingCpa& other);

  std::size_t count() const { return t_.count(); }
  std::size_t num_guesses() const { return num_guesses_; }

  /// Attack scores over the traces consumed so far (|rho| per guess).
  /// Cheap enough to snapshot at every MTD checkpoint.
  AttackResult result() const;

  void save(ByteWriter& writer) const;
  void load(ByteReader& reader);

 private:
  // The shared pairwise-combination step: folds one trace subset's
  // Welford-form moments (a block's converted sufficient statistics, or
  // another accumulator's state — merge() routes through this) into the
  // running state.
  void fold_block(std::size_t count, double mean_t, double m2_t,
                  const double* block_mean_h, const double* block_m2_h,
                  const double* block_c_ht);

  std::size_t num_guesses_;
  std::size_t num_plaintexts_;
  PowerModel model_;
  std::size_t bit_;
  // Immutable and shared between copies: cloning an accumulator for a new
  // campaign shard costs O(guesses), not O(guesses^2) table rebuilding.
  std::shared_ptr<const std::vector<double>>
      predictions_;  // [pt * num_guesses_ + guess]
  OnlineMoments t_;  // shared sample-stream moments
  // Per-guess prediction moments and co-moments, kept as flat arrays (not
  // one OnlineMoments per guess) so the fold's guess loop stays tight.
  std::vector<double> mean_h_;
  std::vector<double> m2_h_;
  std::vector<double> c_ht_;
};

/// One-pass difference-of-means DPA on one predicted output bit. The
/// state is raw per-guess partition counts and sums.
class StreamingDom {
 public:
  StreamingDom(const SboxSpec& spec, std::size_t bit = 0);

  /// Block-factored hot path: per-plaintext counts/sums in one pass with
  /// no guess loop, then one partitioned contraction against the
  /// predicted-bit table. Counts are exact. The block's sums are shifted
  /// by its first sample (the shared BlockHistogram), and each partition
  /// adds cnt·shift back, so the partition sums differ from trace-order
  /// raw sums only in rounding (~1e-15 relative).
  void add_block(const std::uint8_t* pts, const double* samples,
                 std::size_t count);

  /// add_block's partitioned contraction over a prebuilt histogram;
  /// bit-identical to add_block over the same traces.
  void add_histogram(const BlockHistogram& hist);

  /// Folds `other` (disjoint traces, same spec/bit) into this one: the
  /// partition sums and counts add exactly.
  void merge(const StreamingDom& other);

  std::size_t count() const { return n_; }
  AttackResult result() const;

  void save(ByteWriter& writer) const;
  void load(ByteReader& reader);

 private:
  std::size_t num_guesses_;
  std::size_t num_plaintexts_;
  std::size_t bit_;
  std::shared_ptr<const std::vector<std::uint8_t>>
      predicted_bit_;  // [pt * num_guesses_ + guess]
  std::size_t n_ = 0;
  std::vector<double> sum_[2];
  std::vector<std::size_t> cnt_[2];
};

/// One-pass time-resolved CPA: one correlation accumulator per sample
/// column, sharing the per-guess prediction moments (the prediction stream
/// does not depend on the column). O(width * guesses) state.
class StreamingMultiCpa {
 public:
  StreamingMultiCpa(const SboxSpec& spec, PowerModel model, std::size_t width,
                    std::size_t bit = 0);

  /// Block-factored hot path over `count` rows of `width()` samples: one
  /// histogram pass building per-plaintext per-level column sums, a
  /// G×P · P×L contraction GEMM, then a per-column pairwise fold — the
  /// time-resolved sibling of StreamingCpa::add_block with the same
  /// accuracy and bit-identity guarantees.
  void add_block(const std::uint8_t* pts, const double* rows,
                 std::size_t count);

  std::size_t count() const { return n_; }
  std::size_t width() const { return width_; }

  /// Folds `other` (disjoint traces, same spec/model/width/bit) into this
  /// one: per-column co-moment merge sharing the per-guess prediction
  /// moment merge, O(width * guesses).
  void merge(const StreamingMultiCpa& other);

  MultiAttackResult result() const;

  void save(ByteWriter& writer) const;
  void load(ByteReader& reader);

 private:
  // Shared pairwise-combination step (per-column co-moments first, then
  // the prediction moments, then the column Welford merges — the order
  // merge() always used); merge() routes through this.
  void fold_block(std::size_t count, const double* mean_t,
                  const double* m2_t, const double* block_mean_h,
                  const double* block_m2_h, const double* block_c_ht);

  std::size_t num_guesses_;
  std::size_t num_plaintexts_;
  std::size_t width_;
  PowerModel model_;
  std::size_t bit_;
  std::shared_ptr<const std::vector<double>>
      predictions_;  // [pt * num_guesses_ + guess]
  std::size_t n_ = 0;
  std::vector<double> mean_h_;       // per guess (shared across columns)
  std::vector<double> m2_h_;
  std::vector<OnlineMoments> t_;     // per column
  std::vector<double> c_ht_;         // [column * num_guesses_ + guess]
};

}  // namespace sable
