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
// One CPA accumulator: StreamingCpa runs over `width` sample columns.
// Scalar CPA, cpa_attack and MTD's shard states and snapshots are its
// width-1 case; time-resolved CPA is the same class over a target's logic
// levels.
//
// One consumption path: the block-factored path (dpa/block_stats.hpp):
// per-plaintext sufficient statistics in one O(count) pass, one dense
// contraction per block, then a pairwise fold. At width 1 it splits in
// two: add_histogram() contracts a prebuilt BlockHistogram, and
// add_block() is build_block_histogram() followed by add_histogram().
// The engine bins every attacked instance of a shard in one pass and
// hands each instance's histogram to every scalar accumulator on it (MTD
// too, unless a checkpoint cuts the shard: then it feeds add_block once
// per segment).
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

/// One-pass correlation power analysis over `width` sample columns. Per
/// key guess it keeps a running mean / M2 of the prediction, shared by
/// every column (the prediction stream does not depend on the column);
/// per column a running sample mean / M2 and one co-moment per guess.
/// O(width * guesses) state. Scalar CPA is the width-1 case, and the
/// per-logic-level CPA behind MultiCpaDistinguisher is time_resolved().
class StreamingCpa {
 public:
  /// Scalar CPA: one sample per trace. save() writes the CPA layout.
  StreamingCpa(const SboxSpec& spec, PowerModel model, std::size_t bit = 0);

  /// Time-resolved CPA over rows of `width` samples. save() writes the
  /// time-resolved layout at every width, 1 included: the layout follows
  /// how the accumulator was built, never the width alone.
  static StreamingCpa time_resolved(const SboxSpec& spec, PowerModel model,
                                    std::size_t width, std::size_t bit = 0);

  /// Block-factored hot path (dpa/block_stats.hpp) over `count` rows of
  /// `width()` samples: one O(count) histogram pass with no guess loop,
  /// one G×P · P×width contraction against the prediction table, then a
  /// pairwise fold of the block's moments into the running state. The
  /// plaintext range check is hoisted to once per block. Scores agree
  /// with the two-pass Pearson formulation to ~1e-13; one add_block call
  /// per engine shard makes sharded campaigns bit-identical across thread
  /// counts. Width 1 is build_block_histogram followed by add_histogram;
  /// wider rows bin with block_histogram_sampled.
  void add_block(const std::uint8_t* pts, const double* rows,
                 std::size_t count);

  /// The contraction and fold of a width-1 add_block over a histogram
  /// someone else built (the engine's shared per-instance histogram):
  /// bit-identical to add_block over the same traces, since add_block
  /// builds exactly this histogram and calls it. Requires width() == 1.
  void add_histogram(const BlockHistogram& hist);

  /// Folds `other` — an accumulator over a disjoint trace subset with the
  /// same spec/model/bit/width configuration — into this one: flat-array
  /// co-moment merge, O(width * guesses). The result carries the moments
  /// of the concatenated streams.
  void merge(const StreamingCpa& other);

  std::size_t count() const { return n_; }
  std::size_t width() const { return width_; }
  std::size_t num_guesses() const { return num_guesses_; }

  /// Attack scores over the traces consumed so far: per guess the best
  /// |rho| over the columns (a scalar accumulator's one column), and the
  /// column where the winning guess peaked. Cheap enough to snapshot at
  /// every MTD checkpoint.
  MultiAttackResult result() const;

  void save(ByteWriter& writer) const;
  void load(ByteReader& reader);

 private:
  StreamingCpa(const SboxSpec& spec, PowerModel model, std::size_t width,
               std::size_t bit, bool time_resolved);

  // The one binned path: contracts a block's per-plaintext histogram
  // (counts[kBlockPts], sums[pt * width + column] and sum_sq[column],
  // shifted by shifts[column]), converts it to Welford form and folds it.
  void add_binned(std::size_t count, const double* shifts,
                  const std::uint64_t* counts, const double* sums,
                  const double* sum_sq);

  // The shared pairwise-combination step: folds one trace subset's
  // Welford-form moments, laid out as moments_ is (a block's converted
  // sufficient statistics, or another accumulator's state — merge()
  // routes through this), into the running state.
  void fold(std::size_t count, const double* block);

  std::size_t num_guesses_;
  std::size_t width_;
  PowerModel model_;
  bool time_resolved_;  // selects the serialized layout
  std::size_t bit_;
  // Immutable and shared between copies: cloning an accumulator for a new
  // campaign shard costs O(width * guesses), not a table rebuild.
  std::shared_ptr<const std::vector<double>>
      predictions_;  // [pt * num_guesses_ + guess]
  std::size_t n_ = 0;
  // Every moment in one flat block (G guesses, w columns), so a copy (a
  // shard state, an MTD snapshot) is one allocation:
  //   mean_h[G] | m2_h[G] | c_ht[w * G] | mean_t[w] | m2_t[w]
  // c_ht is column-major ([column * G + guess]); h is the prediction,
  // t the sample.
  std::vector<double> moments_;
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
  std::size_t width() const { return 1; }
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

}  // namespace sable
