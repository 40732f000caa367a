#include "dpa/distinguisher.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "crypto/round_target.hpp"
#include "dpa/block_stats.hpp"
#include "io/serial.hpp"
#include "util/error.hpp"

namespace sable {

const std::uint8_t* SubWordSource::get() {
  if (!extracted_) {
    round_.sub_words(states_, count_, sbox_index_, out_);
    extracted_ = true;
  }
  return out_;
}

const std::uint8_t* ShardBlock::sub_words() const {
  if (sub_pts != nullptr) return sub_pts;
  SABLE_ASSERT(sub_word_source != nullptr,
               "a shard block needs sub-plaintexts or a source of them");
  return sub_word_source->get();
}

namespace {

constexpr std::uint32_t kMtdShardTag = 0x53AB1006;

// Shard states of one distinguisher are homogeneous by construction (the
// engine never mixes them), so the downcast cannot fail in a correct
// driver; the dynamic_cast turns a future driver bug into a hard error
// instead of silent corruption. Reduction is O(shards), far off the
// per-trace path.
template <typename T>
T& cast_peer(ShardAccumulator& other) {
  T* peer = dynamic_cast<T*>(&other);
  SABLE_ASSERT(peer != nullptr,
               "shard accumulators of one distinguisher must share a type");
  return *peer;
}

// The selector was validated against a round at campaign start; this pins
// the distinguisher's spec to the instance it claims to attack, so a
// distinguisher built for one round cannot silently mis-score another.
void validate_spec_matches(const RoundSpec& round,
                           const AttackSelector& selector,
                           const SboxSpec& spec, bool require_bit) {
  validate_attack_selector(round, selector, require_bit);
  const SboxSpec& instance = round.sboxes[selector.sbox_index];
  SABLE_REQUIRE(instance.in_bits == spec.in_bits &&
                    instance.out_bits == spec.out_bits &&
                    instance.table == spec.table,
                "distinguisher spec must match the attacked round instance");
}

// A block's row width must be its accumulator's: 1 for the scalar
// attacks, the target's level count for time-resolved CPA.
void require_width(const ShardBlock& block, std::size_t width) {
  SABLE_REQUIRE(block.width == width,
                "a shard block's row width must equal its distinguisher's "
                "(1 for scalar attacks, the target's level count for "
                "time-resolved CPA)");
  SABLE_ASSERT(block.histogram == nullptr ||
                   block.histogram->count == block.count,
               "a shard block's histogram must cover the whole block");
}

// The shard state of every AccumulatorDistinguisher: one streaming
// accumulator fed one block per engine shard. Block boundaries are the
// fixed shard layout, so the block-factored summation order is
// deterministic across thread counts and machines.
template <typename Acc>
class StreamingShardAccumulator final : public ShardAccumulator {
 public:
  explicit StreamingShardAccumulator(Acc acc) : acc_(std::move(acc)) {}

  // CPA and DoM contract the block's shared histogram when the feed built
  // one and bin the block themselves otherwise; both are the same
  // contraction over the same histogram.
  void accumulate(const ShardBlock& block) override {
    if constexpr (std::is_same_v<Acc, StreamingSecondOrderCpa>) {
      acc_.add_block(block.sub_words(), block.data, block.count,
                     block.width);
    } else {
      require_width(block, acc_.width());
      if (block.histogram != nullptr) {
        acc_.add_histogram(*block.histogram);
      } else {
        acc_.add_block(block.sub_words(), block.data, block.count);
      }
    }
  }
  void merge(ShardAccumulator& other) override {
    acc_.merge(cast_peer<StreamingShardAccumulator>(other).acc_);
  }
  void save(ByteWriter& writer) const override { acc_.save(writer); }
  void load(ByteReader& reader) override { acc_.load(reader); }

  const Acc& acc() const { return acc_; }

 private:
  Acc acc_;
};

// MTD shard state: the shard's full accumulator plus a partial snapshot at
// every checkpoint falling inside the shard's trace range. The ordered
// left fold settles the fold root (canonically the first shard) — its own
// snapshots are already exact prefixes — and from then on acc_ is the
// merged prefix of every shard folded so far: each merge() ranks the
// peer's snapshots against prefix + snapshot, then appends the peer's
// full state.
class MtdShardAccumulator final : public ShardAccumulator {
 public:
  MtdShardAccumulator(StreamingCpa acc,
                      std::shared_ptr<const std::vector<std::size_t>> ladder,
                      std::size_t correct_key)
      : acc_(std::move(acc)),
        ladder_(std::move(ladder)),
        correct_key_(correct_key) {}

  // The ladder cuts the shard into segments, each fed through one
  // add_block call. Segment boundaries are fixed by the ladder and the
  // shard layout alone, so the MTD curve is bit-identical across thread
  // counts and machines. An uncut shard is one segment, so the
  // block's shared histogram is exactly what add_block would bin; a
  // checkpoint at the shard end snapshots after it.
  void accumulate(const ShardBlock& block) override {
    require_width(block, 1);
    SABLE_ASSERT(!settled_, "cannot accumulate into a settled MTD fold root");
    const std::vector<std::size_t>& ladder = *ladder_;
    const std::size_t end = block.start + block.count;
    auto it = std::upper_bound(ladder.begin(), ladder.end(), block.start);
    if (block.histogram != nullptr && (it == ladder.end() || *it >= end)) {
      acc_.add_histogram(*block.histogram);
      if (it != ladder.end() && *it == end) snapshots_.emplace_back(end, acc_);
      return;
    }
    const std::uint8_t* sub_pts = block.sub_words();
    std::size_t done = 0;
    for (; it != ladder.end() && *it <= end; ++it) {
      const std::size_t upto = *it - block.start;
      acc_.add_block(sub_pts + done, block.data + done, upto - done);
      done = upto;
      snapshots_.emplace_back(*it, acc_);
    }
    acc_.add_block(sub_pts + done, block.data + done, block.count - done);
  }

  void merge(ShardAccumulator& other) override {
    settle();
    MtdShardAccumulator& peer = cast_peer<MtdShardAccumulator>(other);
    SABLE_ASSERT(!peer.settled_,
                 "ordered MTD fold operands must be raw shard states");
    for (const auto& [count, snapshot] : peer.snapshots_) {
      StreamingCpa prefix = acc_;
      prefix.merge(snapshot);
      rank(count, prefix);
    }
    acc_.merge(peer.acc_);
  }

  // Persistence covers RAW shard states only (the engine checkpoints
  // before any reduction), so a settled fold root never reaches save().
  // The snapshots serialize beside the full accumulator; on load they are
  // reconstituted as copies of acc_ (same spec-derived configuration)
  // overwritten with the stored moments.
  void save(ByteWriter& writer) const override {
    SABLE_ASSERT(!settled_, "cannot serialize a settled MTD fold root");
    writer.u32(kMtdShardTag);
    acc_.save(writer);
    writer.u64(snapshots_.size());
    for (const auto& [count, snapshot] : snapshots_) {
      writer.u64(count);
      snapshot.save(writer);
    }
  }
  void load(ByteReader& reader) override {
    SABLE_ASSERT(!settled_, "cannot load into a settled MTD fold root");
    SABLE_REQUIRE(reader.u32() == kMtdShardTag,
                  "serialized state is not an MTD shard accumulator");
    acc_.load(reader);
    const std::uint64_t entries = reader.checked_count(16);
    snapshots_.clear();
    snapshots_.reserve(entries);
    for (std::uint64_t i = 0; i < entries; ++i) {
      const std::uint64_t count = reader.u64();
      snapshots_.emplace_back(static_cast<std::size_t>(count), acc_);
      snapshots_.back().second.load(reader);
    }
  }

  std::size_t count() const { return acc_.count(); }

  MtdResult settle_and_result() {
    settle();
    return mtd_from_history(rank_history_);
  }

 private:
  void settle() {
    if (settled_) return;
    settled_ = true;
    for (const auto& [count, snapshot] : snapshots_) rank(count, snapshot);
    snapshots_.clear();
  }

  void rank(std::size_t count, const StreamingCpa& prefix) {
    SABLE_REQUIRE(prefix.count() == count,
                  "checkpoint count must equal merged prefix trace count");
    rank_history_.emplace_back(count,
                               prefix.result().combined.rank_of(correct_key_));
  }

  StreamingCpa acc_;  // the shard; once settled, the merged prefix
  std::shared_ptr<const std::vector<std::size_t>> ladder_;
  std::size_t correct_key_;
  std::vector<std::pair<std::size_t, StreamingCpa>> snapshots_;
  bool settled_ = false;  // set once this state becomes the fold root
  std::vector<std::pair<std::size_t, std::size_t>> rank_history_;
};

template <typename Result>
const Result& finalized_result(const std::optional<Result>& result) {
  SABLE_REQUIRE(result.has_value(),
                "distinguisher result is only valid after a campaign "
                "finalized it (TraceEngine::run_distinguishers)");
  return *result;
}

}  // namespace

// ---- AccumulatorDistinguisher ---------------------------------------------

namespace detail {

template <typename Acc, typename Result, TraceDataKind kKind>
void AccumulatorDistinguisher<Acc, Result, kKind>::validate(
    const RoundSpec& round) const {
  validate_spec_matches(round, selector_, spec_,
                        /*require_bit=*/std::is_same_v<Acc, StreamingDom>);
}

template <typename Acc, typename Result, TraceDataKind kKind>
std::unique_ptr<ShardAccumulator>
AccumulatorDistinguisher<Acc, Result, kKind>::make_shard_accumulator() const {
  return std::make_unique<StreamingShardAccumulator<Acc>>(prototype_);
}

template <typename Acc, typename Result, TraceDataKind kKind>
void AccumulatorDistinguisher<Acc, Result, kKind>::finalize(
    ShardAccumulator& root) {
  auto result = cast_peer<StreamingShardAccumulator<Acc>>(root).acc().result();
  if constexpr (std::is_same_v<Result, decltype(result)>) {
    result_ = std::move(result);
  } else {
    result_ = std::move(result.combined);  // scalar CPA: its one column
  }
}

template <typename Acc, typename Result, TraceDataKind kKind>
const Result& AccumulatorDistinguisher<Acc, Result, kKind>::result() const {
  return finalized_result(result_);
}

template class AccumulatorDistinguisher<StreamingCpa, AttackResult,
                                        TraceDataKind::kScalar>;
template class AccumulatorDistinguisher<StreamingDom, AttackResult,
                                        TraceDataKind::kScalar>;
template class AccumulatorDistinguisher<StreamingCpa, MultiAttackResult,
                                        TraceDataKind::kSampled>;
template class AccumulatorDistinguisher<StreamingSecondOrderCpa,
                                        SecondOrderAttackResult,
                                        TraceDataKind::kSampled>;

}  // namespace detail

// ---- MtdDistinguisher -----------------------------------------------------

MtdDistinguisher::MtdDistinguisher(const SboxSpec& spec,
                                   const AttackSelector& selector,
                                   std::size_t correct_key,
                                   const std::vector<std::size_t>& checkpoints,
                                   std::size_t num_traces)
    : spec_(spec),
      selector_(selector),
      correct_key_(correct_key),
      num_traces_(num_traces),
      prototype_(spec, selector.model, selector.bit) {
  // Canonical checkpoint ladder: sorted, unique, and restricted to counts
  // the drivers can evaluate (>= 2 traces, within the campaign).
  std::vector<std::size_t> ladder = checkpoints;
  std::sort(ladder.begin(), ladder.end());
  ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
  ladder.erase(
      std::remove_if(ladder.begin(), ladder.end(),
                     [&](std::size_t c) { return c < 2 || c > num_traces; }),
      ladder.end());
  ladder_ =
      std::make_shared<const std::vector<std::size_t>>(std::move(ladder));
}

void MtdDistinguisher::validate(const RoundSpec& round) const {
  validate_spec_matches(round, selector_, spec_, /*require_bit=*/false);
}

std::unique_ptr<ShardAccumulator> MtdDistinguisher::make_shard_accumulator()
    const {
  return std::make_unique<MtdShardAccumulator>(prototype_, ladder_,
                                               correct_key_);
}

// The ladder was clipped to num_traces_ at construction, so a campaign of
// any other length would rank a truncated ladder without a word.
void MtdDistinguisher::finalize(ShardAccumulator& root) {
  MtdShardAccumulator& fold = cast_peer<MtdShardAccumulator>(root);
  SABLE_REQUIRE(fold.count() == num_traces_,
                "MTD distinguisher must be built for the campaign's trace "
                "count");
  result_ = fold.settle_and_result();
}

const MtdResult& MtdDistinguisher::result() const {
  return finalized_result(result_);
}

}  // namespace sable
