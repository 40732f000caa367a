#include "dpa/distinguisher.hpp"

#include <algorithm>
#include <utility>

#include "crypto/round_target.hpp"
#include "dpa/block_stats.hpp"
#include "io/serial.hpp"
#include "util/error.hpp"

namespace sable {

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

void require_scalar(const ShardBlock& block) {
  SABLE_REQUIRE(block.width == 1,
                "scalar distinguishers consume one sample per trace");
  SABLE_ASSERT(block.histogram == nullptr ||
                   block.histogram->count == block.count,
               "a shard block's histogram must cover the whole block");
}

// A scalar accumulator contracts the block's shared histogram when the
// feed built one and bins the block itself otherwise; both are the same
// add_histogram contraction over the same histogram.
template <typename Acc>
void add_scalar_block(Acc& acc, const ShardBlock& block) {
  require_scalar(block);
  if (block.histogram != nullptr) {
    acc.add_histogram(*block.histogram);
  } else {
    acc.add_block(block.sub_pts, block.data, block.count);
  }
}

class CpaShardAccumulator final : public ShardAccumulator {
 public:
  explicit CpaShardAccumulator(StreamingCpa acc) : acc_(std::move(acc)) {}

  // One block per engine shard: block boundaries are the fixed shard
  // layout, so the block-factored summation order is deterministic
  // across thread counts and machines.
  void accumulate(const ShardBlock& block) override {
    add_scalar_block(acc_, block);
  }
  void merge(ShardAccumulator& other) override {
    acc_.merge(cast_peer<CpaShardAccumulator>(other).acc_);
  }
  void save(ByteWriter& writer) const override { acc_.save(writer); }
  void load(ByteReader& reader) override { acc_.load(reader); }

  const StreamingCpa& acc() const { return acc_; }

 private:
  StreamingCpa acc_;
};

class DomShardAccumulator final : public ShardAccumulator {
 public:
  explicit DomShardAccumulator(StreamingDom acc) : acc_(std::move(acc)) {}

  void accumulate(const ShardBlock& block) override {
    add_scalar_block(acc_, block);
  }
  void merge(ShardAccumulator& other) override {
    acc_.merge(cast_peer<DomShardAccumulator>(other).acc_);
  }
  void save(ByteWriter& writer) const override { acc_.save(writer); }
  void load(ByteReader& reader) override { acc_.load(reader); }

  const StreamingDom& acc() const { return acc_; }

 private:
  StreamingDom acc_;
};

class MultiCpaShardAccumulator final : public ShardAccumulator {
 public:
  explicit MultiCpaShardAccumulator(StreamingMultiCpa acc)
      : acc_(std::move(acc)) {}

  void accumulate(const ShardBlock& block) override {
    SABLE_REQUIRE(block.width == acc_.width(),
                  "multisample CPA row width must equal the target's level "
                  "count");
    acc_.add_block(block.sub_pts, block.data, block.count);
  }
  void merge(ShardAccumulator& other) override {
    acc_.merge(cast_peer<MultiCpaShardAccumulator>(other).acc_);
  }
  void save(ByteWriter& writer) const override { acc_.save(writer); }
  void load(ByteReader& reader) override { acc_.load(reader); }

  const StreamingMultiCpa& acc() const { return acc_; }

 private:
  StreamingMultiCpa acc_;
};

class SecondOrderShardAccumulator final : public ShardAccumulator {
 public:
  explicit SecondOrderShardAccumulator(StreamingSecondOrderCpa acc)
      : acc_(std::move(acc)) {}

  void accumulate(const ShardBlock& block) override {
    acc_.add_block(block.sub_pts, block.data, block.count, block.width);
  }
  void merge(ShardAccumulator& other) override {
    acc_.merge(cast_peer<SecondOrderShardAccumulator>(other).acc_);
  }
  void save(ByteWriter& writer) const override { acc_.save(writer); }
  void load(ByteReader& reader) override { acc_.load(reader); }

  const StreamingSecondOrderCpa& acc() const { return acc_; }

 private:
  StreamingSecondOrderCpa acc_;
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
    require_scalar(block);
    SABLE_ASSERT(!settled_, "cannot accumulate into a settled MTD fold root");
    const std::vector<std::size_t>& ladder = *ladder_;
    const std::size_t end = block.start + block.count;
    auto it = std::upper_bound(ladder.begin(), ladder.end(), block.start);
    if (block.histogram != nullptr && (it == ladder.end() || *it >= end)) {
      acc_.add_histogram(*block.histogram);
      if (it != ladder.end() && *it == end) snapshots_.emplace_back(end, acc_);
      return;
    }
    std::size_t done = 0;
    for (; it != ladder.end() && *it <= end; ++it) {
      const std::size_t upto = *it - block.start;
      acc_.add_block(block.sub_pts + done, block.data + done, upto - done);
      done = upto;
      snapshots_.emplace_back(*it, acc_);
    }
    acc_.add_block(block.sub_pts + done, block.data + done,
                   block.count - done);
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
    rank_history_.emplace_back(count, prefix.result().rank_of(correct_key_));
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

// ---- CpaDistinguisher -----------------------------------------------------

CpaDistinguisher::CpaDistinguisher(const SboxSpec& spec,
                                   const AttackSelector& selector)
    : spec_(spec),
      selector_(selector),
      prototype_(spec, selector.model, selector.bit) {}

void CpaDistinguisher::validate(const RoundSpec& round) const {
  validate_spec_matches(round, selector_, spec_, /*require_bit=*/false);
}

std::unique_ptr<ShardAccumulator> CpaDistinguisher::make_shard_accumulator()
    const {
  return std::make_unique<CpaShardAccumulator>(prototype_);
}

void CpaDistinguisher::finalize(ShardAccumulator& root) {
  result_ = cast_peer<CpaShardAccumulator>(root).acc().result();
}

const AttackResult& CpaDistinguisher::result() const {
  return finalized_result(result_);
}

// ---- DomDistinguisher -----------------------------------------------------

DomDistinguisher::DomDistinguisher(const SboxSpec& spec,
                                   const AttackSelector& selector)
    : spec_(spec), selector_(selector), prototype_(spec, selector.bit) {}

void DomDistinguisher::validate(const RoundSpec& round) const {
  validate_spec_matches(round, selector_, spec_, /*require_bit=*/true);
}

std::unique_ptr<ShardAccumulator> DomDistinguisher::make_shard_accumulator()
    const {
  return std::make_unique<DomShardAccumulator>(prototype_);
}

void DomDistinguisher::finalize(ShardAccumulator& root) {
  result_ = cast_peer<DomShardAccumulator>(root).acc().result();
}

const AttackResult& DomDistinguisher::result() const {
  return finalized_result(result_);
}

// ---- MultiCpaDistinguisher ------------------------------------------------

MultiCpaDistinguisher::MultiCpaDistinguisher(const SboxSpec& spec,
                                             const AttackSelector& selector,
                                             std::size_t width)
    : spec_(spec),
      selector_(selector),
      prototype_(spec, selector.model, width, selector.bit) {}

void MultiCpaDistinguisher::validate(const RoundSpec& round) const {
  validate_spec_matches(round, selector_, spec_, /*require_bit=*/false);
}

std::unique_ptr<ShardAccumulator>
MultiCpaDistinguisher::make_shard_accumulator() const {
  return std::make_unique<MultiCpaShardAccumulator>(prototype_);
}

void MultiCpaDistinguisher::finalize(ShardAccumulator& root) {
  result_ = cast_peer<MultiCpaShardAccumulator>(root).acc().result();
}

const MultiAttackResult& MultiCpaDistinguisher::result() const {
  return finalized_result(result_);
}

// ---- SecondOrderCpaDistinguisher ------------------------------------------

SecondOrderCpaDistinguisher::SecondOrderCpaDistinguisher(
    const SboxSpec& spec, const AttackSelector& selector)
    : spec_(spec),
      selector_(selector),
      prototype_(spec, selector.model, selector.bit) {}

void SecondOrderCpaDistinguisher::validate(const RoundSpec& round) const {
  validate_spec_matches(round, selector_, spec_, /*require_bit=*/false);
}

std::unique_ptr<ShardAccumulator>
SecondOrderCpaDistinguisher::make_shard_accumulator() const {
  return std::make_unique<SecondOrderShardAccumulator>(prototype_);
}

void SecondOrderCpaDistinguisher::finalize(ShardAccumulator& root) {
  result_ = cast_peer<SecondOrderShardAccumulator>(root).acc().result();
}

const SecondOrderAttackResult& SecondOrderCpaDistinguisher::result() const {
  return finalized_result(result_);
}

// ---- MtdDistinguisher -----------------------------------------------------

MtdDistinguisher::MtdDistinguisher(const SboxSpec& spec,
                                   const AttackSelector& selector,
                                   std::size_t correct_key,
                                   const std::vector<std::size_t>& checkpoints,
                                   std::size_t num_traces)
    : spec_(spec),
      selector_(selector),
      correct_key_(correct_key),
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

void MtdDistinguisher::finalize(ShardAccumulator& root) {
  result_ = cast_peer<MtdShardAccumulator>(root).settle_and_result();
}

const MtdResult& MtdDistinguisher::result() const {
  return finalized_result(result_);
}

}  // namespace sable
