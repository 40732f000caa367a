// Shard feed probe: the in-process cost of ShardFeed::feed on one shard,
// per trace, timed with std::chrono alone.
//
// The shard is 8192 traces (the engine's default shard size) of a static
// CMOS PRESENT x16 round with campaign_cli's default measurement noise,
// already in memory: no decode is timed. It is fed to the
// replay_all_subkeys workload's attack list, CPA + DoM(bit 0) + MTD on
// every instance (48 distinguishers, 16 attacked instances), and to the
// same list on instance 0 alone (3 distinguishers, 1 instance). The MTD
// ladder is default_checkpoints over the workload's 2^21 traces, and the
// shard is the first one that ladder does not cut, as almost every shard
// of that campaign is. Each feed runs `--repeats` times (default 1000)
// and the fastest call is printed in ns/trace; it includes making the
// accumulators and every accumulate() call. Pin the process for stable
// numbers:
//
//     taskset -c 2 ./build/bench_feed --repeats 3000
//
// Before timing, one feed with a histogram-recording distinguisher on
// every instance checks that each instance's BlockHistogram is
// bit-identical to RoundSpec::sub_words + build_block_histogram over the
// shard; the probe exits 1 if one differs. There is no timing assertion:
// CI runs it with a tiny repeat count as a smoke test of the feed.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "crypto/round_target.hpp"
#include "dpa/block_stats.hpp"
#include "dpa/distinguisher.hpp"
#include "dpa/mtd.hpp"
#include "engine/shard_reduce.hpp"
#include "probe.hpp"

using namespace sable;

namespace {

// Traces per shard, and in the replay_all_subkeys campaign.
constexpr std::size_t kCount = 8192;
constexpr std::size_t kTraces = std::size_t{1} << 21;
// campaign_cli's default --noise.
constexpr double kNoise = 2e-16;

// Records the histogram of the one block it is fed.
class RecordingAccumulator final : public ShardAccumulator {
 public:
  void accumulate(const ShardBlock& block) override {
    seen = block.histogram != nullptr;
    if (seen) histogram = *block.histogram;
  }
  void merge(ShardAccumulator&) override {}
  void save(ByteWriter&) const override {}
  void load(ByteReader&) override {}

  bool seen = false;
  BlockHistogram histogram{};
};

class RecordingDistinguisher final : public Distinguisher {
 public:
  explicit RecordingDistinguisher(std::size_t sbox) : sbox_(sbox) {}
  TraceDataKind data_kind() const override { return TraceDataKind::kScalar; }
  std::size_t sbox_index() const override { return sbox_; }
  void validate(const RoundSpec&) const override {}
  std::unique_ptr<ShardAccumulator> make_shard_accumulator() const override {
    return std::make_unique<RecordingAccumulator>();
  }
  void finalize(ShardAccumulator&) override {}

 private:
  std::size_t sbox_;
};

bool same_histogram(const BlockHistogram& a, const BlockHistogram& b) {
  return std::memcmp(a.counts, b.counts, sizeof a.counts) == 0 &&
         std::memcmp(a.sums, b.sums, sizeof a.sums) == 0 &&
         std::memcmp(&a.sum_sq, &b.sum_sq, sizeof a.sum_sq) == 0 &&
         std::memcmp(&a.shift, &b.shift, sizeof a.shift) == 0 &&
         a.count == b.count;
}

// CPA + DoM(bit 0) + MTD on one instance, as campaign_cli attacks it.
struct AttackSet {
  CpaDistinguisher cpa;
  DomDistinguisher dom;
  MtdDistinguisher mtd;

  AttackSet(const RoundSpec& round, std::size_t sbox, std::size_t subkey)
      : cpa(round.sboxes[sbox],
            AttackSelector{.sbox_index = sbox,
                           .model = PowerModel::kHammingWeight}),
        dom(round.sboxes[sbox],
            AttackSelector{.sbox_index = sbox,
                           .model = PowerModel::kHammingWeight,
                           .bit = 0}),
        mtd(round.sboxes[sbox],
            AttackSelector{.sbox_index = sbox,
                           .model = PowerModel::kHammingWeight},
            subkey, default_checkpoints(kTraces), kTraces) {}
};

// The fastest of `repeats` feeds of shard `s`, in ns per trace.
double best_feed_ns(const RoundSpec& round,
                    const std::vector<Distinguisher*>& list, std::size_t s,
                    const ShardData& data, std::size_t repeats) {
  const ShardFeed feed(round, list, kCount, 1);
  ShardFeed::Scratch scratch = feed.make_scratch();
  ShardStates states = make_shard_states(list.size(), kTraces / kCount);
  return probe::best_ns_per_trace(
      repeats, kCount, [&] { feed.feed(s, data, scratch, states); });
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t repeats = 0;
  if (!probe::parse_repeats(argc, argv, &repeats)) return 2;

  const RoundSpec round = present_round(16, LogicStyle::kStaticCmos);
  RoundTarget target(round, Technology::generic_180nm());
  const std::vector<std::size_t> subkeys = probe::subkeys(round);
  const std::vector<std::uint8_t> key = round.pack_subkeys(subkeys);
  std::vector<std::uint8_t> pts(kCount * round.state_bytes());
  Rng pt_rng(0xFEED);
  round.fill_random_states(pt_rng, kCount, pts.data());
  std::vector<double> samples(kCount);
  Rng noise(0x7015E);
  target.trace_batch(pts.data(), kCount, key.data(), kNoise, noise,
                     samples.data());
  const ShardData data{.pts = pts.data(),
                       .samples = samples.data(),
                       .rows = nullptr,
                       .count = kCount};

  // The first shard with no checkpoint of the ladder inside it.
  const std::vector<std::size_t> ladder = default_checkpoints(kTraces);
  std::size_t shard = 0;
  for (;; ++shard) {
    const std::size_t begin = shard * kCount;
    const auto it = std::upper_bound(ladder.begin(), ladder.end(), begin);
    if (it == ladder.end() || *it >= begin + kCount) break;
  }

  std::vector<std::unique_ptr<AttackSet>> sets;
  std::vector<std::unique_ptr<RecordingDistinguisher>> recorders;
  std::vector<Distinguisher*> list;
  std::vector<Distinguisher*> checked;
  for (std::size_t i = 0; i < round.num_sboxes(); ++i) {
    sets.push_back(std::make_unique<AttackSet>(round, i, subkeys[i]));
    recorders.push_back(std::make_unique<RecordingDistinguisher>(i));
    for (Distinguisher* d : {static_cast<Distinguisher*>(&sets[i]->cpa),
                             static_cast<Distinguisher*>(&sets[i]->dom),
                             static_cast<Distinguisher*>(&sets[i]->mtd)}) {
      list.push_back(d);
      checked.push_back(d);
    }
    checked.push_back(recorders.back().get());
  }

  {
    const ShardFeed feed(round, checked, kCount, 1);
    ShardFeed::Scratch scratch = feed.make_scratch();
    ShardStates states = make_shard_states(checked.size(), kTraces / kCount);
    feed.feed(shard, data, scratch, states);
    std::vector<std::uint8_t> sub(kCount);
    BlockHistogram expected{};
    for (std::size_t i = 0; i < round.num_sboxes(); ++i) {
      const auto& seen =
          static_cast<const RecordingAccumulator&>(*states[4 * i + 3][shard]);
      round.sub_words(pts.data(), kCount, i, sub.data());
      build_block_histogram(sub.data(), samples.data(), kCount, expected);
      if (!seen.seen || !same_histogram(seen.histogram, expected)) {
        std::fprintf(stderr,
                     "instance %zu: the feed's histogram differs from "
                     "sub_words + build_block_histogram\n",
                     i);
        return 1;
      }
    }
  }

  const std::vector<Distinguisher*> one_slot(list.begin(), list.begin() + 3);
  std::printf("shard %zu of a %zu-trace campaign, %zu traces\n", shard,
              kTraces, kCount);
  std::printf("%-8s %-16s %10s\n", "slots", "distinguishers", "ns/trace");
  std::printf("%-8d %-16zu %10.2f\n", 1, one_slot.size(),
              best_feed_ns(round, one_slot, shard, data, repeats));
  std::printf("%-8zu %-16zu %10.2f\n", round.num_sboxes(), list.size(),
              best_feed_ns(round, list, shard, data, repeats));
  return 0;
}
