// The online shard reducer (engine/shard_reduce.hpp) against the serial
// fixed-shape tree (merge_shard_tree in reference_attacks.hpp).
//
// Campaign parties hand shards to the reducer in whatever order they
// finish them. Whatever that order, and however many parties race, the
// reducer must perform exactly the tree's merges — [i, i+s) joined with
// [i+s, min(i+2s, n)) — fold ordered states into shard 0 in canonical
// order, and leave nothing but the roots alive. A test-local accumulator
// records the canonical shard range it covers, so every merge can be
// checked against the oracle's.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "dpa/distinguisher.hpp"
#include "engine/shard_reduce.hpp"
#include "engine/worker_pool.hpp"
#include "reference_attacks.hpp"

namespace sable {
namespace {

// (distinguisher, left begin, left end, right begin, right end)
using Merge = std::array<std::size_t, 5>;

struct MergeLog {
  std::mutex mutex;
  std::vector<Merge> merges;  // in the order they happened
  std::atomic<long> live{0};  // RangeAccumulators alive
};

class RangeAccumulator final : public ShardAccumulator {
 public:
  RangeAccumulator(MergeLog& log, std::size_t dist, std::size_t shard)
      : log_(log), dist_(dist), begin_(shard), end_(shard + 1) {
    ++log_.live;
  }
  ~RangeAccumulator() override { --log_.live; }

  void accumulate(const ShardBlock&) override {}
  void merge(ShardAccumulator& other) override {
    const auto& right = dynamic_cast<RangeAccumulator&>(other);
    {
      std::lock_guard<std::mutex> lock(log_.mutex);
      log_.merges.push_back({dist_, begin_, end_, right.begin_, right.end_});
    }
    end_ = right.end_;
  }
  void save(ByteWriter&) const override {}
  void load(ByteReader&) override {}

  std::size_t begin() const { return begin_; }
  std::size_t end() const { return end_; }

 private:
  MergeLog& log_;
  std::size_t dist_;
  std::size_t begin_;
  std::size_t end_;
};

class RangeDistinguisher final : public Distinguisher {
 public:
  explicit RangeDistinguisher(bool ordered) : ordered_(ordered) {}

  TraceDataKind data_kind() const override { return TraceDataKind::kScalar; }
  std::size_t sbox_index() const override { return 0; }
  bool ordered() const override { return ordered_; }
  void validate(const RoundSpec&) const override {}
  std::unique_ptr<ShardAccumulator> make_shard_accumulator() const override {
    ADD_FAILURE() << "the reducer must not make accumulators";
    return nullptr;
  }
  void finalize(ShardAccumulator&) override {}

 private:
  bool ordered_;
};

// The oracle's accumulator: a plain range whose merges the tree records.
struct OracleRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::vector<Merge>* merges = nullptr;

  void merge(OracleRange& right) {
    merges->push_back({0, begin, end, right.begin, right.end});
    end = right.end;
  }
};

std::vector<Merge> tree_merges(std::size_t n) {
  std::vector<Merge> merges;
  std::vector<OracleRange> shards;
  for (std::size_t s = 0; s < n; ++s) shards.push_back({s, s + 1, &merges});
  merge_shard_tree(std::move(shards));
  std::sort(merges.begin(), merges.end());
  return merges;
}

std::vector<std::size_t> hand_over_order(std::size_t n, const std::string& kind) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (kind == "reverse") std::reverse(order.begin(), order.end());
  if (kind == "shuffle") {
    std::mt19937_64 rng(0x5EED + n);
    std::shuffle(order.begin(), order.end(), rng);
  }
  return order;
}

// Distinguisher lists: CPA + DoM + MTD shaped, and each kind alone.
const std::vector<std::vector<bool>> kOrderedFlags = {
    {false, false, true}, {false}, {true}};

TEST(ShardReducerTest, AnyCompletionOrderPerformsTheTreeAndTheOrderedFold) {
  WorkerPool pool;
  for (std::size_t n = 1; n <= 70; ++n) {
    const std::vector<Merge> tree = tree_merges(n);
    for (const std::vector<bool>& flags : kOrderedFlags) {
      for (const std::string kind : {"forward", "reverse", "shuffle"}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          SCOPED_TRACE("n " + std::to_string(n) + ", " + kind + ", " +
                       std::to_string(threads) + " threads, " +
                       std::to_string(flags.size()) + " distinguishers");
          MergeLog log;
          std::vector<std::unique_ptr<RangeDistinguisher>> owners;
          std::vector<Distinguisher*> list;
          ShardStates states = make_shard_states(flags.size(), n);
          for (std::size_t d = 0; d < flags.size(); ++d) {
            owners.push_back(std::make_unique<RangeDistinguisher>(flags[d]));
            list.push_back(owners.back().get());
            for (std::size_t s = 0; s < n; ++s) {
              states[d][s] = std::make_unique<RangeAccumulator>(log, d, s);
            }
          }
          const std::vector<std::size_t> order = hand_over_order(n, kind);
          {
            ShardReducer reducer(list, states);
            pool.parallel_for(n, threads, [] { return 0; },
                              [&](int, std::size_t k) {
                                reducer.shard_done(order[k]);
                              });
          }

          // Only the roots are alive, and each covers every shard.
          EXPECT_EQ(log.live.load(), static_cast<long>(flags.size()));
          for (std::size_t d = 0; d < flags.size(); ++d) {
            ASSERT_NE(states[d][0], nullptr);
            const auto& root = dynamic_cast<RangeAccumulator&>(*states[d][0]);
            EXPECT_EQ(root.begin(), 0u);
            EXPECT_EQ(root.end(), n);
            for (std::size_t s = 1; s < n; ++s) {
              EXPECT_EQ(states[d][s], nullptr) << "d " << d << " shard " << s;
            }
          }

          for (std::size_t d = 0; d < flags.size(); ++d) {
            std::vector<Merge> mine;
            for (Merge m : log.merges) {
              if (m[0] != d) continue;
              m[0] = 0;
              mine.push_back(m);
            }
            if (flags[d]) {
              // The ordered fold: shard j joins [0, j), for j = 1..n-1
              // in this order.
              ASSERT_EQ(mine.size(), n - 1) << "d " << d;
              for (std::size_t j = 1; j < n; ++j) {
                EXPECT_EQ(mine[j - 1], (Merge{0, 0, j, j, j + 1}))
                    << "d " << d << " fold step " << j;
              }
            } else {
              std::sort(mine.begin(), mine.end());
              EXPECT_EQ(mine, tree) << "d " << d;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace sable
