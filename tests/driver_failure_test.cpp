// Failure paths of the campaign drivers. An accumulator that throws on
// one shard must surface its exception from every entry point that feeds
// shards — run_distinguishers, replay over a CorpusReader, and
// replay_shared — at 1 and 4 threads, and must leave the engine (leased
// simulator clones, parked pool) and the corpus clean: the next campaign
// on the same objects is bit-identical to a fresh engine's.
// A sink that throws mid-stream must rethrow out of the ordered ring
// without wedging the workers waiting on it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "crypto/round_target.hpp"
#include "crypto/sboxes.hpp"
#include "dpa/attack.hpp"
#include "dpa/distinguisher.hpp"
#include "engine/trace_engine.hpp"
#include "engine/worker_pool.hpp"
#include "io/corpus.hpp"
#include "io/corpus_cache.hpp"
#include "io/replay.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();
const AttackSelector kSelector{.model = PowerModel::kHammingWeight};
constexpr std::size_t kShardSize = 448;
constexpr std::size_t kFailingShard = 3;
constexpr std::size_t kThreadCounts[] = {1, 4};

struct ShardFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// 3000 traces over 448-trace shards = 7 shards with a ragged tail.
CampaignOptions options_with(std::size_t threads) {
  CampaignOptions options;
  options.num_traces = 3000;
  options.key = {0xB};
  options.noise_sigma = 2e-16;
  options.seed = 0x5EED;
  options.shard_size = kShardSize;
  options.num_threads = threads;
  return options;
}

// Forwards to a real CPA accumulator, but throws on the failing shard.
class FailingAccumulator final : public ShardAccumulator {
 public:
  explicit FailingAccumulator(std::unique_ptr<ShardAccumulator> inner)
      : inner_(std::move(inner)) {}

  void accumulate(const ShardBlock& block) override {
    if (block.start == kFailingShard * kShardSize) {
      throw ShardFailure("accumulator failed on its shard");
    }
    inner_->accumulate(block);
  }
  void merge(ShardAccumulator& other) override {
    inner_->merge(*static_cast<FailingAccumulator&>(other).inner_);
  }
  void save(ByteWriter& writer) const override { inner_->save(writer); }
  void load(ByteReader& reader) override { inner_->load(reader); }

 private:
  std::unique_ptr<ShardAccumulator> inner_;
};

class FailingDistinguisher final : public Distinguisher {
 public:
  explicit FailingDistinguisher(const SboxSpec& spec) : inner_(spec, kSelector) {}

  TraceDataKind data_kind() const override { return inner_.data_kind(); }
  std::size_t sbox_index() const override { return inner_.sbox_index(); }
  void validate(const RoundSpec& round) const override {
    inner_.validate(round);
  }
  std::unique_ptr<ShardAccumulator> make_shard_accumulator() const override {
    return std::make_unique<FailingAccumulator>(
        inner_.make_shard_accumulator());
  }
  void finalize(ShardAccumulator&) override {
    ADD_FAILURE() << "a failed campaign must not finalize";
  }

 private:
  CpaDistinguisher inner_;
};

void expect_same_scores(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t g = 0; g < a.size(); ++g) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[g]),
              std::bit_cast<std::uint64_t>(b[g]))
        << "guess " << g;
  }
}

TraceEngine make_engine() {
  return TraceEngine(present_spec(), LogicStyle::kStaticCmos, kTech);
}

std::vector<double> live_scores(TraceEngine& engine,
                                const CampaignOptions& options) {
  CpaDistinguisher cpa(engine.spec(), kSelector);
  Distinguisher* const list[] = {&cpa};
  engine.run_distinguishers(options, list);
  return cpa.result().score;
}

// A recorded corpus of the campaign plus a fresh engine's clean scores.
class DriverFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceEngine engine = make_engine();
    corpus_path_ = testing::TempDir() + "driver_failure.corpus";
    engine.record(options_with(1), TraceDataKind::kScalar, corpus_path_);
    reference_ = live_scores(engine, options_with(1));
  }

  std::string corpus_path_;
  std::vector<double> reference_;
};

TEST_F(DriverFailureTest, LiveCampaignRethrowsAndLeavesTheEngineClean) {
  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    TraceEngine engine = make_engine();
    FailingDistinguisher failing(engine.spec());
    Distinguisher* const list[] = {&failing};
    EXPECT_THROW(engine.run_distinguishers(options_with(threads), list),
                 ShardFailure);
    expect_same_scores(live_scores(engine, options_with(threads)), reference_);
  }
}

TEST_F(DriverFailureTest, CorpusReplayRethrowsAndLeavesTheEngineClean) {
  const CorpusReader corpus(corpus_path_);
  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    TraceEngine engine = make_engine();
    FailingDistinguisher failing(engine.spec());
    Distinguisher* const list[] = {&failing};
    EXPECT_THROW(engine.replay(corpus, list, {}, threads), ShardFailure);

    CpaDistinguisher cpa(engine.spec(), kSelector);
    Distinguisher* const clean[] = {&cpa};
    EXPECT_TRUE(engine.replay(corpus, clean, {}, threads));
    expect_same_scores(cpa.result().score, reference_);
    expect_same_scores(live_scores(engine, options_with(threads)), reference_);
  }
}

TEST_F(DriverFailureTest, SharedMultiSetReplayRethrowsAndStaysUsable) {
  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    SharedCorpus corpus(corpus_path_);
    WorkerPool pool;
    TraceEngine engine = make_engine();
    CpaDistinguisher bystander(engine.spec(), kSelector);
    FailingDistinguisher failing(engine.spec());
    Distinguisher* const good_set[] = {&bystander};
    Distinguisher* const bad_set[] = {&failing};
    const std::span<Distinguisher* const> sets[] = {good_set, bad_set};
    EXPECT_THROW(replay_shared(corpus, engine.round(), sets, threads, &pool),
                 ShardFailure);

    CpaDistinguisher cpa_a(engine.spec(), kSelector);
    CpaDistinguisher cpa_b(engine.spec(), kSelector);
    Distinguisher* const set_a[] = {&cpa_a};
    Distinguisher* const set_b[] = {&cpa_b};
    const std::span<Distinguisher* const> clean[] = {set_a, set_b};
    replay_shared(corpus, engine.round(), clean, threads, &pool);
    expect_same_scores(cpa_a.result().score, reference_);
    expect_same_scores(cpa_b.result().score, reference_);
  }
}

// The sink throws on its third shard while the other workers are blocked
// on the ring window (47 one-word shards against a 10-slot ring at 4
// threads): the emitter's failure must release them, and the engine must
// stream a full campaign afterwards.
TEST(StreamFailureTest, ThrowingSinkRethrowsWithoutHanging) {
  CampaignOptions options = options_with(4);
  options.shard_size = 64;
  TraceEngine engine = make_engine();
  std::size_t calls = 0;
  const TraceSink failing = [&](const std::uint8_t*, const double*,
                                std::size_t) {
    if (++calls == 3) throw ShardFailure("sink failed");
  };
  EXPECT_THROW(engine.stream(options, failing), ShardFailure);
  EXPECT_EQ(calls, 3u);

  TraceSet streamed;
  engine.stream(options, [&](const std::uint8_t* pts, const double* samples,
                             std::size_t n) { streamed.append(pts, samples, n); });
  TraceEngine fresh = make_engine();
  const TraceSet reference = fresh.run(options);
  EXPECT_EQ(streamed.plaintexts, reference.plaintexts);
  EXPECT_EQ(streamed.samples, reference.samples);
}

}  // namespace
}  // namespace sable
