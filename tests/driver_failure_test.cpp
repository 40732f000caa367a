// Failure paths of the campaign drivers. An accumulator that throws on
// one shard must surface its exception from every entry point that feeds
// shards — run_distinguishers, replay over a CorpusReader, and
// replay_shared — at 1 and 4 threads, and must leave the engine (leased
// simulator clones, parked pool) and the corpus clean: the next campaign
// on the same objects is bit-identical to a fresh engine's.
// A sink that throws mid-stream must rethrow out of the ordered stream
// without wedging the parties waiting on its ring, and the sink is never
// re-entered nor sees a shard out of canonical order. A corpus write that
// fails — at the header or mid-stream, in record()'s ordered drain —
// must throw IoError, leave no temporary file and keep the corpus
// previously published at the path. A campaign that checkpoints as it
// goes keeps a checkpoint of a wave prefix when a shard or a checkpoint
// write fails, and that checkpoint resumes to the uninterrupted result.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
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
#include "util/error.hpp"

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
  FailingAccumulator(std::unique_ptr<ShardAccumulator> inner,
                     std::size_t failing_shard)
      : inner_(std::move(inner)), failing_shard_(failing_shard) {}

  void accumulate(const ShardBlock& block) override {
    if (block.start == failing_shard_ * kShardSize) {
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
  std::size_t failing_shard_;
};

class FailingDistinguisher final : public Distinguisher {
 public:
  explicit FailingDistinguisher(const SboxSpec& spec,
                                std::size_t failing_shard = kFailingShard)
      : inner_(spec, kSelector), failing_shard_(failing_shard) {}

  TraceDataKind data_kind() const override { return inner_.data_kind(); }
  std::size_t sbox_index() const override { return inner_.sbox_index(); }
  void validate(const RoundSpec& round) const override {
    inner_.validate(round);
  }
  std::unique_ptr<ShardAccumulator> make_shard_accumulator() const override {
    return std::make_unique<FailingAccumulator>(
        inner_.make_shard_accumulator(), failing_shard_);
  }
  void finalize(ShardAccumulator&) override {
    ADD_FAILURE() << "a failed campaign must not finalize";
  }

 private:
  CpaDistinguisher inner_;
  std::size_t failing_shard_;
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

// The stream sinks from whichever party completes the next shard, so a
// throwing sink call may run on a pool thread while other parties wait on
// the ring window (47 one-word shards against a 10-slot ring at 4
// threads). Wherever the k-th call throws — the first shard, an early
// one, the last — the failure must stop the stream after exactly k calls
// and release every waiting party, and the engine must stream the full
// campaign bit-identically afterwards.
TEST(StreamFailureTest, ThrowingSinkRethrowsWithoutHanging) {
  CampaignOptions options = options_with(4);
  options.shard_size = 64;
  TraceEngine engine = make_engine();
  TraceEngine fresh = make_engine();
  const TraceSet reference = fresh.run(options);
  for (const std::size_t k : {1u, 3u, 47u}) {
    SCOPED_TRACE(k);
    std::size_t calls = 0;
    const TraceSink failing = [&](const std::uint8_t*, const double*,
                                  std::size_t) {
      if (++calls == k) throw ShardFailure("sink failed");
    };
    EXPECT_THROW(engine.stream(options, failing), ShardFailure);
    EXPECT_EQ(calls, k);

    TraceSet streamed;
    engine.stream(options,
                  [&](const std::uint8_t* pts, const double* samples,
                      std::size_t n) {
                    streamed.plaintexts.insert(streamed.plaintexts.end(), pts,
                                               pts + n);
                    streamed.samples.insert(streamed.samples.end(), samples,
                                            samples + n);
                  });
    EXPECT_EQ(streamed.plaintexts, reference.plaintexts);
    EXPECT_EQ(streamed.samples, reference.samples);
  }
}

// Whichever party drains, the sink is never re-entered and sees every
// shard once, in canonical order: a sink that flags itself in flight
// checks each block against the retained campaign, at 2 and 7 threads,
// with fewer shards than the ring window (5) and more (47).
TEST(StreamOrderTest, SinkIsNeverReenteredAndSeesCanonicalOrder) {
  TraceEngine engine = make_engine();
  for (const std::size_t threads : {2u, 7u}) {
    for (const std::size_t num_traces : {300u, 3000u}) {
      SCOPED_TRACE(testing::Message() << threads << " threads, "
                                      << num_traces << " traces");
      CampaignOptions options = options_with(threads);
      options.shard_size = 64;
      options.num_traces = num_traces;
      const TraceSet reference = engine.run(options);
      std::atomic<bool> in_flight{false};
      std::atomic<std::size_t> reentries{0};
      std::size_t next = 0;  // the first trace the next block must start at
      std::size_t mismatches = 0;
      engine.stream(options, [&](const std::uint8_t* pts,
                                 const double* samples, std::size_t n) {
        if (in_flight.exchange(true)) reentries.fetch_add(1);
        std::this_thread::yield();  // widen the window a re-entry would hit
        if (n != std::min<std::size_t>(64, num_traces - next) ||
            std::memcmp(pts, reference.plaintexts.data() + next, n) != 0 ||
            std::memcmp(samples, reference.samples.data() + next,
                        n * sizeof(double)) != 0) {
          ++mismatches;
        }
        next += n;
        in_flight.store(false);
      });
      EXPECT_EQ(reentries.load(), 0u);
      EXPECT_EQ(mismatches, 0u);
      EXPECT_EQ(next, num_traces);
    }
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

// Lowers this process's soft RLIMIT_FSIZE to `bytes` for the guard's
// lifetime, with SIGXFSZ ignored so a write past the limit fails with
// EFBIG instead of killing the process. Both act on the test process
// only, and both are restored at scope exit.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    EXPECT_EQ(getrlimit(RLIMIT_FSIZE, &saved_), 0);
    previous_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = saved_;
    lowered.rlim_cur = std::min(bytes, saved_.rlim_max);
    EXPECT_EQ(setrlimit(RLIMIT_FSIZE, &lowered), 0);
  }
  ~FileSizeLimit() {
    setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, previous_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*previous_)(int) = SIG_DFL;
};

// 400 one-word shards: the header and its 12.8 KB index placeholder
// already pass 1 KiB (and the stdio buffer, so the constructor's write
// itself fails), while 64 KiB fails mid-stream in the ordered drain,
// after the parties have encoded shards ahead of it.
constexpr rlim_t kHeaderLimit = 1024;
constexpr rlim_t kMidStreamLimit = 64 * 1024;

CampaignOptions write_limit_options(std::size_t threads) {
  CampaignOptions options = options_with(threads);
  options.shard_size = 64;
  options.num_traces = 400 * 64;
  return options;
}

TEST(CorpusWriteFailureTest, ConstructorRemovesItsTempFile) {
  const std::string path = testing::TempDir() + "driver_failure_header";
  std::filesystem::remove(path);
  TraceEngine engine = make_engine();
  CorpusManifest manifest;
  manifest.campaign = engine.campaign_manifest(write_limit_options(1));
  manifest.pt_stride = engine.round().state_bytes();
  {
    FileSizeLimit limit(kHeaderLimit);
    EXPECT_THROW(CorpusWriter(path, manifest), IoError);
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(path));
}

// Whichever party drains when the write fails, record() must rethrow
// without hanging, discard the .tmp and leave the previous corpus at the
// path byte for byte; the next record() on the same engine must match a
// fresh engine's, at 1 and 4 threads and for both codecs.
TEST(CorpusWriteFailureTest, RecordRethrowsAndKeepsThePublishedCorpus) {
  const std::string path = testing::TempDir() + "driver_failure_limited";
  const std::string fresh_path = testing::TempDir() + "driver_failure_fresh";
  for (const std::uint32_t codec :
       {kCorpusCompressionDeltaPlaneRle, kCorpusCompressionNone}) {
    TraceEngine fresh = make_engine();
    fresh.record(write_limit_options(1), TraceDataKind::kScalar, fresh_path,
                 codec);
    const std::vector<std::uint8_t> expected = read_file(fresh_path);
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(testing::Message() << "codec " << codec << ", "
                                      << threads << " threads");
      const CampaignOptions options = write_limit_options(threads);
      CampaignOptions previous = options;
      previous.seed += 1;  // a different campaign, so a clobber shows
      TraceEngine engine = make_engine();
      engine.record(previous, TraceDataKind::kScalar, path, codec);
      const std::vector<std::uint8_t> published = read_file(path);
      for (const rlim_t bytes : {kHeaderLimit, kMidStreamLimit}) {
        SCOPED_TRACE(bytes);
        {
          FileSizeLimit limit(bytes);
          EXPECT_THROW(
              engine.record(options, TraceDataKind::kScalar, path, codec),
              IoError);
        }
        EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
        EXPECT_TRUE(read_file(path) == published);
      }
      engine.record(options, TraceDataKind::kScalar, path, codec);
      EXPECT_TRUE(read_file(path) == expected);
    }
  }
}

// ---- checkpoints of a failing campaign --------------------------------------

// Checkpointing every 2 shards of the 7-shard campaign, whose shard 5
// fails: the checkpoints are published from the ordered drain as the
// done prefix of the worklist crosses each multiple of 2.
constexpr std::size_t kEvery = 2;
constexpr std::size_t kCheckpointFailingShard = 5;

std::string checkpoint_path() {
  return testing::TempDir() + "driver_failure_checkpoint";
}

// The files range runs over [0, 2k) write, for k = 1, 2, …: what the
// checkpoint of each wave prefix must hold, byte for byte.
std::vector<std::vector<std::uint8_t>> wave_prefix_files(std::size_t waves) {
  std::vector<std::vector<std::uint8_t>> files;
  for (std::size_t k = 1; k <= waves; ++k) {
    TraceEngine engine = make_engine();
    CpaDistinguisher cpa(engine.spec(), kSelector);
    Distinguisher* const list[] = {&cpa};
    CampaignPersistence range;
    range.shard_end = k * kEvery;
    range.checkpoint_path = checkpoint_path();
    EXPECT_FALSE(engine.run_distinguishers(options_with(1), list, range));
    files.push_back(read_file(range.checkpoint_path));
  }
  return files;
}

// One campaign of the test's source: simulated live, or replayed from
// the recorded corpus.
bool run_source(TraceEngine& engine, const CorpusReader* corpus,
                std::size_t threads,
                std::span<Distinguisher* const> distinguishers,
                const CampaignPersistence& persist) {
  return corpus ? engine.replay(*corpus, distinguishers, persist, threads)
                : engine.run_distinguishers(options_with(threads),
                                            distinguishers, persist);
}

// Resuming `path` into a plain CPA reproduces the uninterrupted scores.
void expect_resume_matches(const std::string& path, const CorpusReader* corpus,
                           std::size_t threads,
                           const std::vector<double>& reference) {
  TraceEngine engine = make_engine();
  CpaDistinguisher cpa(engine.spec(), kSelector);
  Distinguisher* const list[] = {&cpa};
  CampaignPersistence resume;
  resume.resume_path = path;
  EXPECT_TRUE(run_source(engine, corpus, threads, list, resume));
  expect_same_scores(cpa.result().score, reference);
}

// A shard that throws stops the drain: the file left at the checkpoint
// path is the range run over a wave prefix [0, 2k) with 2k <= 5 — exactly
// [0, 4) at 1 thread, where every earlier shard drains before shard 5
// runs; at 4 threads the failure may stop the drain before it published
// anything. Resuming what survives reproduces the plain run, live and
// from the corpus.
TEST_F(DriverFailureTest, FailingShardKeepsAWavePrefixCheckpoint) {
  const auto prefixes =
      wave_prefix_files(kCheckpointFailingShard / kEvery);
  const CorpusReader corpus(corpus_path_);
  for (const CorpusReader* source : {static_cast<const CorpusReader*>(nullptr),
                                     &corpus}) {
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(testing::Message() << (source ? "replay" : "live") << ", "
                                      << threads << " threads");
      std::filesystem::remove(checkpoint_path());
      TraceEngine engine = make_engine();
      FailingDistinguisher failing(engine.spec(), kCheckpointFailingShard);
      Distinguisher* const list[] = {&failing};
      CampaignPersistence persist;
      persist.checkpoint_path = checkpoint_path();
      persist.checkpoint_every_shards = kEvery;
      EXPECT_THROW(run_source(engine, source, threads, list, persist),
                   ShardFailure);
      EXPECT_FALSE(std::filesystem::exists(checkpoint_path() + ".tmp"));
      if (threads == 1) {
        ASSERT_TRUE(std::filesystem::exists(checkpoint_path()));
        EXPECT_TRUE(read_file(checkpoint_path()) == prefixes.back());
      }
      if (!std::filesystem::exists(checkpoint_path())) continue;
      const std::vector<std::uint8_t> survivor = read_file(checkpoint_path());
      EXPECT_TRUE(std::find(prefixes.begin(), prefixes.end(), survivor) !=
                  prefixes.end());
      expect_resume_matches(checkpoint_path(), source, threads, reference_);
    }
  }
}

// A checkpoint write that fails (the file size limit falls between the
// first and the second wave's file) rethrows IoError from the drain,
// removes its .tmp and leaves the first wave's checkpoint in place,
// whichever party drains; resuming it reproduces the plain run.
TEST_F(DriverFailureTest, FailingCheckpointWriteKeepsThePreviousOne) {
  const auto prefixes = wave_prefix_files(2);
  const rlim_t limit =
      static_cast<rlim_t>((prefixes[0].size() + prefixes[1].size()) / 2);
  const CorpusReader corpus(corpus_path_);
  for (const CorpusReader* source : {static_cast<const CorpusReader*>(nullptr),
                                     &corpus}) {
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(testing::Message() << (source ? "replay" : "live") << ", "
                                      << threads << " threads");
      std::filesystem::remove(checkpoint_path());
      TraceEngine engine = make_engine();
      CpaDistinguisher cpa(engine.spec(), kSelector);
      Distinguisher* const list[] = {&cpa};
      CampaignPersistence persist;
      persist.checkpoint_path = checkpoint_path();
      persist.checkpoint_every_shards = kEvery;
      {
        FileSizeLimit guard(limit);
        EXPECT_THROW(run_source(engine, source, threads, list, persist),
                     IoError);
      }
      EXPECT_FALSE(std::filesystem::exists(checkpoint_path() + ".tmp"));
      EXPECT_TRUE(read_file(checkpoint_path()) == prefixes[0]);
      expect_resume_matches(checkpoint_path(), source, threads, reference_);
    }
  }
}

}  // namespace
}  // namespace sable
