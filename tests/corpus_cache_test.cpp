// SharedCorpus and replay_shared. The load-bearing claims under test:
// (1) concurrent acquirers of one SharedCorpus decode each compressed
// chunk once between them, and a held lease is never decoded twice
// (decode_count() is the witness, and the TSan CI job runs this
// binary); (2) replay_shared — one flattened pass over every attack set
// — is bit-identical to plain CorpusReader replay of each set and to the
// live campaign over the same list, and leaves the cache empty; (3) raw
// corpora bypass the cache entirely (zero decodes, zero copies); (4) a
// corrupt chunk throws a typed error out of acquire() without wedging
// later acquirers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "crypto/round_target.hpp"
#include "crypto/sboxes.hpp"
#include "dpa/attack.hpp"
#include "dpa/distinguisher.hpp"
#include "dpa/mtd.hpp"
#include "engine/trace_engine.hpp"
#include "io/corpus.hpp"
#include "io/corpus_cache.hpp"
#include "io/replay.hpp"
#include "util/error.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "corpus_cache_" + name;
}

CampaignOptions small_options() {
  CampaignOptions options;
  options.num_traces = 3000;  // 7 shards of 448 with a ragged tail
  options.key = {0xB};
  options.noise_sigma = 2e-16;
  options.seed = 0x5EED;
  options.shard_size = 448;
  return options;
}

void expect_same_scores(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t g = 0; g < a.size(); ++g) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[g]),
              std::bit_cast<std::uint64_t>(b[g]))
        << "guess " << g;
  }
}

// One recorded campaign per fixture instantiation, shared by the cases.
class SharedCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
    options_ = small_options();
    compressed_path_ = temp_path("compressed.corpus");
    engine.record(options_, TraceDataKind::kScalar, compressed_path_);
    raw_path_ = temp_path("raw.corpus");
    engine.record(options_, TraceDataKind::kScalar, raw_path_,
                  kCorpusCompressionNone);

    const AttackSelector selector{.model = PowerModel::kHammingWeight};
    CpaDistinguisher ref(engine.spec(), selector);
    Distinguisher* const list[] = {&ref};
    engine.run_distinguishers(options_, list);
    ref_scores_ = ref.result().score;
  }

  CampaignOptions options_;
  std::string compressed_path_;
  std::string raw_path_;
  std::vector<double> ref_scores_;
};

TEST_F(SharedCorpusTest, ConcurrentEvaluationsDecodeEachChunkOnce) {
  SharedCorpus corpus(compressed_path_);
  const std::size_t shards = corpus.num_shards();
  ASSERT_EQ(shards, 7u);

  // Four threads acquire every shard, racing on the same slots: each
  // chunk is decoded by whichever thread gets there first, and the
  // others wait for it or hit the cache.
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kThreads; ++k) {
    threads.emplace_back([&] {
      for (std::size_t s = 0; s < shards; ++s) {
        const SharedCorpus::Lease lease = corpus.acquire(s);
        EXPECT_EQ(lease.view().count, corpus.reader().shard_count(s));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // The decode-once guarantee: 4 threads x 7 shards touched the codec
  // exactly 7 times.
  EXPECT_EQ(corpus.decode_count(), shards);

  // The cached buffers hold exactly what a plain decode produces.
  const CorpusReader plain(compressed_path_);
  CorpusDecodeScratch scratch;
  for (std::size_t s = 0; s < shards; ++s) {
    const CorpusShardView want = plain.read_shard(s, scratch);
    const CorpusShardView got = corpus.acquire(s).view();
    ASSERT_EQ(got.count, want.count);
    EXPECT_EQ(std::memcmp(got.pts, want.pts,
                          want.count * corpus.manifest().pt_stride),
              0);
    EXPECT_EQ(std::memcmp(got.samples, want.samples,
                          want.count * sizeof(double)),
              0);
  }

  // Acquiring a shard again while a lease on it is held shares that
  // lease's buffers instead of decoding a second copy.
  const SharedCorpus::Lease held = corpus.acquire(0);
  const SharedCorpus::Lease again = corpus.acquire(0);
  EXPECT_EQ(again.view().pts, held.view().pts);
  EXPECT_EQ(corpus.decode_count(), shards);
}

TEST_F(SharedCorpusTest, SharedReplayMatchesPlainReplay) {
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  const AttackSelector selector{.model = PowerModel::kHammingWeight};

  const CorpusReader plain(compressed_path_);
  CpaDistinguisher from_plain(engine.spec(), selector);
  Distinguisher* const list1[] = {&from_plain};
  EXPECT_TRUE(replay_distinguishers(plain, engine.round(), list1));

  SharedCorpus shared(compressed_path_);
  CpaDistinguisher from_shared(engine.spec(), selector);
  Distinguisher* const list2[] = {&from_shared};
  const std::span<Distinguisher* const> sets2[] = {list2};
  replay_shared(shared, engine.round(), sets2);

  expect_same_scores(from_shared.result().score, from_plain.result().score);
  expect_same_scores(from_shared.result().score, ref_scores_);

  // A replay against a DIFFERENT round must be rejected, not waved
  // through after a successful one.
  TraceEngine other(present_spec(), LogicStyle::kSablGenuine, kTech);
  CpaDistinguisher wrong(other.spec(), selector);
  Distinguisher* const list3[] = {&wrong};
  const std::span<Distinguisher* const> sets3[] = {list3};
  EXPECT_THROW(replay_shared(shared, other.round(), sets3),
               ManifestMismatchError);
}

TEST_F(SharedCorpusTest, MultiSetOnePassMatchesIndividualReplays) {
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  const AttackSelector selector{.model = PowerModel::kHammingWeight};

  SharedCorpus corpus(compressed_path_);
  CpaDistinguisher cpa_a(engine.spec(), selector);
  DomDistinguisher dom_a(
      engine.spec(),
      AttackSelector{.model = PowerModel::kHammingWeight, .bit = 1});
  CpaDistinguisher cpa_b(engine.spec(), selector);
  Distinguisher* const set_a[] = {&cpa_a, &dom_a};
  Distinguisher* const set_b[] = {&cpa_b};
  const std::span<Distinguisher* const> sets[] = {set_a, set_b};
  replay_shared(corpus, engine.round(), sets, /*num_threads=*/2);

  // One flattened pass for both sets: each party decodes into its own
  // scratch, so the cache is never filled.
  EXPECT_EQ(corpus.decode_count(), 0u);
  expect_same_scores(cpa_a.result().score, ref_scores_);
  expect_same_scores(cpa_b.result().score, ref_scores_);

  const CorpusReader plain(compressed_path_);
  DomDistinguisher dom_ref(
      engine.spec(),
      AttackSelector{.model = PowerModel::kHammingWeight, .bit = 1});
  Distinguisher* const ref_list[] = {&dom_ref};
  EXPECT_TRUE(replay_distinguishers(plain, engine.round(), ref_list));
  expect_same_scores(dom_a.result().score, dom_ref.result().score);
}

TEST_F(SharedCorpusTest, RawCorpusBypassesCache) {
  SharedCorpus corpus(raw_path_);
  {
    const SharedCorpus::Lease lease = corpus.acquire(0);
    // Zero-copy: the lease aliases the shared mapping directly.
    EXPECT_EQ(lease.view().pts, corpus.reader().shard_plaintexts(0));
    EXPECT_EQ(lease.view().samples, corpus.reader().shard_samples(0));
  }
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  CpaDistinguisher cpa(engine.spec(),
                       AttackSelector{.model = PowerModel::kHammingWeight});
  Distinguisher* const list[] = {&cpa};
  const std::span<Distinguisher* const> sets[] = {list};
  replay_shared(corpus, engine.round(), sets);
  expect_same_scores(cpa.result().score, ref_scores_);
  EXPECT_EQ(corpus.decode_count(), 0u);
}

TEST_F(SharedCorpusTest, CorruptChunkThrowsTypedAndDoesNotWedge) {
  // Overwrite shard 0's stored chunk with 0xFF: the RLE framing decodes
  // to an over-long token and must throw a typed error from acquire()
  // — in every acquiring thread, however many race — while later
  // acquires of GOOD shards keep working.
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(compressed_path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const CorpusReader probe(compressed_path_);
  const std::size_t stored =
      static_cast<std::size_t>(probe.shard_stored_bytes(0));
  // Chunk 0 starts right after the header+index block; its offset is
  // where the first shard's data was written. Find it via the raw view
  // machinery: v2 index entries are 32 bytes starting at offset 96.
  std::uint64_t chunk0 = 0;
  std::memcpy(&chunk0, bytes.data() + 96, sizeof(chunk0));
  ASSERT_LT(chunk0 + stored, bytes.size());
  std::fill(bytes.begin() + static_cast<std::ptrdiff_t>(chunk0),
            bytes.begin() + static_cast<std::ptrdiff_t>(chunk0 + stored),
            std::uint8_t{0xFF});
  const std::string p = temp_path("corrupt.corpus");
  {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  SharedCorpus corpus(p);
  constexpr std::size_t kThreads = 4;
  std::vector<int> threw(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      try {
        (void)corpus.acquire(0);
      } catch (const IoError&) {
        threw[k] = 1;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t k = 0; k < kThreads; ++k) {
    EXPECT_EQ(threw[k], 1) << "thread " << k;
  }
  // The failed slot was erased, not wedged: good shards still decode.
  const SharedCorpus::Lease ok = corpus.acquire(1);
  EXPECT_EQ(ok.view().count, corpus.reader().shard_count(1));
  EXPECT_THROW(corpus.acquire(corpus.num_shards()), ShardIndexError);
}

// One CPA+DoM+MTD set per instance of a 4-S-box static-CMOS round (the
// campaign_cli --all-subkeys list): replay_shared over the recorded
// corpus is bit-identical to the live campaign over the flattened list,
// at every thread count.
struct InstanceSet {
  CpaDistinguisher cpa;
  DomDistinguisher dom;
  MtdDistinguisher mtd;
  std::vector<Distinguisher*> list;

  InstanceSet(const RoundSpec& round, std::size_t sbox, std::size_t subkey,
              std::size_t num_traces)
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
            subkey, default_checkpoints(num_traces), num_traces),
        list{&cpa, &dom, &mtd} {}
};

std::vector<std::unique_ptr<InstanceSet>> instance_sets(
    const RoundSpec& round, const CampaignOptions& options) {
  std::vector<std::unique_ptr<InstanceSet>> sets;
  for (std::size_t j = 0; j < round.num_sboxes(); ++j) {
    sets.push_back(std::make_unique<InstanceSet>(
        round, j, round.sub_word(options.key.data(), j), options.num_traces));
  }
  return sets;
}

TEST(ReplaySharedTest, AllInstanceSetsMatchTheLiveFlattenedCampaign) {
  const RoundSpec round = present_round(4, LogicStyle::kStaticCmos);
  CampaignOptions options = small_options();
  options.key = round.pack_subkeys({0xB, 0x2, 0x9, 0x4});
  TraceEngine engine(round, kTech);
  const std::string path = temp_path("round4.corpus");
  engine.record(options, TraceDataKind::kScalar, path);

  const auto live = instance_sets(round, options);
  std::vector<Distinguisher*> list;
  for (const auto& set : live) {
    list.insert(list.end(), set->list.begin(), set->list.end());
  }
  engine.run_distinguishers(options, list);

  for (std::size_t threads : {1u, 2u, 7u}) {
    SCOPED_TRACE(threads);
    SharedCorpus corpus(path);
    const auto replayed = instance_sets(round, options);
    std::vector<std::span<Distinguisher* const>> spans;
    for (const auto& set : replayed) spans.emplace_back(set->list);
    replay_shared(corpus, round, spans, threads);
    for (std::size_t j = 0; j < live.size(); ++j) {
      SCOPED_TRACE(j);
      expect_same_scores(replayed[j]->cpa.result().score,
                         live[j]->cpa.result().score);
      expect_same_scores(replayed[j]->dom.result().score,
                         live[j]->dom.result().score);
      const MtdResult& got = replayed[j]->mtd.result();
      const MtdResult& want = live[j]->mtd.result();
      EXPECT_EQ(got.rank_history, want.rank_history);
      EXPECT_EQ(got.mtd, want.mtd);
      EXPECT_EQ(got.disclosed, want.disclosed);
    }
  }
}

}  // namespace
}  // namespace sable
