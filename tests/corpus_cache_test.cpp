// SharedCorpus: the decoded-chunk cache serving N concurrent
// evaluations. The load-bearing claims under test: (1) concurrent
// evaluations replaying from one SharedCorpus decode each compressed
// chunk at most once between them (decode_count() is the witness, and
// the TSan CI job runs this binary); (2) shared-cache replay is
// bit-identical to plain CorpusReader replay; (3) raw corpora bypass
// the cache entirely (zero decodes, zero copies); (4) a bounded cache
// evicts and re-decodes instead of growing, and a corrupt chunk throws
// a typed error out of acquire() without wedging later acquirers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "crypto/round_target.hpp"
#include "crypto/sboxes.hpp"
#include "dpa/attack.hpp"
#include "dpa/distinguisher.hpp"
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

  // Four concurrent evaluations, each driving its own distinguisher
  // over the whole corpus from its own thread — the deployment shape
  // the cache exists for.
  constexpr std::size_t kEvaluations = 4;
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  std::vector<CpaDistinguisher> cpas;
  cpas.reserve(kEvaluations);
  for (std::size_t k = 0; k < kEvaluations; ++k) {
    cpas.emplace_back(engine.spec(), selector);
  }
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kEvaluations; ++k) {
    threads.emplace_back([&, k] {
      Distinguisher* const list[] = {&cpas[k]};
      replay_distinguishers(corpus, engine.round(), list, {},
                            /*num_threads=*/2);
    });
  }
  for (std::thread& t : threads) t.join();

  // The decode-once guarantee: 4 evaluations x 7 shards touched the
  // codec at most 7 times (exactly 7 — every shard was needed).
  EXPECT_EQ(corpus.decode_count(), shards);
  for (const CpaDistinguisher& cpa : cpas) {
    expect_same_scores(cpa.result().score, ref_scores_);
  }
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
  EXPECT_TRUE(replay_distinguishers(shared, engine.round(), list2));

  expect_same_scores(from_shared.result().score, from_plain.result().score);
  expect_same_scores(from_shared.result().score, ref_scores_);

  // The spec validation memoized on the first replay; a replay against a
  // DIFFERENT round must still be rejected, not waved through.
  TraceEngine other(present_spec(), LogicStyle::kSablGenuine, kTech);
  CpaDistinguisher wrong(other.spec(), selector);
  Distinguisher* const list3[] = {&wrong};
  EXPECT_THROW(replay_distinguishers(shared, other.round(), list3),
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

  // One pass for both sets: still at most one decode per chunk.
  EXPECT_EQ(corpus.decode_count(), corpus.num_shards());
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
  EXPECT_TRUE(replay_distinguishers(corpus, engine.round(), list));
  expect_same_scores(cpa.result().score, ref_scores_);
  EXPECT_EQ(corpus.decode_count(), 0u);
}

TEST_F(SharedCorpusTest, BoundedCacheEvictsAndRedecodes) {
  SharedCorpus corpus(compressed_path_, /*max_cached_shards=*/2);
  const std::size_t shards = corpus.num_shards();
  // Two sequential full passes over a 2-slot cache: every acquire past
  // the cap evicts the LRU slot, so the second pass re-decodes every
  // shard instead of hitting the (long-evicted) slots.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t s = 0; s < shards; ++s) {
      const SharedCorpus::Lease lease = corpus.acquire(s);
      EXPECT_EQ(lease.view().count, corpus.reader().shard_count(s));
    }
  }
  EXPECT_EQ(corpus.decode_count(), 2 * shards);

  // A held lease pins its slot: acquiring the same shard again while the
  // lease is live must not decode a second copy.
  const std::uint64_t before = corpus.decode_count();
  const SharedCorpus::Lease held = corpus.acquire(0);
  const SharedCorpus::Lease again = corpus.acquire(0);
  EXPECT_EQ(again.view().pts, held.view().pts);
  EXPECT_EQ(corpus.decode_count(), before + 1);
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

}  // namespace
}  // namespace sable
