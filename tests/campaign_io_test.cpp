// Campaign persistence: accumulator serialization round trips, recorded
// corpora, replay and multi-process partial-state merges — and the
// hostile-input contract: every malformed file throws a typed
// path-tagged error, never UB.
//
// The bit-identity claims under test are the subsystem's reason to
// exist: a recorded campaign replayed into any distinguisher, and a
// campaign split over disjoint shard ranges and merged from partial
// state files, must reproduce the single-process in-memory run bit for
// bit. Shard counts here are non-powers-of-two on purpose — that is the
// regime where storing merged prefixes instead of raw shard states
// would silently change the reduction tree's shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/round_target.hpp"
#include "crypto/sboxes.hpp"
#include "dpa/attack.hpp"
#include "dpa/distinguisher.hpp"
#include "dpa/mtd.hpp"
#include "dpa/second_order.hpp"
#include "dpa/streaming.hpp"
#include "engine/trace_engine.hpp"
#include "io/campaign_state.hpp"
#include "io/corpus.hpp"
#include "io/manifest.hpp"
#include "io/replay.hpp"
#include "io/serial.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

// Content fingerprints of the committed fixtures (see
// tests/data/README.md for the generation recipe). Trace simulation and
// the codec run one portable body each, so they are machine-independent.
// A fingerprint hashes decoded traces, so the raw and delta fixtures of
// one container share it — codec-invariance is part of what the goldens
// pin.
// golden_v3_{raw,delta}.sablcorp: the fixture campaign in the current
// trace stream (stream 2).
constexpr std::uint64_t kGoldenV3Fingerprint = 0x52af114912455688ull;
// golden_v1.sablcorp and golden_v2_{raw,delta}.sablcorp: the SAME
// campaign in stream 1, kept parse-only.
constexpr std::uint64_t kStream1Fingerprint = 0x4da603cdc3c1c754ull;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "campaign_io_" + name;
}

// 3000 traces over 448-trace shards = 7 shards with a partial tail: a
// non-power-of-2 count, one ragged shard — the reduction-shape stress
// layout the determinism tests already pin.
CampaignOptions small_options() {
  CampaignOptions options;
  options.num_traces = 3000;
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

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Deterministic sub-plaintexts and rows of `width` samples for
// accumulator-level round trips (no engine involved).
struct Block {
  std::vector<std::uint8_t> pts;
  std::vector<double> rows;  // [trace * width + column]
};

Block make_block(std::size_t count, std::size_t width) {
  Block block;
  Rng rng(0xF00D);
  for (std::size_t i = 0; i < count; ++i) {
    block.pts.push_back(static_cast<std::uint8_t>(rng.below(16)));
    for (std::size_t w = 0; w < width; ++w) {
      block.rows.push_back(1e-13 * rng.uniform());
    }
  }
  return block;
}

// ---- accumulator serialization --------------------------------------------

TEST(CampaignIoTest, StreamingCpaRoundTripsBitExactly) {
  StreamingCpa original(present_spec(), PowerModel::kHammingWeight);
  const Block block = make_block(257, 1);
  original.add_block(block.pts.data(), block.rows.data(), block.pts.size());
  ByteWriter writer;
  original.save(writer);

  StreamingCpa loaded(present_spec(), PowerModel::kHammingWeight);
  ByteReader reader(writer.buffer().data(), writer.buffer().size(), "mem");
  loaded.load(reader);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(loaded.count(), original.count());
  expect_same_scores(loaded.result().combined.score,
                     original.result().combined.score);

  // Re-serialization is byte-identical — the round trip loses nothing.
  ByteWriter again;
  loaded.save(again);
  EXPECT_EQ(again.buffer(), writer.buffer());
}

TEST(CampaignIoTest, StreamingDomRoundTripsBitExactly) {
  StreamingDom original(present_spec(), 2);
  const Block block = make_block(300, 1);
  original.add_block(block.pts.data(), block.rows.data(), block.pts.size());
  ByteWriter writer;
  original.save(writer);
  StreamingDom loaded(present_spec(), 2);
  ByteReader reader(writer.buffer().data(), writer.buffer().size(), "mem");
  loaded.load(reader);
  expect_same_scores(loaded.result().score, original.result().score);
  ByteWriter again;
  loaded.save(again);
  EXPECT_EQ(again.buffer(), writer.buffer());
}

TEST(CampaignIoTest, StreamingMultiCpaRoundTripsBitExactly) {
  constexpr std::size_t kWidth = 3;
  StreamingCpa original = StreamingCpa::time_resolved(
      present_spec(), PowerModel::kHammingWeight, kWidth);
  const Block block = make_block(211, kWidth);
  original.add_block(block.pts.data(), block.rows.data(), block.pts.size());
  ByteWriter writer;
  original.save(writer);
  StreamingCpa loaded = StreamingCpa::time_resolved(
      present_spec(), PowerModel::kHammingWeight, kWidth);
  ByteReader reader(writer.buffer().data(), writer.buffer().size(), "mem");
  loaded.load(reader);
  expect_same_scores(loaded.result().combined.score,
                     original.result().combined.score);
  ByteWriter again;
  loaded.save(again);
  EXPECT_EQ(again.buffer(), writer.buffer());
}

TEST(CampaignIoTest, SecondOrderCpaRoundTripsBitExactly) {
  constexpr std::size_t kWidth = 4;
  StreamingSecondOrderCpa original(present_spec(),
                                   PowerModel::kHammingWeight);
  const Block block = make_block(128, kWidth);
  original.add_block(block.pts.data(), block.rows.data(), block.pts.size(),
                     kWidth);
  ByteWriter writer;
  original.save(writer);
  StreamingSecondOrderCpa loaded(present_spec(),
                                 PowerModel::kHammingWeight);
  ByteReader reader(writer.buffer().data(), writer.buffer().size(), "mem");
  loaded.load(reader);
  expect_same_scores(loaded.result().combined.score,
                     original.result().combined.score);
  ByteWriter again;
  loaded.save(again);
  EXPECT_EQ(again.buffer(), writer.buffer());
}

TEST(CampaignIoTest, NeverFedSecondOrderRoundTripsAsWidthZero) {
  StreamingSecondOrderCpa original(present_spec(),
                                   PowerModel::kHammingWeight);
  ByteWriter writer;
  original.save(writer);
  StreamingSecondOrderCpa loaded(present_spec(),
                                 PowerModel::kHammingWeight);
  ByteReader reader(writer.buffer().data(), writer.buffer().size(), "mem");
  loaded.load(reader);
  EXPECT_EQ(loaded.count(), 0u);
}

TEST(CampaignIoTest, AccumulatorLoadRejectsWrongTypeAndConfig) {
  StreamingCpa cpa(present_spec(), PowerModel::kHammingWeight);
  ByteWriter writer;
  cpa.save(writer);
  // Wrong accumulator type behind the tag.
  {
    StreamingDom dom(present_spec(), 0);
    ByteReader reader(writer.buffer().data(), writer.buffer().size(), "mem");
    EXPECT_THROW(dom.load(reader), InvalidArgument);
  }
  // Same type, different configuration (model changes the prediction
  // table the moments were accumulated against).
  {
    StreamingCpa other(present_spec(), PowerModel::kSboxOutputBit, 1);
    ByteReader reader(writer.buffer().data(), writer.buffer().size(), "mem");
    EXPECT_THROW(other.load(reader), InvalidArgument);
  }
  // Scalar and time-resolved CPA are one accumulator class, and at width 1
  // they hold the same moments, but each reads only its own layout: a
  // scalar blob into a width-1 time-resolved accumulator ...
  StreamingCpa multi = StreamingCpa::time_resolved(
      present_spec(), PowerModel::kHammingWeight, 1);
  {
    ByteReader reader(writer.buffer().data(), writer.buffer().size(), "mem");
    EXPECT_THROW(multi.load(reader), InvalidArgument);
  }
  // ... and a width-1 time-resolved blob into a scalar one.
  {
    ByteWriter multi_writer;
    multi.save(multi_writer);
    ByteReader reader(multi_writer.buffer().data(),
                      multi_writer.buffer().size(), "mem");
    EXPECT_THROW(cpa.load(reader), InvalidArgument);
  }
}

TEST(CampaignIoTest, RoundSpecHashSeparatesFunctionallyDifferentRounds) {
  const RoundSpec a = present_round(2, LogicStyle::kSablGenuine);
  const RoundSpec b = present_round(2, LogicStyle::kSablGenuine);
  EXPECT_EQ(round_spec_hash(a), round_spec_hash(b));
  EXPECT_NE(round_spec_hash(a),
            round_spec_hash(present_round(2, LogicStyle::kStaticCmos)));
  EXPECT_NE(round_spec_hash(a),
            round_spec_hash(present_round(3, LogicStyle::kSablGenuine)));
  RoundSpec tweaked = a;
  std::swap(tweaked.sboxes[0].table[0], tweaked.sboxes[0].table[1]);
  EXPECT_NE(round_spec_hash(a), round_spec_hash(tweaked));
}

// ---- recorded corpora ------------------------------------------------------

TEST(CampaignIoTest, ScalarCorpusReplaysBitIdentically) {
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  const CampaignOptions options = small_options();
  const std::size_t subkey = options.key[0];
  const AttackSelector selector{.model = PowerModel::kHammingWeight};

  // Reference: the plain in-memory campaign.
  CpaDistinguisher ref_cpa(engine.spec(), selector);
  DomDistinguisher ref_dom(
      engine.spec(), AttackSelector{.model = PowerModel::kHammingWeight,
                                    .bit = 1});
  MtdDistinguisher ref_mtd(engine.spec(), selector, subkey,
                           default_checkpoints(options.num_traces),
                           options.num_traces);
  Distinguisher* const ref_list[] = {&ref_cpa, &ref_dom, &ref_mtd};
  engine.run_distinguishers(options, ref_list);

  const std::string path = temp_path("scalar.corpus");
  engine.record(options, TraceDataKind::kScalar, path);
  const CorpusReader corpus(path);
  EXPECT_EQ(corpus.num_shards(), 7u);
  EXPECT_EQ(corpus.manifest().campaign, engine.campaign_manifest(options));
  EXPECT_EQ(corpus.shard_count(6), 3000u - 6 * 448u);
  EXPECT_THROW(corpus.shard_count(7), ShardIndexError);

  CpaDistinguisher cpa(engine.spec(), selector);
  DomDistinguisher dom(
      engine.spec(), AttackSelector{.model = PowerModel::kHammingWeight,
                                    .bit = 1});
  MtdDistinguisher mtd(engine.spec(), selector, subkey,
                       default_checkpoints(options.num_traces),
                       options.num_traces);
  Distinguisher* const list[] = {&cpa, &dom, &mtd};
  EXPECT_TRUE(engine.replay(corpus, list));
  expect_same_scores(cpa.result().score, ref_cpa.result().score);
  expect_same_scores(dom.result().score, ref_dom.result().score);
  EXPECT_EQ(mtd.result().rank_history, ref_mtd.result().rank_history);

  // The free replay_distinguishers entry point (no engine) agrees too.
  CpaDistinguisher cpa2(engine.spec(), selector);
  Distinguisher* const solo[] = {&cpa2};
  EXPECT_TRUE(replay_distinguishers(corpus, engine.round(), solo));
  expect_same_scores(cpa2.result().score, ref_cpa.result().score);
}

TEST(CampaignIoTest, SampledCorpusReplaysBitIdentically) {
  TraceEngine engine(present_spec(), LogicStyle::kSablGenuine, kTech);
  CampaignOptions options = small_options();
  options.num_traces = 1500;  // 4 shards: keep the sampled corpus small
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  const std::size_t levels = engine.target().num_levels();
  ASSERT_GE(levels, 2u);

  MultiCpaDistinguisher ref_multi(engine.spec(), selector, levels);
  SecondOrderCpaDistinguisher ref_so(engine.spec(), selector);
  Distinguisher* const ref_list[] = {&ref_multi, &ref_so};
  engine.run_distinguishers(options, ref_list);

  const std::string path = temp_path("sampled.corpus");
  engine.record(options, TraceDataKind::kSampled, path);
  const CorpusReader corpus(path);
  EXPECT_EQ(corpus.manifest().kind, kCorpusKindSampled);
  EXPECT_EQ(corpus.manifest().sample_width, levels);

  MultiCpaDistinguisher multi(engine.spec(), selector, levels);
  SecondOrderCpaDistinguisher so(engine.spec(), selector);
  Distinguisher* const list[] = {&multi, &so};
  EXPECT_TRUE(engine.replay(corpus, list));
  expect_same_scores(multi.result().combined.score,
                     ref_multi.result().combined.score);
  expect_same_scores(so.result().combined.score,
                     ref_so.result().combined.score);
}

TEST(CampaignIoTest, ReplayRejectsKindAndSpecMismatch) {
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  const CampaignOptions options = small_options();
  const std::string path = temp_path("kind.corpus");
  engine.record(options, TraceDataKind::kScalar, path);
  const CorpusReader corpus(path);

  // A scalar corpus cannot feed a time-resolved distinguisher.
  MultiCpaDistinguisher multi(engine.spec(),
                              AttackSelector{.model =
                                                 PowerModel::kHammingWeight},
                              2);
  Distinguisher* const sampled_list[] = {&multi};
  EXPECT_THROW(engine.replay(corpus, sampled_list), InvalidArgument);

  // A different round spec (same S-box, different logic style) is a
  // different campaign: the spec hash mismatch is typed and path-tagged.
  TraceEngine other(present_spec(), LogicStyle::kSablGenuine, kTech);
  CpaDistinguisher cpa(other.spec(),
                       AttackSelector{.model = PowerModel::kHammingWeight});
  Distinguisher* const list[] = {&cpa};
  EXPECT_THROW(other.replay(corpus, list), ManifestMismatchError);
}

// ---- checkpointing and multi-process merge --------------------------------

TEST(CampaignIoTest, SplitShardRangeMergeIsBitIdenticalToSingleRun) {
  const CampaignOptions options = small_options();  // 7 shards
  const std::size_t subkey = options.key[0];
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  // Guaranteed copy elision: members are direct-initialized from the
  // prvalues, so the (non-movable) distinguishers never relocate.
  struct AttackSet {
    CpaDistinguisher cpa;
    DomDistinguisher dom;
    MtdDistinguisher mtd;
  };
  const auto make = [&](TraceEngine& engine) {
    return AttackSet{
        CpaDistinguisher(engine.spec(), selector),
        DomDistinguisher(engine.spec(),
                         AttackSelector{.model = PowerModel::kHammingWeight}),
        MtdDistinguisher(engine.spec(), selector, subkey,
                         default_checkpoints(options.num_traces),
                         options.num_traces)};
  };

  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  AttackSet ref = make(engine);
  Distinguisher* const ref_list[] = {&ref.cpa, &ref.dom, &ref.mtd};
  engine.run_distinguishers(options, ref_list);

  // Three "processes" over disjoint ranges (7 = 3 + 2 + 2 shards), each
  // persisting a partial state file.
  const std::vector<std::pair<std::size_t, std::size_t>> ranges = {
      {0, 3}, {3, 5}, {5, kAllShards}};
  std::vector<std::string> partials;
  for (std::size_t k = 0; k < ranges.size(); ++k) {
    TraceEngine worker(present_spec(), LogicStyle::kStaticCmos, kTech);
    AttackSet set = make(worker);
    Distinguisher* const list[] = {&set.cpa, &set.dom, &set.mtd};
    CampaignPersistence persist;
    persist.shard_begin = ranges[k].first;
    persist.shard_end = ranges[k].second;
    persist.checkpoint_path = temp_path("partial" + std::to_string(k));
    EXPECT_FALSE(worker.run_distinguishers(options, list, persist));
    partials.push_back(persist.checkpoint_path);
  }

  TraceEngine merger(present_spec(), LogicStyle::kStaticCmos, kTech);
  AttackSet merged = make(merger);
  Distinguisher* const list[] = {&merged.cpa, &merged.dom, &merged.mtd};
  merger.merge_partials(options, list, partials);
  expect_same_scores(merged.cpa.result().score, ref.cpa.result().score);
  expect_same_scores(merged.dom.result().score, ref.dom.result().score);
  EXPECT_EQ(merged.mtd.result().rank_history, ref.mtd.result().rank_history);

  // Overlapping partials name the colliding shard.
  TraceEngine overlap(present_spec(), LogicStyle::kStaticCmos, kTech);
  AttackSet set2 = make(overlap);
  Distinguisher* const list2[] = {&set2.cpa, &set2.dom, &set2.mtd};
  EXPECT_THROW(
      overlap.merge_partials(options, list2, {partials[0], partials[0]}),
      ShardIndexError);

  // A gap (missing range) cannot finalize, and the reducer says why.
  TraceEngine gappy(present_spec(), LogicStyle::kStaticCmos, kTech);
  AttackSet set3 = make(gappy);
  Distinguisher* const list3[] = {&set3.cpa, &set3.dom, &set3.mtd};
  try {
    gappy.merge_partials(options, list3, {partials[0], partials[2]});
    ADD_FAILURE() << "a merge with a gap finalized";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "cannot reduce a partially covered campaign"),
              std::string::npos)
        << e.what();
  }
}

// A CPA that counts the shard accumulators it hands out: one per shard
// the driver simulates or decodes.
class CountingDistinguisher final : public Distinguisher {
 public:
  explicit CountingDistinguisher(const SboxSpec& spec)
      : inner_(spec, AttackSelector{.model = PowerModel::kHammingWeight}) {}

  TraceDataKind data_kind() const override { return inner_.data_kind(); }
  std::size_t sbox_index() const override { return inner_.sbox_index(); }
  void validate(const RoundSpec& round) const override {
    inner_.validate(round);
  }
  std::unique_ptr<ShardAccumulator> make_shard_accumulator() const override {
    made.fetch_add(1);
    return inner_.make_shard_accumulator();
  }
  void finalize(ShardAccumulator& root) override { inner_.finalize(root); }

  mutable std::atomic<std::size_t> made{0};

 private:
  CpaDistinguisher inner_;
};

// A partial range with nowhere to persist its states is refused before
// the first shard, live and replayed alike: no shard is simulated or
// decoded only to be thrown away.
TEST(CampaignIoTest, PartialRangeWithoutCheckpointPathThrows) {
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  const CampaignOptions options = small_options();
  const std::string path = temp_path("partial_range.corpus");
  engine.record(options, TraceDataKind::kScalar, path);
  const CorpusReader corpus(path);
  CampaignPersistence persist;
  persist.shard_end = 3;  // partial, but nowhere to persist the states

  CountingDistinguisher live(engine.spec());
  Distinguisher* const live_list[] = {&live};
  EXPECT_THROW(engine.run_distinguishers(options, live_list, persist),
               InvalidArgument);
  EXPECT_EQ(live.made.load(), 0u);

  CountingDistinguisher replayed(engine.spec());
  Distinguisher* const replay_list[] = {&replayed};
  EXPECT_THROW(engine.replay(corpus, replay_list, persist), InvalidArgument);
  EXPECT_EQ(replayed.made.load(), 0u);
}

// ---- hostile inputs --------------------------------------------------------

class HostileInputTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
    options_ = small_options();
    corpus_path_ = temp_path("hostile.corpus");
    engine.record(options_, TraceDataKind::kScalar, corpus_path_);
    // The committed old-stream fixtures (no writer emits v1 or v2 any
    // more): every hostile sweep below runs over all three containers, so
    // the v1 and v2 parsers keep their typed rejection contract alongside
    // the v3 one. The sweeps only read them and write mutated copies.
    v1_path_ = std::string(SABLE_TEST_DATA_DIR) + "/golden_v1.sablcorp";
    v2_path_ = std::string(SABLE_TEST_DATA_DIR) + "/golden_v2_delta.sablcorp";
    CpaDistinguisher cpa(engine.spec(),
                         AttackSelector{.model = PowerModel::kHammingWeight});
    Distinguisher* const list[] = {&cpa};
    CampaignPersistence persist;
    persist.checkpoint_path = state_path_ = temp_path("hostile.state");
    EXPECT_TRUE(engine.run_distinguishers(options_, list, persist));
  }

  // Loading the artifact at `path` must fail with a typed io error.
  void expect_corpus_error(const std::string& path) {
    EXPECT_THROW(CorpusReader reader(path), IoError) << path;
  }
  void expect_state_error(const std::string& path) {
    TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
    CpaDistinguisher cpa(engine.spec(),
                         AttackSelector{.model = PowerModel::kHammingWeight});
    Distinguisher* const list[] = {&cpa};
    EXPECT_THROW(engine.merge_partials(options_, list, {path}), Error)
        << path;
  }

  CampaignOptions options_;
  std::string corpus_path_;  // current format: v3, delta+plane+RLE
  std::string v1_path_;      // stream 1: v1, raw chunks (fixture)
  std::string v2_path_;      // stream 1: v2, delta+plane+RLE (fixture)
  std::string state_path_;   // current format: SABLSTAT v2
};

TEST_F(HostileInputTest, WrongMagicAndVersionThrowTyped) {
  const auto corpus = read_file(corpus_path_);
  ASSERT_EQ(corpus[8], kCorpusVersion3);
  auto bad = corpus;
  bad[0] ^= 0xFF;
  const std::string p1 = temp_path("bad_magic.corpus");
  write_bytes(p1, bad);
  EXPECT_THROW(CorpusReader r(p1), BadFileError);

  // Version words on either side of the known 1..3 (byte 8 is the low
  // byte of the little-endian u32).
  for (const std::uint8_t version : {0x00, 0x04, 0x7F}) {
    bad = corpus;
    bad[8] = version;
    const std::string p2 = temp_path("bad_version.corpus");
    write_bytes(p2, bad);
    EXPECT_THROW(CorpusReader r(p2), BadFileError) << int{version};
  }

  const auto state = read_file(state_path_);
  ASSERT_EQ(state[8], 2u);
  bad = state;
  bad[1] ^= 0xFF;
  const std::string p3 = temp_path("bad_magic.state");
  write_bytes(p3, bad);
  expect_state_error(p3);
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  CpaDistinguisher cpa(engine.spec(),
                       AttackSelector{.model = PowerModel::kHammingWeight});
  Distinguisher* const list[] = {&cpa};
  for (const std::uint8_t version : {0x00, 0x03, 0x7F}) {
    bad = state;
    bad[8] = version;
    const std::string p4 = temp_path("bad_version.state");
    write_bytes(p4, bad);
    EXPECT_THROW(engine.merge_partials(options_, list, {p4}), BadFileError)
        << int{version};
  }
}

TEST_F(HostileInputTest, ShardIndexOutOfBoundsThrows) {
  // The shard index lives right after the fixed header; smash the first
  // entry's offset to point far past EOF. The header is magic + version
  // + kind (+ the v2 compression tag) + manifest (6 u64 + f64 + 1 key
  // byte) + pt_stride + sample_width, padded to 8 — with a 1-byte key
  // every version lands on the same 96-byte boundary.
  for (const bool v2 : {true, false}) {
    auto corpus = read_file(v2 ? corpus_path_ : v1_path_);
    const std::size_t header =
        8 + 4 + 4 + (v2 ? 4u : 0u) + (7 * 8 + 1) + 8 + 8;
    const std::size_t index = (header + 7) / 8 * 8;
    ASSERT_EQ(index, 96u);
    ASSERT_LT(index + 8, corpus.size());
    for (std::size_t b = 0; b < 8; ++b) corpus[index + b] = 0xFF;
    const std::string p = temp_path("bad_index.corpus");
    write_bytes(p, corpus);
    EXPECT_THROW(CorpusReader r(p), ShardIndexError) << "v2=" << v2;
  }
}

TEST_F(HostileInputTest, ManifestMismatchNamesTheCampaign) {
  // The recorded artifacts belong to seed 0x5EED; a campaign with any
  // other seed must refuse them.
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  CampaignOptions other = options_;
  other.seed = 0xD1FF;
  CpaDistinguisher cpa(engine.spec(),
                       AttackSelector{.model = PowerModel::kHammingWeight});
  Distinguisher* const list[] = {&cpa};
  EXPECT_THROW(engine.merge_partials(other, list, {state_path_}),
               ManifestMismatchError);

  const CorpusReader corpus(corpus_path_);
  CampaignPersistence resume;
  resume.resume_path = state_path_;
  // Resume path cross-checks the state's manifest against the corpus
  // campaign — same campaign here, so this succeeds...
  CpaDistinguisher cpa2(engine.spec(),
                        AttackSelector{.model = PowerModel::kHammingWeight});
  Distinguisher* const list2[] = {&cpa2};
  EXPECT_TRUE(engine.replay(corpus, list2, resume));
  // ...and the state written for ONE distinguisher refuses a different
  // distinguisher count.
  CpaDistinguisher a(engine.spec(),
                     AttackSelector{.model = PowerModel::kHammingWeight});
  DomDistinguisher b(engine.spec(),
                     AttackSelector{.model = PowerModel::kHammingWeight});
  Distinguisher* const two[] = {&a, &b};
  EXPECT_THROW(engine.merge_partials(options_, two, {state_path_}),
               BadFileError);
}

TEST_F(HostileInputTest, TruncationSweepAlwaysThrowsTyped) {
  const auto state = read_file(state_path_);
  // Every strict prefix must throw a typed error — never crash, never
  // succeed (all formats pin their full extent up front). Compressed v2
  // and v3 chunks additionally pin their stored sizes in the index, so a
  // truncated chunk is caught at open, before any decode runs.
  for (const std::string* src : {&corpus_path_, &v1_path_, &v2_path_}) {
    const auto corpus = read_file(*src);
    for (std::size_t len = 0; len < corpus.size();
         len += 1 + corpus.size() / 97) {
      const std::string p = temp_path("trunc.corpus");
      write_bytes(p, {corpus.begin(), corpus.begin() +
                                          static_cast<std::ptrdiff_t>(len)});
      expect_corpus_error(p);
    }
  }
  for (std::size_t len = 0; len < state.size();
       len += 1 + state.size() / 97) {
    const std::string p = temp_path("trunc.state");
    write_bytes(p, {state.begin(), state.begin() +
                                       static_cast<std::ptrdiff_t>(len)});
    expect_state_error(p);
  }
}

TEST_F(HostileInputTest, ByteFlipFuzzNeverEscapesTypedErrors) {
  const auto state = read_file(state_path_);
  Rng rng(0xFA22);
  for (const std::string* src : {&corpus_path_, &v1_path_, &v2_path_}) {
    const auto corpus = read_file(*src);
    for (int iter = 0; iter < 64; ++iter) {
      auto bad = corpus;
      bad[rng.below(bad.size())] ^= static_cast<std::uint8_t>(rng.below(255) +
                                                              1);
      const std::string p = temp_path("fuzz.corpus");
      write_bytes(p, bad);
      try {
        const CorpusReader reader(p);
        // A flip in trace data may still load — that is fine; drive
        // every shard through read_shard: the decode path on compressed
        // corpora (the part a hostile byte can reach on v2 and v3:
        // varint/RLE framing must reject, not overrun), the zero-copy
        // views on raw ones.
        CorpusDecodeScratch scratch;
        for (std::size_t s = 0; s < reader.num_shards(); ++s) {
          (void)reader.shard_count(s);
          (void)reader.read_shard(s, scratch);
        }
      } catch (const Error&) {
        // Typed rejection is the other acceptable outcome.
      }
    }
  }
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  for (int iter = 0; iter < 64; ++iter) {
    auto bad = state;
    bad[rng.below(bad.size())] ^= static_cast<std::uint8_t>(rng.below(255) +
                                                            1);
    const std::string p = temp_path("fuzz.state");
    write_bytes(p, bad);
    CpaDistinguisher cpa(engine.spec(),
                         AttackSelector{.model = PowerModel::kHammingWeight});
    Distinguisher* const list[] = {&cpa};
    try {
      engine.merge_partials(options_, list, {p});
    } catch (const Error&) {
    }
  }
}

// ---- format versions and compression --------------------------------------

TEST(CampaignIoTest, CompressionVariantsReplayBitIdentically) {
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  const CampaignOptions options = small_options();
  const AttackSelector selector{.model = PowerModel::kHammingWeight};

  CpaDistinguisher ref(engine.spec(), selector);
  Distinguisher* const ref_list[] = {&ref};
  engine.run_distinguishers(options, ref_list);

  struct Variant {
    const char* name;
    std::uint32_t compression;
  };
  const Variant variants[] = {
      {"v3_raw", kCorpusCompressionNone},
      {"v3_delta", kCorpusCompressionDeltaPlaneRle},
  };
  std::size_t raw_size = 0;
  std::size_t delta_size = 0;
  for (const Variant& v : variants) {
    const std::string path = temp_path(std::string("variant_") + v.name);
    engine.record(options, TraceDataKind::kScalar, path, v.compression);
    const CorpusReader corpus(path);
    EXPECT_EQ(corpus.version(), kCorpusVersion3) << v.name;
    EXPECT_EQ(corpus.manifest().campaign.stream, kCampaignStream) << v.name;
    EXPECT_EQ(corpus.compressed(),
              v.compression == kCorpusCompressionDeltaPlaneRle)
        << v.name;
    CpaDistinguisher cpa(engine.spec(), selector);
    Distinguisher* const list[] = {&cpa};
    EXPECT_TRUE(replay_distinguishers(corpus, engine.round(), list))
        << v.name;
    expect_same_scores(cpa.result().score, ref.result().score);
    const std::size_t size = read_file(path).size();
    if (v.compression == kCorpusCompressionNone) {
      raw_size = size;
    } else {
      delta_size = size;
    }
  }
  // Even on this noisy scalar campaign (the codec's worst case — the
  // noise randomizes the low mantissa bits) compression must not lose.
  EXPECT_LT(delta_size, raw_size);
}

// The corpus variants the byte-identity tests below cover: both codecs
// on scalar data, and time-resolved data through the delta codec.
struct CorpusVariant {
  const char* name;
  LogicStyle style;
  TraceDataKind kind;
  std::uint32_t compression;
};
constexpr CorpusVariant kCorpusVariants[] = {
    {"scalar_delta", LogicStyle::kStaticCmos, TraceDataKind::kScalar,
     kCorpusCompressionDeltaPlaneRle},
    {"scalar_raw", LogicStyle::kStaticCmos, TraceDataKind::kScalar,
     kCorpusCompressionNone},
    {"sampled", LogicStyle::kSablGenuine, TraceDataKind::kSampled,
     kCorpusCompressionDeltaPlaneRle},
};

// small_options() over one-word shards: 47 shards, beyond the stream's
// ring at 1, 2 and 7 threads.
CampaignOptions one_word_shard_options() {
  CampaignOptions options = small_options();
  options.shard_size = 64;
  return options;
}

// A corpus is a pure function of the campaign: the bytes on disk do not
// depend on how many threads recorded it, for either codec and data kind.
TEST(CampaignIoTest, CorpusBytesDoNotDependOnTheThreadCount) {
  const std::size_t thread_counts[] = {
      1, 2, 7, std::max<std::size_t>(1, std::thread::hardware_concurrency())};
  for (const CorpusVariant& v : kCorpusVariants) {
    SCOPED_TRACE(v.name);
    TraceEngine engine(present_spec(), v.style, kTech);
    CampaignOptions options = one_word_shard_options();
    const std::string path = temp_path(std::string("threads_") + v.name);
    std::vector<std::uint8_t> reference;
    for (std::size_t threads : thread_counts) {
      SCOPED_TRACE(threads);
      options.num_threads = threads;
      engine.record(options, v.kind, path, v.compression);
      const std::vector<std::uint8_t> bytes = read_file(path);
      if (reference.empty()) {
        reference = bytes;
        ASSERT_FALSE(reference.empty());
      } else {
        EXPECT_TRUE(bytes == reference);
      }
    }
  }
}

// record() encodes in the stream's parties and only appends in order;
// a CorpusWriter fed whole shards through append_shard from stream() or
// stream_sampled() encodes in the drain. Both must write the same bytes.
TEST(CampaignIoTest, AppendShardWritesWhatRecordWrites) {
  for (const CorpusVariant& v : kCorpusVariants) {
    SCOPED_TRACE(v.name);
    TraceEngine engine(present_spec(), v.style, kTech);
    CampaignOptions options = one_word_shard_options();
    options.num_threads = 4;
    const std::string recorded = temp_path(std::string("record_") + v.name);
    engine.record(options, v.kind, recorded, v.compression);

    CorpusManifest manifest;
    manifest.campaign = engine.campaign_manifest(options);
    manifest.compression = v.compression;
    manifest.pt_stride = engine.round().state_bytes();
    const bool sampled = v.kind == TraceDataKind::kSampled;
    manifest.kind = sampled ? kCorpusKindSampled : kCorpusKindScalar;
    manifest.sample_width = sampled ? engine.target().num_levels() : 1;
    const std::string appended = temp_path(std::string("append_") + v.name);
    CorpusWriter writer(appended, manifest);
    const TraceSink append = [&](const std::uint8_t* pts,
                                 const double* samples, std::size_t count) {
      writer.append_shard(pts, samples, count);
    };
    if (sampled) {
      engine.stream_sampled(options, append);
    } else {
      engine.stream(options, append);
    }
    writer.finish();

    const std::vector<std::uint8_t> bytes = read_file(recorded);
    ASSERT_FALSE(bytes.empty());
    EXPECT_TRUE(read_file(appended) == bytes);
  }
}

TEST(CampaignIoTest, NoiselessSampledCorpusCompressesAtLeast3x) {
  // The acceptance ratio, per logic style: noiseless simulated energies
  // are sums of discrete per-node switching energies, so every style's
  // sample levels draw from a small set and the codec's dictionary or
  // XOR-delta mode collapses them. The constant-power styles are the
  // regime the format exists for (recorded sweeps of the paper's
  // SABL/WDDL claims); static CMOS and mismatched WDDL are the weakest.
  for (const LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablGenuine,
        LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
        LogicStyle::kWddlBalanced, LogicStyle::kWddlMismatched}) {
    SCOPED_TRACE(to_string(style));
    TraceEngine engine(present_spec(), style, kTech);
    CampaignOptions options = small_options();
    options.num_traces = 1500;
    options.noise_sigma = 0.0;
    const std::string raw = temp_path("ratio_raw.corpus");
    const std::string v2 = temp_path("ratio_v2.corpus");
    engine.record(options, TraceDataKind::kSampled, raw,
                  kCorpusCompressionNone);
    engine.record(options, TraceDataKind::kSampled, v2);

    const CorpusReader reader(v2);
    std::uint64_t raw_bytes = 0;
    std::uint64_t stored = 0;
    for (std::size_t s = 0; s < reader.num_shards(); ++s) {
      raw_bytes += reader.shard_raw_bytes(s);
      stored += reader.shard_stored_bytes(s);
    }
    EXPECT_GE(raw_bytes, 3 * stored)
        << "chunk ratio " << raw_bytes << "/" << stored;
    EXPECT_GE(read_file(raw).size(), 3 * read_file(v2).size());

    // Compression is exact: both containers replay to the same bits.
    const std::size_t levels = engine.target().num_levels();
    const AttackSelector selector{.model = PowerModel::kHammingWeight};
    MultiCpaDistinguisher from_raw(engine.spec(), selector, levels);
    MultiCpaDistinguisher from_v2(engine.spec(), selector, levels);
    Distinguisher* const list1[] = {&from_raw};
    Distinguisher* const list2[] = {&from_v2};
    EXPECT_TRUE(
        replay_distinguishers(CorpusReader(raw), engine.round(), list1));
    EXPECT_TRUE(replay_distinguishers(reader, engine.round(), list2));
    expect_same_scores(from_v2.result().combined.score,
                       from_raw.result().combined.score);
  }
}

TEST(CampaignIoTest, FailedCorpusPublishLeavesNoTempFile) {
  // The final rename cannot replace a non-empty directory, so publishing
  // fails after the whole corpus was written to `path.tmp`. The writer
  // must report it as IoError and discard the temporary file.
  const std::string path = temp_path("publish_blocked");
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path + "/occupied");
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  EXPECT_THROW(engine.record(small_options(), TraceDataKind::kScalar, path),
               IoError);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(path + "/occupied"));
  std::filesystem::remove_all(path);
}

TEST(CampaignIoTest, HostileDecodedSizeCeilingRejectedAtOpen) {
  // A hand-built v2 header whose layout fields all pass their individual
  // ceilings but whose per-shard decoded size (count * width * 8 =
  // 2^43 bytes) does not: the reader must reject it at construction,
  // BEFORE any decode allocates — the stored chunk is 16 bytes, the
  // advertised decode is 8 TiB.
  ByteWriter w;
  w.bytes("SABLCORP", 8);
  w.u32(kCorpusVersion2);
  w.u32(kCorpusKindSampled);
  w.u32(kCorpusCompressionDeltaPlaneRle);
  w.u64(0);                      // spec_hash (not checked at open)
  w.u64(1);                      // seed
  w.u64(std::uint64_t{1} << 20); // num_traces
  w.u64(std::uint64_t{1} << 20); // shard_size (<= kMaxShardSize)
  w.u64(1);                      // num_shards = ceil(traces / shard_size)
  w.f64(0.0);                    // noise_sigma
  const std::uint8_t key = 0xB;
  w.u64(1);
  w.bytes(&key, 1);
  w.u64(1);                      // pt_stride
  w.u64(std::uint64_t{1} << 20); // sample_width (== kMaxSampleWidth)
  w.pad_to(8);
  ASSERT_EQ(w.offset(), 96u);
  w.u64(128);                    // index entry: chunk offset
  w.u64(std::uint64_t{1} << 20); //   count (matches the layout)
  w.u64(8);                      //   stored pt bytes
  w.u64(8);                      //   stored sample bytes
  w.u64(0);                      // 16 bytes of "chunk" so extents check out
  w.u64(0);
  const std::string p = temp_path("decode_ceiling.corpus");
  write_bytes(p, w.buffer());
  EXPECT_THROW(CorpusReader r(p), BadFileError);
}

// FNV-1a over every shard's decoded plaintext and sample bytes, in shard
// order — the golden fixture's content fingerprint.
std::uint64_t corpus_content_fingerprint(const CorpusReader& corpus) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  CorpusDecodeScratch scratch;
  const CorpusManifest& m = corpus.manifest();
  for (std::size_t s = 0; s < corpus.num_shards(); ++s) {
    const CorpusShardView view = corpus.read_shard(s, scratch);
    mix(view.pts, view.count * static_cast<std::size_t>(m.pt_stride));
    mix(view.samples,
        view.count * static_cast<std::size_t>(m.sample_width) *
            sizeof(double));
  }
  return h;
}

// The campaign every golden fixture records (tests/data/README.md).
CampaignOptions golden_options() {
  CampaignOptions options;
  options.num_traces = 96;
  options.key = {0xB};
  options.noise_sigma = 2e-16;
  options.seed = 0x5EED;
  options.shard_size = 64;  // 2 shards, ragged tail of 32
  return options;
}

// `run` must throw ManifestMismatchError naming the stream field.
template <typename Fn>
void expect_stream_mismatch(Fn&& run) {
  try {
    run();
    ADD_FAILURE() << "no ManifestMismatchError";
  } catch (const ManifestMismatchError& e) {
    EXPECT_NE(std::string(e.what()).find("stream"), std::string::npos)
        << e.what();
  }
}

TEST(CampaignIoTest, GoldenV3CorporaReplayLive) {
  // v3 fixtures committed in BOTH codec modes (raw chunks and
  // delta+plane+RLE) lock the v3 container, each decoder and the current
  // trace stream. If this test fails without a deliberate stream change,
  // a parser, a codec or the simulator's determinism regressed.
  const struct {
    const char* file;
    std::uint32_t compression;
  } kFixtures[] = {
      {"/golden_v3_raw.sablcorp", kCorpusCompressionNone},
      {"/golden_v3_delta.sablcorp", kCorpusCompressionDeltaPlaneRle},
  };
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  CpaDistinguisher ref(engine.spec(), selector);
  Distinguisher* const ref_list[] = {&ref};
  engine.run_distinguishers(golden_options(), ref_list);

  for (const auto& fixture : kFixtures) {
    SCOPED_TRACE(fixture.file);
    const CorpusReader corpus(std::string(SABLE_TEST_DATA_DIR) +
                              fixture.file);
    EXPECT_EQ(corpus.version(), kCorpusVersion3);
    EXPECT_EQ(corpus.manifest().compression, fixture.compression);
    EXPECT_EQ(corpus.manifest().kind, kCorpusKindScalar);
    EXPECT_EQ(corpus.manifest().campaign,
              engine.campaign_manifest(golden_options()));
    EXPECT_EQ(corpus_content_fingerprint(corpus), kGoldenV3Fingerprint);

    CpaDistinguisher replayed(engine.spec(), selector);
    Distinguisher* const list[] = {&replayed};
    EXPECT_TRUE(replay_distinguishers(corpus, engine.round(), list));
    expect_same_scores(replayed.result().score, ref.result().score);
  }
}

TEST(CampaignIoTest, GoldenV3CorporaReRecordByteIdentically) {
  // The fingerprint above pins what the fixtures decode to; this pins
  // the encoder: recording the fixture campaign again must reproduce the
  // committed bytes in both codec modes, container and chunks alike.
  const struct {
    const char* file;
    std::uint32_t compression;
  } kFixtures[] = {
      {"/golden_v3_raw.sablcorp", kCorpusCompressionNone},
      {"/golden_v3_delta.sablcorp", kCorpusCompressionDeltaPlaneRle},
  };
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  for (const auto& fixture : kFixtures) {
    SCOPED_TRACE(fixture.file);
    const std::string path = temp_path("rerecord_golden_v3");
    engine.record(golden_options(), TraceDataKind::kScalar, path,
                  fixture.compression);
    const std::vector<std::uint8_t> committed =
        read_file(std::string(SABLE_TEST_DATA_DIR) + fixture.file);
    ASSERT_FALSE(committed.empty());
    EXPECT_TRUE(read_file(path) == committed);
  }
}

TEST(CampaignIoTest, OldStreamCorporaParseButNeverReplay) {
  // golden_v1 (raw-only v1 container) and golden_v2_{raw,delta} hold the
  // fixture campaign in stream 1. They stay committed so the v1 and v2
  // readers stay covered: each parses, decodes to its pinned
  // fingerprint and loads as stream 1 — and replaying it, or matching it
  // against a campaign as the CLI does, names the stream.
  const struct {
    const char* file;
    std::uint32_t version;
    std::uint32_t compression;
  } kFixtures[] = {
      {"/golden_v1.sablcorp", kCorpusVersion1, kCorpusCompressionNone},
      {"/golden_v2_raw.sablcorp", kCorpusVersion2, kCorpusCompressionNone},
      {"/golden_v2_delta.sablcorp", kCorpusVersion2,
       kCorpusCompressionDeltaPlaneRle},
  };
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  CampaignManifest stream1 = engine.campaign_manifest(golden_options());
  stream1.stream = 1;
  for (const auto& fixture : kFixtures) {
    SCOPED_TRACE(fixture.file);
    const CorpusReader corpus(std::string(SABLE_TEST_DATA_DIR) +
                              fixture.file);
    EXPECT_EQ(corpus.version(), fixture.version);
    EXPECT_EQ(corpus.manifest().compression, fixture.compression);
    EXPECT_EQ(corpus.manifest().kind, kCorpusKindScalar);
    EXPECT_EQ(corpus.manifest().campaign, stream1);
    EXPECT_EQ(corpus_content_fingerprint(corpus), kStream1Fingerprint);

    CpaDistinguisher cpa(engine.spec(),
                         AttackSelector{.model = PowerModel::kHammingWeight});
    Distinguisher* const list[] = {&cpa};
    expect_stream_mismatch(
        [&] { replay_distinguishers(corpus, engine.round(), list); });
    // The stream is checked first: a campaign that also differs in its
    // seed still hears about the stream.
    CampaignOptions reseeded = golden_options();
    reseeded.seed = 0xD1FF;
    expect_stream_mismatch([&] {
      require_manifest_match(corpus.path(),
                             engine.campaign_manifest(reseeded),
                             corpus.manifest().campaign);
    });
  }
}

TEST(CampaignIoTest, OldStreamCheckpointAndPartialNeverFoldIn) {
  // SABLSTAT v1 has v2's byte layout, so a v2 partial with its version
  // word set to 1 is exactly what the previous stream wrote: resuming
  // from it or merging it must name the stream, never fold it in.
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  const CampaignOptions options = small_options();
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  CpaDistinguisher partial(engine.spec(), selector);
  Distinguisher* const partial_list[] = {&partial};
  CampaignPersistence range;
  range.shard_end = 3;
  range.checkpoint_path = temp_path("stream1_partial.state");
  EXPECT_FALSE(engine.run_distinguishers(options, partial_list, range));
  auto bytes = read_file(range.checkpoint_path);
  ASSERT_EQ(bytes[8], 2u);
  bytes[8] = 1;
  const std::string old_path = temp_path("stream1.state");
  write_bytes(old_path, bytes);

  CpaDistinguisher resumed(engine.spec(), selector);
  Distinguisher* const resumed_list[] = {&resumed};
  CampaignPersistence resume;
  resume.resume_path = old_path;
  expect_stream_mismatch(
      [&] { engine.run_distinguishers(options, resumed_list, resume); });

  CpaDistinguisher merged(engine.spec(), selector);
  Distinguisher* const merged_list[] = {&merged};
  expect_stream_mismatch(
      [&] { engine.merge_partials(options, merged_list, {old_path}); });
  // The same partial under its own version word merges with the rest of
  // the campaign: the refusals above are the stream's alone.
  CpaDistinguisher rest(engine.spec(), selector);
  Distinguisher* const rest_list[] = {&rest};
  CampaignPersistence tail;
  tail.shard_begin = 3;
  tail.checkpoint_path = temp_path("stream2_tail.state");
  EXPECT_FALSE(engine.run_distinguishers(options, rest_list, tail));
  CpaDistinguisher whole(engine.spec(), selector);
  Distinguisher* const whole_list[] = {&whole};
  engine.merge_partials(options, whole_list,
                        {range.checkpoint_path, tail.checkpoint_path});
  CpaDistinguisher ref(engine.spec(), selector);
  Distinguisher* const ref_list[] = {&ref};
  engine.run_distinguishers(options, ref_list);
  expect_same_scores(whole.result().score, ref.result().score);
}

}  // namespace
}  // namespace sable
