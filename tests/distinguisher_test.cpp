// The distinguisher pipeline's contract:
//
//  * every wrapped campaign (cpa/dom/mtd/multi_cpa) is BIT-IDENTICAL to
//    the pre-pipeline formulation — per-shard streaming accumulators over
//    the streamed campaign, reduced by the fixed-shape merge tree (or, for
//    MTD, the ordered prefix fold over checkpoint segments) — which is
//    exactly the reference reconstructed by hand here;
//  * the second-order centered-product CPA matches the retained-trace
//    reference (full-campaign means, centered products, Pearson) to
//    1e-12;
//  * one-pass multi-selector campaigns match N independent re-simulated
//    campaigns bit for bit;
//  * mixing data kinds in one run_distinguishers call changes nothing;
//  * campaign_shard_size clamps small block sizes to one 64-lane word.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dpa/block_stats.hpp"
#include "dpa/distinguisher.hpp"
#include "dpa/second_order.hpp"
#include "engine/shard_reduce.hpp"
#include "engine/trace_engine.hpp"
#include "io/campaign_state.hpp"
#include "io/corpus.hpp"
#include "io/serial.hpp"
#include "power/stats.hpp"
#include "reference_attacks.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

// Multi-shard, ragged tail: 2000 traces over 448-trace shards = 5 shards.
CampaignOptions reference_options(const RoundSpec& round) {
  CampaignOptions options;
  options.num_traces = 2000;
  std::vector<std::size_t> subkeys(round.num_sboxes());
  for (std::size_t i = 0; i < subkeys.size(); ++i) {
    subkeys[i] = (0x9 + 5 * i) & 0xF;
  }
  options.key = round.pack_subkeys(subkeys);
  options.noise_sigma = 2e-16;
  options.seed = 0xD157;
  options.shard_size = 448;
  return options;
}

// Streams the campaign and hands each shard's block (the sink is invoked
// exactly once per shard) to `consume(shard_index, sub_pts, samples,
// count)` with the attacked instance's sub-plaintexts extracted — the
// manual form of the pre-pipeline attack campaigns.
template <typename Consume>
void for_each_shard(TraceEngine& engine, const CampaignOptions& options,
                    std::size_t sbox_index, bool sampled, Consume&& consume) {
  const RoundSpec& round = engine.round();
  std::vector<std::uint8_t> sub_pts(campaign_shard_size(options));
  std::size_t shard = 0;
  const auto sink = [&](const std::uint8_t* pts, const double* samples,
                        std::size_t n) {
    round.sub_words(pts, n, sbox_index, sub_pts.data());
    consume(shard++, sub_pts.data(), samples, n);
  };
  if (sampled) {
    engine.stream_sampled(options, sink);
  } else {
    engine.stream(options, sink);
  }
}

void expect_same_result(const AttackResult& a, const AttackResult& b) {
  ASSERT_EQ(a.score.size(), b.score.size());
  for (std::size_t g = 0; g < b.score.size(); ++g) {
    // EXPECT_EQ on doubles is exact equality: bit-identical, not close.
    EXPECT_EQ(a.score[g], b.score[g]) << "guess " << g;
  }
  EXPECT_EQ(a.best_guess, b.best_guess);
  EXPECT_EQ(a.margin, b.margin);
}

// ---- single-attack campaigns vs the pre-pipeline formulation -------------

TEST(DistinguisherPipelineTest, CpaCampaignBitIdenticalToManualShards) {
  const RoundSpec round = present_round(2, LogicStyle::kSablGenuine);
  const CampaignOptions options = reference_options(round);
  const AttackSelector selector{.sbox_index = 1,
                                .model = PowerModel::kHammingWeight};
  TraceEngine engine(round, kTech);
  std::vector<StreamingCpa> shards;
  for_each_shard(engine, options, selector.sbox_index, /*sampled=*/false,
                 [&](std::size_t, const std::uint8_t* pts,
                     const double* samples, std::size_t n) {
                   shards.emplace_back(round.sboxes[selector.sbox_index],
                                       selector.model, selector.bit);
                   // One add_block per shard: the block-factored feed the
                   // pipeline's shard accumulators use.
                   shards.back().add_block(pts, samples, n);
                 });
  ASSERT_EQ(shards.size(), 5u);
  const AttackResult reference =
      merge_shard_tree(std::move(shards)).result().combined;
  expect_same_result(
      run_attack(engine, options,
                 CpaDistinguisher(engine.spec(selector.sbox_index), selector)),
      reference);
}

TEST(DistinguisherPipelineTest, DomCampaignBitIdenticalToManualShards) {
  const RoundSpec round = present_round(2, LogicStyle::kStaticCmos);
  const CampaignOptions options = reference_options(round);
  const AttackSelector selector{.sbox_index = 0, .bit = 2};
  TraceEngine engine(round, kTech);
  std::vector<StreamingDom> shards;
  for_each_shard(engine, options, selector.sbox_index, /*sampled=*/false,
                 [&](std::size_t, const std::uint8_t* pts,
                     const double* samples, std::size_t n) {
                   shards.emplace_back(round.sboxes[selector.sbox_index],
                                       selector.bit);
                   shards.back().add_block(pts, samples, n);
                 });
  const AttackResult reference = merge_shard_tree(std::move(shards)).result();
  expect_same_result(
      run_attack(engine, options,
                 DomDistinguisher(engine.spec(selector.sbox_index), selector)),
      reference);
}

TEST(DistinguisherPipelineTest, MtdCampaignBitIdenticalToManualShards) {
  const RoundSpec round = present_round(1, LogicStyle::kStaticCmos);
  const CampaignOptions options = reference_options(round);
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  const std::vector<std::size_t> checkpoints =
      default_checkpoints(options.num_traces);
  std::vector<std::size_t> ladder = checkpoints;
  std::sort(ladder.begin(), ladder.end());
  ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
  ladder.erase(std::remove_if(ladder.begin(), ladder.end(),
                              [&](std::size_t c) {
                                return c < 2 || c > options.num_traces;
                              }),
               ladder.end());

  TraceEngine engine(round, kTech);
  const std::size_t subkey = round.sub_word(options.key.data(), 0);
  // Each shard is fed one add_block per checkpoint segment; a checkpoint
  // ranks the merged prefix of the earlier shards plus the shard's
  // partial accumulator.
  StreamingCpa prefix(round.sboxes[0], selector.model, selector.bit);
  std::vector<std::pair<std::size_t, std::size_t>> history;
  for_each_shard(
      engine, options, 0, /*sampled=*/false,
      [&](std::size_t shard, const std::uint8_t* pts, const double* samples,
          std::size_t n) {
        const std::size_t start = shard * campaign_shard_size(options);
        StreamingCpa acc(round.sboxes[0], selector.model, selector.bit);
        std::size_t done = 0;
        for (auto it = std::upper_bound(ladder.begin(), ladder.end(), start);
             it != ladder.end() && *it <= start + n; ++it) {
          acc.add_block(pts + done, samples + done, *it - start - done);
          done = *it - start;
          StreamingCpa at_checkpoint = prefix;
          at_checkpoint.merge(acc);
          history.emplace_back(*it,
                               at_checkpoint.result().combined.rank_of(subkey));
        }
        acc.add_block(pts + done, samples + done, n - done);
        prefix.merge(acc);
      });
  const MtdResult reference = mtd_from_history(std::move(history));
  const MtdResult result = run_attack(
      engine, options,
      MtdDistinguisher(engine.spec(), selector, subkey, checkpoints,
                       options.num_traces));
  EXPECT_EQ(result.disclosed, reference.disclosed);
  EXPECT_EQ(result.mtd, reference.mtd);
  ASSERT_EQ(result.rank_history.size(), reference.rank_history.size());
  for (std::size_t i = 0; i < reference.rank_history.size(); ++i) {
    EXPECT_EQ(result.rank_history[i], reference.rank_history[i]) << i;
  }
  EXPECT_TRUE(reference.disclosed);
}

TEST(DistinguisherPipelineTest, MultiCpaCampaignBitIdenticalToManualShards) {
  const RoundSpec round = present_round(1, LogicStyle::kSablGenuine);
  const CampaignOptions options = reference_options(round);
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  TraceEngine engine(round, kTech);
  const std::size_t width = engine.target().num_levels();
  std::vector<StreamingCpa> shards;
  for_each_shard(engine, options, 0, /*sampled=*/true,
                 [&](std::size_t, const std::uint8_t* pts, const double* rows,
                     std::size_t n) {
                   shards.push_back(StreamingCpa::time_resolved(
                       round.sboxes[0], selector.model, width, selector.bit));
                   shards.back().add_block(pts, rows, n);
                 });
  const MultiAttackResult reference =
      merge_shard_tree(std::move(shards)).result();
  const MultiAttackResult result = run_attack(
      engine, options, MultiCpaDistinguisher(engine.spec(), selector, width));
  expect_same_result(result.combined, reference.combined);
  EXPECT_EQ(result.best_sample, reference.best_sample);
}

// ---- second-order CPA vs the retained-trace reference ---------------------

TEST(SecondOrderCpaTest, MatchesRetainedTraceReference) {
  // Static CMOS leaks; SABL-enhanced is the paper's style and the
  // benchmark's, with six logic levels (15 level pairs).
  for (const LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablEnhanced}) {
    SCOPED_TRACE(static_cast<int>(style));
    const RoundSpec round = present_round(1, style);
    const CampaignOptions options = reference_options(round);
    const AttackSelector selector{.model = PowerModel::kHammingWeight};
    TraceEngine engine(round, kTech);
    ASSERT_GE(engine.target().num_levels(), 2u);

    MultiTraceSet retained;
    engine.stream_sampled(options, [&](const std::uint8_t* pts,
                                       const double* rows, std::size_t n) {
      const std::size_t width = engine.target().num_levels();
      for (std::size_t t = 0; t < n; ++t) {
        retained.add(pts[t], rows + t * width, width);
      }
    });
    const SecondOrderAttackResult reference =
        reference_second_order(retained, round.sboxes[0], selector.model);
    const SecondOrderAttackResult result = run_attack(
        engine, options, SecondOrderCpaDistinguisher(engine.spec(), selector));

    ASSERT_EQ(result.combined.score.size(), reference.combined.score.size());
    for (std::size_t g = 0; g < reference.combined.score.size(); ++g) {
      EXPECT_NEAR(result.combined.score[g], reference.combined.score[g],
                  1e-12)
          << "guess " << g;
    }
    EXPECT_EQ(result.combined.best_guess, reference.combined.best_guess);
    EXPECT_EQ(result.best_pair_first, reference.best_pair_first);
    EXPECT_EQ(result.best_pair_second, reference.best_pair_second);
    const std::size_t subkey = round.sub_word(options.key.data(), 0);
    EXPECT_EQ(result.combined.rank_of(subkey),
              reference.combined.rank_of(subkey));
  }
}

TEST(SecondOrderCpaTest, MergeMatchesSequentialAccumulation) {
  const SboxSpec spec = present_spec();
  const std::size_t width = 5;
  const std::size_t count = 3000;
  Rng rng(0x5EC0);
  std::vector<std::uint8_t> pts(count);
  std::vector<double> rows(count * width);
  for (std::size_t t = 0; t < count; ++t) {
    pts[t] = static_cast<std::uint8_t>(rng.below(16));
    for (std::size_t i = 0; i < width; ++i) {
      // Trace-scale magnitudes with data dependence, so the centered
      // products live in the cancellation regime the merge must survive.
      rows[t * width + i] =
          1e-13 + 1e-15 * rng.gaussian() +
          2e-16 * static_cast<double>((pts[t] >> (i % 4)) & 1u);
    }
  }
  StreamingSecondOrderCpa sequential(spec, PowerModel::kHammingWeight);
  sequential.add_block(pts.data(), rows.data(), count, width);

  StreamingSecondOrderCpa merged(spec, PowerModel::kHammingWeight);
  const std::size_t bounds[] = {0, 311, 312, 1024, 3000};
  for (std::size_t p = 0; p + 1 < std::size(bounds); ++p) {
    StreamingSecondOrderCpa part(spec, PowerModel::kHammingWeight);
    part.add_block(pts.data() + bounds[p], rows.data() + bounds[p] * width,
                   bounds[p + 1] - bounds[p], width);
    merged.merge(part);
  }
  EXPECT_EQ(merged.count(), sequential.count());
  const SecondOrderAttackResult a = merged.result();
  const SecondOrderAttackResult b = sequential.result();
  ASSERT_EQ(a.combined.score.size(), b.combined.score.size());
  for (std::size_t g = 0; g < b.combined.score.size(); ++g) {
    EXPECT_NEAR(a.combined.score[g], b.combined.score[g], 1e-12) << g;
  }
  EXPECT_EQ(a.best_pair_first, b.best_pair_first);
  EXPECT_EQ(a.best_pair_second, b.best_pair_second);
}

// ---- one-pass multi-selector campaigns ------------------------------------

TEST(DistinguisherPipelineTest, OnePassAllSubkeysMatchesIndependentCampaigns) {
  const RoundSpec round = present_round(4, LogicStyle::kStaticCmos);
  const CampaignOptions options = reference_options(round);
  TraceEngine engine(round, kTech);
  std::vector<CpaDistinguisher> one_pass;
  for (std::size_t i = 0; i < round.num_sboxes(); ++i) {
    one_pass.emplace_back(
        engine.spec(i),
        AttackSelector{.sbox_index = i, .model = PowerModel::kHammingWeight});
  }
  std::vector<Distinguisher*> list;
  for (CpaDistinguisher& attack : one_pass) list.push_back(&attack);
  engine.run_distinguishers(options, list);
  for (std::size_t i = 0; i < round.num_sboxes(); ++i) {
    const AttackResult independent =
        run_attack(engine, options,
                   CpaDistinguisher(engine.spec(i), one_pass[i].selector()));
    expect_same_result(one_pass[i].result(), independent);
    // Every subkey must actually be recovered from the single campaign —
    // static CMOS leaks, and each instance's neighbours are only noise.
    EXPECT_EQ(one_pass[i].result().best_guess,
              round.sub_word(options.key.data(), i))
        << "sbox " << i;
  }
}

TEST(DistinguisherPipelineTest, MixedKindsShareOneCampaignUnchanged) {
  const RoundSpec round = present_round(2, LogicStyle::kStaticCmos);
  const CampaignOptions options = reference_options(round);
  TraceEngine engine(round, kTech);
  const AttackSelector cpa_sel{.sbox_index = 0,
                               .model = PowerModel::kHammingWeight};
  const AttackSelector dom_sel{.sbox_index = 1, .bit = 1};

  CpaDistinguisher cpa(round.sboxes[0], cpa_sel);
  DomDistinguisher dom(round.sboxes[1], dom_sel);
  SecondOrderCpaDistinguisher second(round.sboxes[0], cpa_sel);
  std::vector<Distinguisher*> all = {&cpa, &dom, &second};
  engine.run_distinguishers(options, all);

  expect_same_result(
      cpa.result(),
      run_attack(engine, options, CpaDistinguisher(engine.spec(0), cpa_sel)));
  expect_same_result(
      dom.result(),
      run_attack(engine, options, DomDistinguisher(engine.spec(1), dom_sel)));
  const SecondOrderAttackResult solo = run_attack(
      engine, options, SecondOrderCpaDistinguisher(engine.spec(0), cpa_sel));
  expect_same_result(second.result().combined, solo.combined);
  EXPECT_EQ(second.result().best_pair_first, solo.best_pair_first);
  EXPECT_EQ(second.result().best_pair_second, solo.best_pair_second);
}

// ---- the shared per-instance block histogram ------------------------------

// Every shard state of distinguisher `d` in a campaign-state file, as the
// bytes its save() writes, concatenated in shard order.
std::vector<std::uint8_t> saved_shard_states(
    const std::string& path, const CampaignManifest& manifest,
    std::span<Distinguisher* const> list, std::size_t d) {
  ShardStates states = make_shard_states(list.size(), manifest.num_shards);
  load_campaign_state(path, manifest, list, states);
  ByteWriter writer;
  for (const auto& state : states[d]) state->save(writer);
  return writer.buffer();
}

// The engine bins each shard once per attacked instance and hands that
// histogram to every scalar accumulator on the instance. That must be
// invisible: CPA, DoM and MTD on two instances in one pass, live and
// replayed, equal each distinguisher run alone — results and raw shard
// states — and every shard accumulator gives the same bytes whether it
// contracts the feed's histogram or bins the block itself. The MTD
// ladder has a checkpoint exactly on a shard boundary (448, the end of
// shard 0: the shared-histogram path plus a snapshot) and one strictly
// inside a shard (700: the per-segment path).
TEST(DistinguisherPipelineTest, SharedBlockHistogramIsInvisible) {
  const RoundSpec round = present_round(2, LogicStyle::kStaticCmos);
  const CampaignOptions options = reference_options(round);
  ASSERT_EQ(campaign_shard_size(options), 448u);
  const std::vector<std::size_t> ladder = {100, 448, 700, 2000};
  TraceEngine engine(round, kTech);
  const CampaignManifest manifest = engine.campaign_manifest(options);

  // One CPA + DoM + MTD set per attacked instance, freshly built for
  // every run (a distinguisher is a single-use state machine).
  struct Set {
    CpaDistinguisher cpa;
    DomDistinguisher dom;
    MtdDistinguisher mtd;
  };
  const auto make_set = [&](std::size_t i) {
    const AttackSelector selector{.sbox_index = i,
                                  .model = PowerModel::kHammingWeight,
                                  .bit = 1};
    return Set{CpaDistinguisher(engine.spec(i), selector),
               DomDistinguisher(engine.spec(i), selector),
               MtdDistinguisher(engine.spec(i), selector,
                                round.sub_word(options.key.data(), i),
                                ladder, options.num_traces)};
  };
  const auto list_of = [](std::vector<Set>& sets) {
    std::vector<Distinguisher*> list;
    for (Set& set : sets) {
      list.insert(list.end(), {&set.cpa, &set.dom, &set.mtd});
    }
    return list;
  };
  const auto expect_same_set = [](const Set& a, const Set& b) {
    expect_same_result(a.cpa.result(), b.cpa.result());
    expect_same_result(a.dom.result(), b.dom.result());
    EXPECT_EQ(a.mtd.result().rank_history, b.mtd.result().rank_history);
    EXPECT_EQ(a.mtd.result().mtd, b.mtd.result().mtd);
  };

  // Each distinguisher alone: its result and raw shard states.
  std::vector<Set> alone;
  std::vector<std::vector<std::uint8_t>> alone_states;
  for (std::size_t i = 0; i < 2; ++i) {
    alone.push_back(make_set(i));
    Set& set = alone.back();
    for (Distinguisher* d :
         std::initializer_list<Distinguisher*>{&set.cpa, &set.dom, &set.mtd}) {
      const std::string path = testing::TempDir() + "shared_hist_alone";
      Distinguisher* const solo[] = {d};
      CampaignPersistence persist;
      persist.checkpoint_path = path;
      ASSERT_TRUE(engine.run_distinguishers(options, solo, persist));
      alone_states.push_back(saved_shard_states(path, manifest, solo, 0));
    }
  }
  ASSERT_EQ(alone_states.size(), 6u);
  // The ladder exercises both MTD paths and still ranks every point.
  EXPECT_EQ(alone[0].mtd.result().rank_history.size(), ladder.size());

  const std::string corpus_path = testing::TempDir() + "shared_hist.corpus";
  engine.record(options, TraceDataKind::kScalar, corpus_path);
  const CorpusReader corpus(corpus_path);
  for (const bool replayed : {false, true}) {
    SCOPED_TRACE(replayed ? "replayed" : "live");
    std::vector<Set> shared;
    shared.push_back(make_set(0));
    shared.push_back(make_set(1));
    const std::vector<Distinguisher*> list = list_of(shared);
    const std::string path = testing::TempDir() + "shared_hist_shared";
    CampaignPersistence persist;
    persist.checkpoint_path = path;
    if (replayed) {
      ASSERT_TRUE(engine.replay(corpus, list, persist));
    } else {
      ASSERT_TRUE(engine.run_distinguishers(options, list, persist));
    }
    for (std::size_t i = 0; i < 2; ++i) expect_same_set(shared[i], alone[i]);
    for (std::size_t d = 0; d < list.size(); ++d) {
      EXPECT_EQ(saved_shard_states(path, manifest, list, d), alone_states[d])
          << "distinguisher " << d;
    }
  }

  // Below the feed: every shard accumulator, with and without the
  // block's histogram, against the feed's saved shard state.
  std::vector<Set> sets;
  sets.push_back(make_set(0));
  sets.push_back(make_set(1));
  const std::vector<Distinguisher*> list = list_of(sets);
  BlockHistogram histogram;
  for (std::size_t d = 0; d < list.size(); ++d) {
    ByteWriter with;
    ByteWriter without;
    for_each_shard(engine, options, list[d]->sbox_index(), /*sampled=*/false,
                   [&](std::size_t shard, const std::uint8_t* pts,
                       const double* samples, std::size_t n) {
                     ShardBlock block{.start = shard * 448,
                                      .sub_pts = pts,
                                      .data = samples,
                                      .count = n};
                     auto acc = list[d]->make_shard_accumulator();
                     acc->accumulate(block);
                     acc->save(without);
                     build_block_histogram(pts, samples, n, histogram);
                     block.histogram = &histogram;
                     acc = list[d]->make_shard_accumulator();
                     acc->accumulate(block);
                     acc->save(with);
                   });
    EXPECT_EQ(with.buffer(), without.buffer()) << "distinguisher " << d;
    EXPECT_EQ(with.buffer(), alone_states[d]) << "distinguisher " << d;
  }
}

// Records what a feed hands one accumulator: the block's histogram, if
// any, and the sub-plaintexts read through sub_words().
struct FeedRecord {
  bool has_histogram = false;
  BlockHistogram histogram{};
  std::vector<std::uint8_t> sub_words;
};

class RecordingAccumulator final : public ShardAccumulator {
 public:
  explicit RecordingAccumulator(FeedRecord& record) : record_(record) {}
  void accumulate(const ShardBlock& block) override {
    record_.has_histogram = block.histogram != nullptr;
    if (record_.has_histogram) record_.histogram = *block.histogram;
    const std::uint8_t* sub = block.sub_words();
    record_.sub_words.assign(sub, sub + block.count);
  }
  void merge(ShardAccumulator&) override {}
  void save(ByteWriter&) const override {}
  void load(ByteReader&) override {}

 private:
  FeedRecord& record_;
};

class RecordingDistinguisher final : public Distinguisher {
 public:
  RecordingDistinguisher(std::size_t sbox, TraceDataKind kind)
      : sbox_(sbox), kind_(kind) {}
  TraceDataKind data_kind() const override { return kind_; }
  std::size_t sbox_index() const override { return sbox_; }
  void validate(const RoundSpec&) const override {}
  std::unique_ptr<ShardAccumulator> make_shard_accumulator() const override {
    return std::make_unique<RecordingAccumulator>(record);
  }
  void finalize(ShardAccumulator&) override {}

  mutable FeedRecord record;

 private:
  std::size_t sbox_;
  TraceDataKind kind_;
};

SboxSpec identity_spec(std::size_t bits) {
  SboxSpec spec;
  spec.name = "identity";
  spec.in_bits = bits;
  spec.out_bits = bits;
  spec.table.resize(std::size_t{1} << bits);
  for (std::size_t x = 0; x < spec.table.size(); ++x) {
    spec.table[x] = static_cast<std::uint8_t>(x);
  }
  return spec;
}

// The feed bins every attacked instance of a shard in one pass. On random
// layouts of 1-8-bit fields (states of 1 to 12 bytes, windows shared or
// not, fields straddling bytes), random shard lengths (tail traces read
// short windows) and random attack lists (instances attacked twice, in
// any order, scalar and sampled), every scalar block's histogram must be
// bit-identical to sub_words + build_block_histogram over the block, and
// every accumulator reading sub_words() must see RoundSpec::sub_words.
// The buffers hold exactly the shard, so a read past it trips the
// address sanitizer.
TEST(ShardFeedTest, MatchesPerInstanceBinningOnRandomLayouts) {
  Rng rng(0xB1A5);
  for (int trial = 0; trial < 150; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    RoundSpec round;
    const std::size_t n = 1 + rng.below(12);
    for (std::size_t i = 0; i < n; ++i) {
      round.sboxes.push_back(identity_spec(1 + rng.below(8)));
    }
    const std::size_t stride = round.state_bytes();
    const std::size_t count = rng.below(70);
    std::vector<std::uint8_t> pts(count * stride);
    for (std::uint8_t& byte : pts) {
      byte = static_cast<std::uint8_t>(rng.below(256));
    }
    std::vector<double> samples(count);
    for (double& x : samples) {
      x = 1e-13 + static_cast<double>(rng.below(1000)) * 1e-16;
    }

    std::vector<std::unique_ptr<RecordingDistinguisher>> owners;
    std::vector<Distinguisher*> list;
    const std::size_t attacks = 1 + rng.below(2 * n);
    for (std::size_t k = 0; k < attacks; ++k) {
      owners.push_back(std::make_unique<RecordingDistinguisher>(
          rng.below(n), rng.below(3) == 0 ? TraceDataKind::kSampled
                                          : TraceDataKind::kScalar));
      list.push_back(owners.back().get());
    }
    const ShardFeed feed(round, list, std::max<std::size_t>(count, 1), 1);
    ShardFeed::Scratch scratch = feed.make_scratch();
    ShardStates states = make_shard_states(list.size(), 1);
    const ShardData data{.pts = pts.data(),
                         .samples = samples.data(),
                         .rows = samples.data(),
                         .count = count};
    feed.feed(0, data, scratch, states);

    std::vector<std::uint8_t> expected_sub(count);
    BlockHistogram expected{};
    for (const auto& d : owners) {
      const std::size_t i = d->sbox_index();
      round.sub_words(pts.data(), count, i, expected_sub.data());
      EXPECT_EQ(d->record.sub_words, expected_sub) << "instance " << i;
      const bool scalar = d->data_kind() == TraceDataKind::kScalar;
      ASSERT_EQ(d->record.has_histogram, scalar) << "instance " << i;
      if (!scalar) continue;
      build_block_histogram(expected_sub.data(), samples.data(), count,
                            expected);
      const BlockHistogram& seen = d->record.histogram;
      EXPECT_EQ(std::memcmp(seen.counts, expected.counts,
                            sizeof expected.counts), 0)
          << "instance " << i;
      EXPECT_EQ(std::memcmp(seen.sums, expected.sums, sizeof expected.sums),
                0)
          << "instance " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(seen.sum_sq),
                std::bit_cast<std::uint64_t>(expected.sum_sq));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(seen.shift),
                std::bit_cast<std::uint64_t>(expected.shift));
      EXPECT_EQ(seen.count, expected.count);
    }
  }
}

// ---- validation and shard-size clamping -----------------------------------

// One of each distinguisher class over (spec, selector).
struct AllFive {
  CpaDistinguisher cpa;
  DomDistinguisher dom;
  MtdDistinguisher mtd;
  MultiCpaDistinguisher multi;
  SecondOrderCpaDistinguisher second;

  std::vector<Distinguisher*> list() {
    return {&cpa, &dom, &mtd, &multi, &second};
  }
};

AllFive all_five(const SboxSpec& spec, const AttackSelector& selector,
                 std::size_t width, std::size_t num_traces) {
  return AllFive{CpaDistinguisher(spec, selector),
                 DomDistinguisher(spec, selector),
                 MtdDistinguisher(spec, selector, 0,
                                  default_checkpoints(num_traces), num_traces),
                 MultiCpaDistinguisher(spec, selector, width),
                 SecondOrderCpaDistinguisher(spec, selector)};
}

// The contract every class keeps: its data kind, the ordered fold for MTD
// alone, validate() pinning the spec and the attacked instance, the bit
// check that only DoM makes under kHammingWeight, and no result() before
// a campaign finalized it.
TEST(DistinguisherPipelineTest, ValidatesSpecAgainstRound) {
  const RoundSpec round = present_round(1, LogicStyle::kStaticCmos);
  const CampaignOptions options = reference_options(round);
  TraceEngine engine(round, kTech);
  const std::size_t levels = engine.target().num_levels();
  const AttackSelector hw{.model = PowerModel::kHammingWeight};

  AllFive fresh = all_five(present_spec(), hw, levels, options.num_traces);
  const TraceDataKind kinds[] = {
      TraceDataKind::kScalar, TraceDataKind::kScalar, TraceDataKind::kScalar,
      TraceDataKind::kSampled, TraceDataKind::kSampled};
  const std::vector<Distinguisher*> list = fresh.list();
  for (std::size_t i = 0; i < list.size(); ++i) {
    SCOPED_TRACE("class " + std::to_string(i));
    EXPECT_EQ(list[i]->data_kind(), kinds[i]);
    EXPECT_EQ(list[i]->ordered(), list[i] == &fresh.mtd);
    EXPECT_EQ(list[i]->sbox_index(), 0u);
    EXPECT_NO_THROW(list[i]->validate(round));
  }
  // Results are only valid after a campaign finalized the distinguisher.
  EXPECT_THROW(fresh.cpa.result(), InvalidArgument);
  EXPECT_THROW(fresh.dom.result(), InvalidArgument);
  EXPECT_THROW(fresh.mtd.result(), InvalidArgument);
  EXPECT_THROW(fresh.multi.result(), InvalidArgument);
  EXPECT_THROW(fresh.second.result(), InvalidArgument);

  // Wrong spec for the attacked instance (built for AES, run on PRESENT),
  // and an instance the one-S-box round does not have.
  AllFive aes = all_five(aes_spec(), hw, levels, options.num_traces);
  AllFive far = all_five(present_spec(),
                         AttackSelector{.sbox_index = 1,
                                        .model = PowerModel::kHammingWeight},
                         levels, options.num_traces);
  for (AllFive* set : {&aes, &far}) {
    for (Distinguisher* d : set->list()) {
      EXPECT_THROW(d->validate(round), InvalidArgument);
    }
  }
  Distinguisher* const mismatched[] = {&aes.cpa};
  EXPECT_THROW(engine.run_distinguishers(options, mismatched),
               InvalidArgument);

  // An out-of-range bit only matters to DoM, whose model is the bit.
  AllFive wide = all_five(present_spec(),
                          AttackSelector{.model = PowerModel::kHammingWeight,
                                         .bit = present_spec().out_bits},
                          levels, options.num_traces);
  for (Distinguisher* d : wide.list()) {
    if (d == &wide.dom) {
      EXPECT_THROW(d->validate(round), InvalidArgument);
    } else {
      EXPECT_NO_THROW(d->validate(round));
    }
  }

  // Time-resolved rows are num_levels() wide; a MultiCpa of another width
  // fails the campaign instead of misreading the rows.
  MultiCpaDistinguisher narrow(present_spec(), hw, levels + 1);
  Distinguisher* const narrow_list[] = {&narrow};
  EXPECT_THROW(engine.run_distinguishers(options, narrow_list),
               InvalidArgument);
}

// The ladder is clipped to the num_traces an MTD distinguisher was built
// with, so that count must be the campaign's: built for more traces it
// would never rank its last checkpoints, built for fewer it would stop
// early. Either way finalize() refuses instead of reporting a short MTD.
TEST(DistinguisherPipelineTest, MtdRejectsACampaignOfAnotherLength) {
  const RoundSpec round = present_round(1, LogicStyle::kStaticCmos);
  const CampaignOptions options = reference_options(round);
  TraceEngine engine(round, kTech);
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  const std::size_t subkey = round.sub_word(options.key.data(), 0);
  for (const std::size_t built_for :
       {options.num_traces / 2, options.num_traces * 2}) {
    SCOPED_TRACE("built for " + std::to_string(built_for));
    MtdDistinguisher mtd(engine.spec(), selector, subkey,
                         default_checkpoints(built_for), built_for);
    Distinguisher* const list[] = {&mtd};
    EXPECT_THROW(engine.run_distinguishers(options, list), InvalidArgument);
    EXPECT_THROW(mtd.result(), InvalidArgument);
  }
}

TEST(CampaignShardSizeTest, ClampsSmallBlocksToOneLaneWord) {
  CampaignOptions options;
  for (std::size_t block : {std::size_t{1}, std::size_t{63}}) {
    options.shard_size = block;
    EXPECT_EQ(campaign_shard_size(options), 64u) << block;
  }
  options.shard_size = 64;
  EXPECT_EQ(campaign_shard_size(options), 64u);
  options.shard_size = 100;  // rounds down to whole 64-lane words
  EXPECT_EQ(campaign_shard_size(options), 64u);
  options.shard_size = 130;
  EXPECT_EQ(campaign_shard_size(options), 128u);
}

// shard_size = 0 derives the shard size from num_traces and fixed
// constants alone: clamp(num_traces / 256 rounded to a whole 64-lane
// word, 1024, 65536). The autotuned size must never depend on the thread
// count — it is part of the stream definition.
TEST(CampaignShardSizeTest, AutotunesFromTraceCountAlone) {
  CampaignOptions options;
  options.shard_size = 0;
  // Small campaigns stay single-shard (min clamp).
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{256},
                        std::size_t{1024}, std::size_t{200000}}) {
    options.num_traces = n;
    EXPECT_EQ(campaign_shard_size(options), 1024u) << n;
  }
  // Mid-range aims for ~256 shards, rounded to whole 64-lane words.
  options.num_traces = 1u << 20;  // 1Mi / 256 = 4096
  EXPECT_EQ(campaign_shard_size(options), 4096u);
  options.num_traces = 300000;  // 1171.875 -> 1171 -> round to 1152
  EXPECT_EQ(campaign_shard_size(options), 1152u);
  // Huge campaigns cap the shard (max clamp).
  options.num_traces = 1u << 27;
  EXPECT_EQ(campaign_shard_size(options), 65536u);
  // The knobs that must NOT matter.
  options.num_traces = 1u << 20;
  for (std::size_t threads : {std::size_t{1}, std::size_t{7}}) {
    options.num_threads = threads;
    EXPECT_EQ(campaign_shard_size(options), 4096u);
  }
}

// A shard_size below the 64-lane word must still run — and, because the
// clamp lands on the 64-trace granule, produce the exact stream
// shard_size = 64 produces.
TEST(CampaignShardSizeTest, SubLaneWordBlockSizeRunsAndMatchesClamp) {
  const RoundSpec round = present_round(1, LogicStyle::kSablEnhanced);
  TraceEngine engine(round, kTech);
  CampaignOptions options;
  options.num_traces = 200;
  options.key = {0x6};
  options.seed = 0xC1A4;
  options.shard_size = 64;
  const TraceSet reference = engine.run(options);
  options.shard_size = 3;  // smaller than the 64-lane word
  const TraceSet traces = engine.run(options);
  ASSERT_EQ(traces.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(traces.plaintexts[i], reference.plaintexts[i]) << i;
    ASSERT_EQ(traces.samples[i], reference.samples[i]) << i;
  }
}

}  // namespace
}  // namespace sable
