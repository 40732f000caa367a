// Checkpoint/resume determinism: a campaign interrupted after K shards
// and resumed from its checkpoint file must be bit-identical to the
// uninterrupted run — across thread counts, for the
// scalar distinguishers AND the ordered MTD fold. This holds only
// because checkpoints store RAW per-shard accumulator states: with 7
// shards (non-power-of-2) the fixed-shape merge tree is NOT a left
// fold, so persisting merged prefixes would silently change the
// floating-point reduction order on resume.
//
// The committed golden_v2.sablstat pins the checkpoint bytes of every
// distinguisher class at once (tests/data/README.md has the snippet).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "crypto/sboxes.hpp"
#include "dpa/distinguisher.hpp"
#include "dpa/mtd.hpp"
#include "engine/trace_engine.hpp"
#include "io/corpus.hpp"
#include "io/manifest.hpp"
#include "io/serial.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

// 3000 traces over 448-trace shards: 7 shards with a ragged tail.
CampaignOptions resume_options() {
  CampaignOptions options;
  options.num_traces = 3000;
  options.key = {0xB};
  options.noise_sigma = 2e-16;
  options.seed = 0x5EED;
  options.shard_size = 448;
  return options;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "checkpoint_resume_" + name;
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

struct AttackSet {
  CpaDistinguisher cpa;
  DomDistinguisher dom;
  MtdDistinguisher mtd;
};

AttackSet make_attacks(const TraceEngine& engine,
                       const CampaignOptions& options) {
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  return AttackSet{
      CpaDistinguisher(engine.spec(), selector),
      DomDistinguisher(engine.spec(),
                       AttackSelector{.model = PowerModel::kHammingWeight,
                                      .bit = 2}),
      MtdDistinguisher(engine.spec(), selector, options.key[0],
                       default_checkpoints(options.num_traces),
                       options.num_traces)};
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

// The golden_v2.sablstat campaign: 96 traces over 64-trace shards (two
// shards, ragged tail), one distinguisher of each class in one mixed
// scalar + time-resolved list.
CampaignOptions golden_options() {
  CampaignOptions options;
  options.num_traces = 96;
  options.key = {0xB};
  options.noise_sigma = 2e-16;
  options.seed = 0x5EED;
  options.shard_size = 64;
  return options;
}

struct GoldenSet {
  CpaDistinguisher cpa;
  DomDistinguisher dom;
  MtdDistinguisher mtd;
  MultiCpaDistinguisher multi;
  SecondOrderCpaDistinguisher second;

  GoldenSet(TraceEngine& engine, const CampaignOptions& options)
      : cpa(engine.spec(), AttackSelector{.model = PowerModel::kHammingWeight}),
        dom(engine.spec(), AttackSelector{.model = PowerModel::kHammingWeight,
                                          .bit = 0}),
        mtd(engine.spec(), AttackSelector{.model = PowerModel::kHammingWeight},
            options.key[0], default_checkpoints(options.num_traces),
            options.num_traces),
        multi(engine.spec(),
              AttackSelector{.model = PowerModel::kHammingWeight},
              engine.target().num_levels()),
        second(engine.spec(),
               AttackSelector{.model = PowerModel::kHammingWeight}) {}

  std::vector<Distinguisher*> list() {
    return {&cpa, &dom, &mtd, &multi, &second};
  }
};

TEST(CheckpointResumeTest, GoldenCheckpointReWritesByteIdentically) {
  const CampaignOptions options = golden_options();
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  GoldenSet set(engine, options);
  const std::vector<Distinguisher*> list = set.list();
  CampaignPersistence persist;
  persist.checkpoint_path = temp_path("golden");
  EXPECT_TRUE(engine.run_distinguishers(options, list, persist));
  EXPECT_EQ(read_file(persist.checkpoint_path),
            read_file(std::string(SABLE_TEST_DATA_DIR) +
                      "/golden_v2.sablstat"));
}

TEST(CheckpointResumeTest, ResumingTheGoldenCheckpointMatchesAPlainRun) {
  const CampaignOptions options = golden_options();
  TraceEngine ref_engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  GoldenSet ref(ref_engine, options);
  const std::vector<Distinguisher*> ref_list = ref.list();
  ref_engine.run_distinguishers(options, ref_list);

  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  GoldenSet set(engine, options);
  const std::vector<Distinguisher*> list = set.list();
  CampaignPersistence persist;
  persist.resume_path =
      std::string(SABLE_TEST_DATA_DIR) + "/golden_v2.sablstat";
  EXPECT_TRUE(engine.run_distinguishers(options, list, persist));

  expect_same_scores(set.cpa.result().score, ref.cpa.result().score);
  expect_same_scores(set.dom.result().score, ref.dom.result().score);
  EXPECT_EQ(set.mtd.result().rank_history, ref.mtd.result().rank_history);
  EXPECT_EQ(set.mtd.result().mtd, ref.mtd.result().mtd);
  expect_same_scores(set.multi.result().combined.score,
                     ref.multi.result().combined.score);
  EXPECT_EQ(set.multi.result().best_sample, ref.multi.result().best_sample);
  expect_same_scores(set.second.result().combined.score,
                     ref.second.result().combined.score);
  EXPECT_EQ(set.second.result().best_pair_first,
            ref.second.result().best_pair_first);
  EXPECT_EQ(set.second.result().best_pair_second,
            ref.second.result().best_pair_second);
}

TEST(CheckpointResumeTest, ResumedRunIsBitIdenticalAcrossThreadCounts) {
  const CampaignOptions base = resume_options();

  // One reference at the default thread count: determinism says every
  // configuration below must reproduce it exactly.
  TraceEngine ref_engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  AttackSet ref = make_attacks(ref_engine, base);
  Distinguisher* const ref_list[] = {&ref.cpa, &ref.dom, &ref.mtd};
  ref_engine.run_distinguishers(base, ref_list);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{5}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CampaignOptions options = base;
    options.num_threads = threads;
    const std::string checkpoint = temp_path(std::to_string(threads));

    // Interrupt after 3 of 7 shards...
    {
      TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
      AttackSet set = make_attacks(engine, options);
      Distinguisher* const list[] = {&set.cpa, &set.dom, &set.mtd};
      CampaignPersistence persist;
      persist.shard_end = 3;
      persist.checkpoint_path = checkpoint;
      EXPECT_FALSE(engine.run_distinguishers(options, list, persist));
    }
    // ...and resume the remainder in a fresh engine and fresh
    // distinguishers, as a restarted process would.
    TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
    AttackSet set = make_attacks(engine, options);
    Distinguisher* const list[] = {&set.cpa, &set.dom, &set.mtd};
    CampaignPersistence persist;
    persist.resume_path = checkpoint;
    EXPECT_TRUE(engine.run_distinguishers(options, list, persist));

    expect_same_scores(set.cpa.result().score, ref.cpa.result().score);
    expect_same_scores(set.dom.result().score, ref.dom.result().score);
    EXPECT_EQ(set.mtd.result().rank_history, ref.mtd.result().rank_history);
    EXPECT_EQ(set.mtd.result().mtd, ref.mtd.result().mtd);
  }
}

TEST(CheckpointResumeTest, PeriodicWaveCheckpointsDoNotPerturbTheRun) {
  const CampaignOptions options = resume_options();
  TraceEngine ref_engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  AttackSet ref = make_attacks(ref_engine, options);
  Distinguisher* const ref_list[] = {&ref.cpa, &ref.dom, &ref.mtd};
  ref_engine.run_distinguishers(options, ref_list);

  // Checkpoint every 2 shards: four checkpoints, a state file rewritten
  // as the done prefix reaches 2, 4, 6 and 7 shards — the run still
  // completes and matches exactly.
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  AttackSet set = make_attacks(engine, options);
  Distinguisher* const list[] = {&set.cpa, &set.dom, &set.mtd};
  CampaignPersistence persist;
  persist.checkpoint_path = temp_path("waves");
  persist.checkpoint_every_shards = 2;
  EXPECT_TRUE(engine.run_distinguishers(options, list, persist));
  expect_same_scores(set.cpa.result().score, ref.cpa.result().score);
  expect_same_scores(set.dom.result().score, ref.dom.result().score);
  EXPECT_EQ(set.mtd.result().rank_history, ref.mtd.result().rank_history);

  // The final checkpoint covers everything: resuming from it does no
  // simulation work and reproduces the same results once more.
  TraceEngine resumed_engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  AttackSet resumed = make_attacks(resumed_engine, options);
  Distinguisher* const resumed_list[] = {&resumed.cpa, &resumed.dom,
                                         &resumed.mtd};
  CampaignPersistence resume;
  resume.resume_path = persist.checkpoint_path;
  EXPECT_TRUE(
      resumed_engine.run_distinguishers(options, resumed_list, resume));
  expect_same_scores(resumed.cpa.result().score, ref.cpa.result().score);
  EXPECT_EQ(resumed.mtd.result().rank_history, ref.mtd.result().rank_history);
}

// Resuming a state that already covers every shard feeds nothing, but a
// checkpoint path still gets its file: the resumed states, published
// before the reduction releases them, so the new file holds the resumed
// file's bytes, and resuming it gives the same scores once more.
TEST(CheckpointResumeTest, ResumingACompleteStateStillWritesTheCheckpoint) {
  const CampaignOptions options = resume_options();
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  AttackSet ref = make_attacks(engine, options);
  Distinguisher* const ref_list[] = {&ref.cpa, &ref.dom, &ref.mtd};
  CampaignPersistence full;
  full.checkpoint_path = temp_path("complete");
  EXPECT_TRUE(engine.run_distinguishers(options, ref_list, full));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CampaignOptions threaded = options;
    threaded.num_threads = threads;
    const std::string again = temp_path("complete_again_" +
                                        std::to_string(threads));
    std::remove(again.c_str());
    AttackSet set = make_attacks(engine, threaded);
    Distinguisher* const list[] = {&set.cpa, &set.dom, &set.mtd};
    CampaignPersistence resume;
    resume.resume_path = full.checkpoint_path;
    resume.checkpoint_path = again;
    EXPECT_TRUE(engine.run_distinguishers(threaded, list, resume));
    ASSERT_TRUE(std::ifstream(again).good()) << again;
    EXPECT_TRUE(read_file(again) == read_file(full.checkpoint_path));
    expect_same_scores(set.cpa.result().score, ref.cpa.result().score);
    expect_same_scores(set.dom.result().score, ref.dom.result().score);
    EXPECT_EQ(set.mtd.result().rank_history, ref.mtd.result().rank_history);

    AttackSet chained = make_attacks(engine, threaded);
    Distinguisher* const chained_list[] = {&chained.cpa, &chained.dom,
                                           &chained.mtd};
    CampaignPersistence from_again;
    from_again.resume_path = again;
    EXPECT_TRUE(engine.run_distinguishers(threaded, chained_list, from_again));
    expect_same_scores(chained.cpa.result().score, ref.cpa.result().score);
    expect_same_scores(chained.dom.result().score, ref.dom.result().score);
    EXPECT_EQ(chained.mtd.result().rank_history,
              ref.mtd.result().rank_history);
  }
}

// The other empty worklist: a range the resumed partial already covers
// feeds nothing and stays partial, but its checkpoint path still gets
// the resumed partial's bytes, whatever the wave size or thread count,
// and that file merges with the rest of the campaign into the plain
// run's scores.
TEST(CheckpointResumeTest, ResumingACoveredRangeStillWritesTheCheckpoint) {
  const CampaignOptions options = resume_options();
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  AttackSet ref = make_attacks(engine, options);
  Distinguisher* const ref_list[] = {&ref.cpa, &ref.dom, &ref.mtd};
  engine.run_distinguishers(options, ref_list);

  CampaignPersistence head;
  head.shard_end = 3;
  head.checkpoint_path = temp_path("covered_head");
  CampaignPersistence tail;
  tail.shard_begin = 3;
  tail.checkpoint_path = temp_path("covered_tail");
  for (const CampaignPersistence* part : {&head, &tail}) {
    AttackSet set = make_attacks(engine, options);
    Distinguisher* const list[] = {&set.cpa, &set.dom, &set.mtd};
    EXPECT_FALSE(engine.run_distinguishers(options, list, *part));
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t every : {std::size_t{0}, std::size_t{2}}) {
      SCOPED_TRACE(testing::Message() << threads << " threads, every "
                                      << every);
      CampaignOptions threaded = options;
      threaded.num_threads = threads;
      const std::string again =
          temp_path("covered_again_" + std::to_string(threads) + "_" +
                    std::to_string(every));
      std::remove(again.c_str());
      AttackSet set = make_attacks(engine, threaded);
      Distinguisher* const list[] = {&set.cpa, &set.dom, &set.mtd};
      CampaignPersistence resume;
      resume.resume_path = head.checkpoint_path;
      resume.shard_end = 3;
      resume.checkpoint_path = again;
      resume.checkpoint_every_shards = every;
      EXPECT_FALSE(engine.run_distinguishers(threaded, list, resume));
      ASSERT_TRUE(std::ifstream(again).good()) << again;
      EXPECT_TRUE(read_file(again) == read_file(head.checkpoint_path));

      AttackSet merged = make_attacks(engine, threaded);
      Distinguisher* const merged_list[] = {&merged.cpa, &merged.dom,
                                            &merged.mtd};
      engine.merge_partials(threaded, merged_list,
                            {again, tail.checkpoint_path});
      expect_same_scores(merged.cpa.result().score, ref.cpa.result().score);
      expect_same_scores(merged.dom.result().score, ref.dom.result().score);
      EXPECT_EQ(merged.mtd.result().rank_history,
                ref.mtd.result().rank_history);
    }
  }
}

// A checkpoint's bytes depend on the shards it covers and nothing else:
// the final checkpoint of the 7-shard campaign is the same whether it
// published a checkpoint every 1, 2, 3 or 7 shards on the way or only at
// the end, at 1, 2 or 4 threads, simulated live or replayed from a
// corpus, and when the campaign resumed a partial state from the middle
// of the campaign first (resumed and fresh shards interleave in the
// covered list).
TEST(CheckpointResumeTest, CheckpointBytesDependOnlyOnCoverage) {
  const CampaignOptions base = resume_options();
  const std::string corpus_path = temp_path("coverage.corpus");
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  engine.record(base, TraceDataKind::kScalar, corpus_path);
  const CorpusReader corpus(corpus_path);
  const auto final_checkpoint = [&](bool replay, std::size_t threads,
                                    const CampaignPersistence& persist) {
    CampaignOptions options = base;
    options.num_threads = threads;
    AttackSet set = make_attacks(engine, options);
    Distinguisher* const list[] = {&set.cpa, &set.dom, &set.mtd};
    EXPECT_TRUE(replay ? engine.replay(corpus, list, persist, threads)
                       : engine.run_distinguishers(options, list, persist));
    return read_file(persist.checkpoint_path);
  };
  CampaignPersistence plain;
  plain.checkpoint_path = temp_path("coverage");
  const std::vector<std::uint8_t> reference =
      final_checkpoint(false, 1, plain);
  for (const bool replay : {false, true}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      for (const std::size_t every : {0u, 1u, 2u, 3u, 7u}) {
        SCOPED_TRACE(testing::Message() << (replay ? "replay" : "live")
                                        << ", " << threads << " threads, "
                                        << "every " << every);
        CampaignPersistence persist = plain;
        persist.checkpoint_every_shards = every;
        EXPECT_TRUE(final_checkpoint(replay, threads, persist) == reference);
      }
    }
  }

  CampaignPersistence middle;
  middle.shard_begin = 2;
  middle.shard_end = 5;
  middle.checkpoint_path = temp_path("coverage_middle");
  {
    AttackSet set = make_attacks(engine, base);
    Distinguisher* const list[] = {&set.cpa, &set.dom, &set.mtd};
    EXPECT_FALSE(engine.run_distinguishers(base, list, middle));
  }
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    CampaignPersistence resumed = plain;
    resumed.resume_path = middle.checkpoint_path;
    resumed.checkpoint_every_shards = 2;
    EXPECT_TRUE(final_checkpoint(false, threads, resumed) == reference);
  }
}

TEST(CheckpointResumeTest, ResumeRejectsAForeignCampaign) {
  CampaignOptions options = resume_options();
  const std::string checkpoint = temp_path("foreign");
  {
    TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
    AttackSet set = make_attacks(engine, options);
    Distinguisher* const list[] = {&set.cpa, &set.dom, &set.mtd};
    CampaignPersistence persist;
    persist.shard_end = 3;
    persist.checkpoint_path = checkpoint;
    EXPECT_FALSE(engine.run_distinguishers(options, list, persist));
  }
  // Same spec, different noise sigma: a different trace stream, so the
  // checkpoint must be refused rather than silently mixed in.
  options.noise_sigma = 3e-16;
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  AttackSet set = make_attacks(engine, options);
  Distinguisher* const list[] = {&set.cpa, &set.dom, &set.mtd};
  CampaignPersistence persist;
  persist.resume_path = checkpoint;
  EXPECT_THROW(engine.run_distinguishers(options, list, persist),
               ManifestMismatchError);
}

}  // namespace
}  // namespace sable
