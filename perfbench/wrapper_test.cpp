// Self-test of the benchmark's timing wrapper (traced.hpp): wrapped
// distinguishers must be invisible to the engine. Every check runs one
// small campaign twice — plain and wrapped — through the same library
// call and requires bit-identical output:
//
//   live        run_distinguishers at 1 and 4 threads (CPA, DoM, MTD)
//   checkpoint  save: a wrapped run's checkpoint file equals the plain one
//   resume      load: resuming a plain half-campaign checkpoint through
//               wrapped distinguishers (load into wrapped states, then
//               merge of wrapped states) equals the plain full run
//   partials    merge_partials of two wrapped range-split partial files
//   sampled     MultiCpa + second-order CPA (time-resolved)
//   replay      replay_shared over a recorded corpus, 16 attack sets
//
// It also checks the spans: one accumulate span per shard per
// distinguisher, shards - 1 merges per distinguisher, one finalize each.
//
//   wrapper_test WORK_DIR     (exit 0 = pass)
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/trace_engine.hpp"
#include "io/corpus_cache.hpp"
#include "io/replay.hpp"
#include "io/serial.hpp"
#include "traced.hpp"

using namespace sable;
using perfbench::Op;
using perfbench::Span;
using perfbench::SpanLog;
using perfbench::TracedList;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_file(const std::string& a, const std::string& b) {
  const MappedFile fa(a);
  const MappedFile fb(b);
  return fa.size() == fb.size() &&
         std::memcmp(fa.data(), fb.data(), fa.size()) == 0;
}

struct AttackSet {
  CpaDistinguisher cpa;
  DomDistinguisher dom;
  MtdDistinguisher mtd;
  std::vector<Distinguisher*> list;

  AttackSet(const RoundSpec& round, std::size_t sbox, std::size_t subkey,
            std::size_t traces)
      : cpa(round.sboxes[sbox], AttackSelector{.sbox_index = sbox}),
        dom(round.sboxes[sbox], AttackSelector{.sbox_index = sbox, .bit = 0}),
        mtd(round.sboxes[sbox], AttackSelector{.sbox_index = sbox}, subkey,
            default_checkpoints(traces), traces),
        list{&cpa, &dom, &mtd} {}

  bool operator==(const AttackSet& o) const {
    return same_bits(cpa.result().score, o.cpa.result().score) &&
           same_bits(dom.result().score, o.dom.result().score) &&
           mtd.result().rank_history == o.mtd.result().rank_history &&
           mtd.result().mtd == o.mtd.result().mtd &&
           mtd.result().disclosed == o.mtd.result().disclosed;
  }
};

std::size_t count_op(const std::vector<Span>& spans, Op op, std::size_t dist) {
  std::size_t n = 0;
  for (const Span& s : spans) n += s.op == op && s.dist == dist;
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s WORK_DIR\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  std::filesystem::create_directories(dir);
  const auto path = [&](const char* name) { return dir + "/" + name; };

  const Technology tech = Technology::generic_180nm();
  const RoundSpec round = present_round(4, LogicStyle::kSablEnhanced);
  TraceEngine engine(round, tech);
  CampaignOptions options;
  options.num_traces = 20000;
  options.shard_size = 1024;
  options.noise_sigma = 2e-16;
  options.key = round.pack_subkeys({0x9, 0x0, 0x7, 0xE});
  const std::size_t subkey = round.sub_word(options.key.data(), 0);
  const CampaignManifest manifest = engine.campaign_manifest(options);
  const std::size_t shards = manifest.num_shards;

  // live, at 1 and 4 threads, with the spans' bookkeeping.
  for (std::size_t threads : {1u, 4u}) {
    options.num_threads = threads;
    AttackSet plain(round, 0, subkey, options.num_traces);
    engine.run_distinguishers(options, plain.list);
    AttackSet inner(round, 0, subkey, options.num_traces);
    SpanLog log;
    TracedList traced(inner.list, log);
    engine.run_distinguishers(options, traced.pointers);
    const std::vector<Span> spans = log.take();
    const std::string tag = " (" + std::to_string(threads) + " threads)";
    expect(inner == plain, "live: wrapped results bit-identical" + tag);
    bool counts = true;
    for (std::size_t d = 0; d < 3; ++d) {
      counts = counts && count_op(spans, Op::kAccumulate, d) == shards &&
               count_op(spans, Op::kMake, d) == shards &&
               count_op(spans, Op::kMerge, d) == shards - 1 &&
               count_op(spans, Op::kFinalize, d) == 1;
    }
    expect(counts, "live: one span per shard, shards-1 merges" + tag);
  }
  options.num_threads = 4;

  // checkpoint save: wrapped and plain checkpoint files are identical.
  AttackSet reference(round, 0, subkey, options.num_traces);
  {
    CampaignPersistence persist;
    persist.checkpoint_path = path("plain.ckpt");
    persist.checkpoint_every_shards = 4;
    engine.run_distinguishers(options, reference.list, persist);
    AttackSet inner(round, 0, subkey, options.num_traces);
    SpanLog log;
    TracedList traced(inner.list, log);
    persist.checkpoint_path = path("traced.ckpt");
    engine.run_distinguishers(options, traced.pointers, persist);
    expect(inner == reference, "checkpoint: wrapped results bit-identical");
    expect(same_file(path("plain.ckpt"), path("traced.ckpt")),
           "checkpoint: save() blobs byte-identical");
  }

  // resume: plain half-run checkpoint, loaded and finished wrapped.
  {
    AttackSet half(round, 0, subkey, options.num_traces);
    CampaignPersistence first;
    first.checkpoint_path = path("half.ckpt");
    first.shard_end = shards / 2;
    engine.run_distinguishers(options, half.list, first);
    AttackSet inner(round, 0, subkey, options.num_traces);
    SpanLog log;
    TracedList traced(inner.list, log);
    CampaignPersistence resume;
    resume.resume_path = path("half.ckpt");
    engine.run_distinguishers(options, traced.pointers, resume);
    expect(inner == reference, "resume: load() into wrapped states, merge of "
                               "wrapped states bit-identical");
  }

  // partials: two wrapped range-split partial files, merged wrapped.
  {
    for (int part = 0; part < 2; ++part) {
      AttackSet inner(round, 0, subkey, options.num_traces);
      SpanLog log;
      TracedList traced(inner.list, log);
      CampaignPersistence persist;
      persist.checkpoint_path = path(part == 0 ? "p0.state" : "p1.state");
      persist.shard_begin = part == 0 ? 0 : shards / 3;
      persist.shard_end = part == 0 ? shards / 3 : kAllShards;
      engine.run_distinguishers(options, traced.pointers, persist);
    }
    AttackSet inner(round, 0, subkey, options.num_traces);
    SpanLog log;
    TracedList traced(inner.list, log);
    engine.merge_partials(options, traced.pointers,
                          {path("p0.state"), path("p1.state")});
    expect(inner == reference, "partials: wrapped merge_partials bit-identical");
  }

  // sampled: MultiCpa + second-order.
  {
    const std::size_t levels = engine.target().num_levels();
    const auto make = [&] {
      return std::make_pair(
          std::make_unique<MultiCpaDistinguisher>(
              round.sboxes[0], AttackSelector{.sbox_index = 0}, levels),
          std::make_unique<SecondOrderCpaDistinguisher>(
              round.sboxes[0], AttackSelector{.sbox_index = 0}));
    };
    auto plain = make();
    std::vector<Distinguisher*> plain_list = {plain.first.get(),
                                              plain.second.get()};
    engine.run_distinguishers(options, plain_list);
    auto inner = make();
    SpanLog log;
    TracedList traced({inner.first.get(), inner.second.get()}, log);
    engine.run_distinguishers(options, traced.pointers);
    expect(same_bits(inner.first->result().combined.score,
                     plain.first->result().combined.score) &&
               same_bits(inner.second->result().combined.score,
                         plain.second->result().combined.score),
           "sampled: wrapped MultiCpa + second-order bit-identical");
  }

  // replay: replay_shared of a recorded corpus into every subkey's set.
  {
    const std::string corpus = path("replay.sablcorp");
    engine.record(options, TraceDataKind::kScalar, corpus);
    const auto sets_for = [&] {
      std::vector<std::unique_ptr<AttackSet>> sets;
      for (std::size_t j = 0; j < round.num_sboxes(); ++j) {
        sets.push_back(std::make_unique<AttackSet>(
            round, j, round.sub_word(options.key.data(), j),
            options.num_traces));
      }
      return sets;
    };
    auto plain = sets_for();
    std::vector<std::span<Distinguisher* const>> plain_spans;
    for (const auto& set : plain) plain_spans.emplace_back(set->list);
    {
      SharedCorpus shared(corpus);
      replay_shared(shared, round, plain_spans, 4);
    }
    auto inner = sets_for();
    SpanLog log;
    std::vector<std::unique_ptr<TracedList>> traced;
    std::vector<std::span<Distinguisher* const>> spans;
    for (const auto& set : inner) {
      traced.push_back(
          std::make_unique<TracedList>(set->list, log, 3 * traced.size()));
      spans.emplace_back(traced.back()->pointers);
    }
    {
      SharedCorpus shared(corpus);
      replay_shared(shared, round, spans, 4);
    }
    bool same = true;
    for (std::size_t j = 0; j < plain.size(); ++j) {
      same = same && *inner[j] == *plain[j];
    }
    expect(same, "replay: wrapped replay_shared bit-identical");
  }

  std::filesystem::remove_all(dir);
  std::printf("%s\n", failures == 0 ? "wrapper_test: all checks passed"
                                    : "wrapper_test: FAILED");
  return failures == 0 ? 0 : 1;
}
