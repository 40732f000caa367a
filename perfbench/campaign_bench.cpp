// Campaign benchmark: four CLI-shaped workloads over the `sable`
// library, measured end to end and layer by layer.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --work DIR [--threads T] [--commit SHA]
//
// Each workload makes the library calls examples/campaign_cli.cpp makes
// (same 16-S-box PRESENT rounds, key pattern, CPA + DoM(bit 0) + MTD attack
// set and default_checkpoints ladder):
//
//   live_attack         SABL-enhanced round simulated live into CPA, DoM
//                       and MTD on S-box 0, checkpointing every 32 shards
//                       (attack --checkpoint P --every 32)
//   record_corpus       static-CMOS round recorded as a v2 delta-codec
//                       corpus (record --codec delta)
//   replay_all_subkeys  a corpus of the same static-CMOS campaign, recorded
//                       untimed, replayed through replay_shared into 16
//                       CPA+DoM+MTD sets (attack --corpus --all-subkeys)
//   sampled_attack      time-resolved SABL-enhanced campaign into
//                       MultiCpaDistinguisher + SecondOrderCpaDistinguisher
//
// The load is closed-loop: one campaign in flight at a time, from this one
// process, on at most 4 worker threads. --seed picks the campaign seed
// (same seed, same traces). Calls are repeated for --seconds and each
// throughput is the median over its calls. peak_rss_mb is the median over
// fresh processes that each make one 4-thread call, like one campaign_cli
// invocation, so the benchmark's own reference runs never count.
//
// traces_per_s_1t is reported by the traced run, not with the end-to-end
// metrics: single-thread speed follows the host's turbo state, which on a
// shared machine drifts by up to a third over minutes -- more than any
// regression bound can absorb -- while 4-thread throughput drifts about
// half as much.
//
// Correctness gate: a 1-thread reference run (untimed, doubling as the
// warm-up) fixes the expected scores, MTD rank history, second-order
// scores and written bytes; every timed, traced and decomposed run is
// compared with it bit for bit, replay is compared with the live run of
// the same campaign, and a mismatch or exception counts as a failed
// operation whose time is never reported.
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
// metrics, recorded only from this file and traced.hpp:
//   (a) TracedDistinguisher wrappers inside the real engine call at the
//       run's thread count (make/accumulate/merge/finalize spans per
//       thread; engine.* metrics are derived from them);
//   (b) an outside 1-thread pass that repeats the workload's per-shard
//       work through the public functions at the campaign's resolved lane
//       width, timing each stage; its stage self-times divided by the
//       engine's 1-thread wall (interleaved 1-thread calls, which also give
//       traces_per_s_1t) give stages.coverage.
// Stages a workload does not execute read 0.
//
// Output: "# ..." lines for humans (a "# meta {...}" line carries the
// machine fingerprint), then one JSON result object as the last line.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/shard_reduce.hpp"
#include "engine/trace_engine.hpp"
#include "engine/worker_pool.hpp"
#include "io/campaign_state.hpp"
#include "io/codec.hpp"
#include "io/corpus.hpp"
#include "io/corpus_cache.hpp"
#include "io/replay.hpp"
#include "io/serial.hpp"
#include "switchsim/cycle_sim.hpp"
#include "traced.hpp"
#include "util/cpu_dispatch.hpp"

using namespace sable;
using perfbench::Clock;
using perfbench::Op;
using perfbench::seconds_between;
using perfbench::Span;
using perfbench::SpanLog;
using perfbench::TracedList;

namespace {

constexpr std::size_t kRoundSize = 16;
constexpr double kNoise = 2e-16;  // campaign_cli's --noise default
constexpr std::size_t kCheckpointEvery = 32;
constexpr int kSetupReps = 21;        // before timing
constexpr int kSetupRepsPerCall = 5;  // after every timed call
constexpr int kRssProbes = 3;
// Largest share of the 1-thread wall the outside stages may leave
// unexplained (or over-explain) before stages.coverage is flagged.
constexpr double kCoverageBound = 0.15;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"traces_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"traces_per_s_1t", "1/s"},
    {"core.synth_s", "s"},
    {"crypto.plaintext_ns", "ns/trace"},
    {"crypto.trace_batch_ns", "ns/trace"},
    {"crypto.trace_batch_sampled_ns", "ns/trace"},
    {"crypto.sub_words_ns", "ns/trace"},
    {"util.pack_lane_words_ns", "ns/trace"},
    {"dpa.cpa.accumulate_ns", "ns/trace"},
    {"dpa.dom.accumulate_ns", "ns/trace"},
    {"dpa.mtd.accumulate_ns", "ns/trace"},
    {"dpa.multi_cpa.accumulate_ns", "ns/trace"},
    {"dpa.second_order.accumulate_ns", "ns/trace"},
    {"dpa.make_accumulator_s", "s"},
    {"dpa.merge_s", "s"},
    {"dpa.finalize_s", "s"},
    {"engine.head_s", "s"},
    {"engine.tail_s", "s"},
    {"engine.idle_s", "s"},
    {"engine.worker_gap_s", "s"},
    {"engine.workers_seen", "count"},
    {"engine.shards", "count"},
    {"engine.stream_noop_s", "s"},
    {"io.encode_ns", "ns/trace"},
    {"io.append_shard_ns", "ns/trace"},
    {"io.finish_s", "s"},
    {"io.bytes_per_trace", "B/trace"},
    {"io.open_s", "s"},
    {"io.acquire_miss_ns", "ns/trace"},
    {"io.acquire_hit_ns", "ns/trace"},
    {"io.decode_count", "count"},
    {"io.checkpoint_save_s", "s"},
    {"io.checkpoint_load_s", "s"},
    {"io.checkpoint_bytes", "B"},
    {"stages.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

using Metrics = std::map<std::string, double>;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Per-key median over several runs' metric maps.
Metrics median_metrics(const std::vector<Metrics>& runs) {
  std::map<std::string, std::vector<double>> values;
  for (const Metrics& run : runs) {
    for (const auto& [name, value] : run) values[name].push_back(value);
  }
  Metrics out;
  for (const auto& [name, list] : values) out[name] = median(list);
  return out;
}

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---- output fingerprints ---------------------------------------------------

// Every result value of a run as exact bit patterns: two runs agree iff
// their fingerprints compare equal.
struct Fingerprint {
  std::vector<std::uint64_t> words;

  void add(std::uint64_t v) { words.push_back(v); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    words.push_back(bits);
  }
  void add(const std::vector<double>& v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (double x : v) add(x);
  }
  // A written file, by size and content hash.
  void add_file(const std::string& path) {
    const MappedFile file(path);
    std::uint64_t h = 0x5ab1e;
    const std::uint8_t* p = file.data();
    std::size_t n = file.size();
    for (; n >= 8; n -= 8, p += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, p, 8);
      h = mix64(h ^ w);
    }
    for (; n > 0; --n, ++p) h = mix64(h ^ *p);
    add(static_cast<std::uint64_t>(file.size()));
    add(h);
  }
  bool operator==(const Fingerprint&) const = default;

  std::uint64_t digest() const {
    std::uint64_t h = words.size();
    for (std::uint64_t w : words) h = mix64(h ^ w);
    return h;
  }
};

std::vector<std::size_t> cli_subkeys(std::size_t n) {
  std::vector<std::size_t> keys(n);
  for (std::size_t j = 0; j < n; ++j) keys[j] = (0x9 + 7 * j) & 0xF;
  return keys;
}

// campaign_cli's attack set: CPA + DoM (bit 0) + MTD on one instance.
struct AttackSet {
  CpaDistinguisher cpa;
  DomDistinguisher dom;
  MtdDistinguisher mtd;
  std::vector<Distinguisher*> list;

  AttackSet(const RoundSpec& round, std::size_t sbox, std::size_t subkey,
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

  void fingerprint(Fingerprint& fp) const {
    fp.add(cpa.result().score);
    fp.add(dom.result().score);
    const MtdResult& m = mtd.result();
    fp.add(static_cast<std::uint64_t>(m.disclosed));
    fp.add(static_cast<std::uint64_t>(m.mtd));
    for (const auto& [count, rank] : m.rank_history) {
      fp.add(static_cast<std::uint64_t>(count));
      fp.add(static_cast<std::uint64_t>(rank));
    }
  }
};

// attack --all-subkeys: one set per round instance.
struct AllSubkeySets {
  std::vector<std::unique_ptr<AttackSet>> sets;

  AllSubkeySets(const RoundSpec& round, const std::vector<std::uint8_t>& key,
                std::size_t num_traces) {
    for (std::size_t j = 0; j < round.num_sboxes(); ++j) {
      sets.push_back(std::make_unique<AttackSet>(
          round, j, round.sub_word(key.data(), j), num_traces));
    }
  }
  void fingerprint(Fingerprint& fp) const {
    for (const auto& set : sets) set->fingerprint(fp);
  }
};

// Time-resolved first- and second-order CPA on instance 0.
struct SampledSet {
  MultiCpaDistinguisher multi;
  SecondOrderCpaDistinguisher second;
  std::vector<Distinguisher*> list;

  SampledSet(const RoundSpec& round, std::size_t levels)
      : multi(round.sboxes[0],
              AttackSelector{.sbox_index = 0,
                             .model = PowerModel::kHammingWeight},
              levels),
        second(round.sboxes[0],
               AttackSelector{.sbox_index = 0,
                              .model = PowerModel::kHammingWeight}),
        list{&multi, &second} {}

  void fingerprint(Fingerprint& fp) const {
    fp.add(multi.result().combined.score);
    fp.add(static_cast<std::uint64_t>(multi.result().best_sample));
    fp.add(second.result().combined.score);
    fp.add(static_cast<std::uint64_t>(second.result().best_pair_first));
    fp.add(static_cast<std::uint64_t>(second.result().best_pair_second));
  }
};

// ---- outside-pass stage timing --------------------------------------------

// Self-times of the outside pass's stages, in seconds. Stages named in
// kReplicaStages re-run work another stage already contains (the lane
// packing inside trace_batch, the encoding inside append_shard) or that
// the timed call never does (loading a checkpoint); they are reported but
// kept out of stages.coverage.
struct Stages {
  std::map<std::string, double> seconds;

  template <typename F>
  void time(const std::string& name, F&& f) {
    const Clock::time_point t0 = Clock::now();
    f();
    seconds[name] += seconds_between(t0, Clock::now());
  }
};

const std::set<std::string> kReplicaStages = {
    "util.pack_lane_words", "io.encode", "io.checkpoint_load"};

// Calls fn(target) with a RoundTargetT<W> of `round` at lane width
// `width` — the width the engine resolves the campaign to.
template <typename Fn>
void with_target(const RoundSpec& round, const Technology& tech,
                 std::size_t width, Fn&& fn) {
  RoundTarget base(round, tech);
  switch (width) {
    case 64:
      fn(base);
      return;
    case 128: {
      auto target = base.with_lane_width<Word128>();
      fn(target);
      return;
    }
#if SABLE_HAVE_WORD256
    case 256: {
      auto target = base.with_lane_width<Word256>();
      fn(target);
      return;
    }
#endif
#if SABLE_HAVE_WORD512
    case 512: {
      auto target = base.with_lane_width<Word512>();
      fn(target);
      return;
    }
#endif
  }
  throw InvalidArgument("unsupported lane width " + std::to_string(width));
}

// The packing trace_batch does per lane group and instance (S-box inputs
// XOR subkey, transposed into lane words), re-run on its own so its share
// of trace_batch is visible. Every built-in round is nibble/byte aligned.
template <typename W>
void pack_replica(const RoundSpec& round, const std::uint8_t* pts,
                  std::size_t count, const std::uint8_t* key,
                  std::vector<W>& words) {
  constexpr std::size_t kLanes = LaneTraits<W>::kLanes;
  const std::size_t stride = round.state_bytes();
  for (std::size_t base = 0; base < count; base += kLanes) {
    const std::size_t lanes = std::min(kLanes, count - base);
    for (std::size_t i = 0; i < round.num_sboxes(); ++i) {
      const std::size_t offset = round.bit_offset(i);
      const std::size_t bits = round.sboxes[i].in_bits;
      const std::uint8_t subkey =
          static_cast<std::uint8_t>(round.sub_word(key, i));
      const std::uint8_t mask = static_cast<std::uint8_t>((1u << bits) - 1u);
      const std::uint8_t* bytes = pts + (offset >> 3);
      std::uint8_t xs[kLanes];
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        xs[lane] = static_cast<std::uint8_t>(
            ((bytes[(base + lane) * stride] >> (offset & 7)) & mask) ^ subkey);
      }
      words.resize(bits);
      pack_lane_words(xs, lanes, words);
    }
  }
}

// The engine's per-shard simulation, stage by stage: plaintexts from the
// shard's counter-derived stream, then fresh simulator state and the
// batched trace call, then the packing replica.
template <typename W>
void simulate_stages(RoundTargetT<W>& target, const CampaignOptions& options,
                     std::size_t shard, std::size_t count, bool sampled,
                     std::uint8_t* pts, double* data, std::vector<W>& words,
                     Stages& stages) {
  stages.time("crypto.plaintext", [&] {
    Rng pt_rng(campaign_shard_seed(options.seed, shard, 0));
    target.round().fill_random_states(pt_rng, count, pts);
  });
  stages.time(sampled ? "crypto.trace_batch_sampled" : "crypto.trace_batch",
              [&] {
                Rng noise_rng(campaign_shard_seed(options.seed, shard, 1));
                target.reset_state();
                if (sampled) {
                  target.trace_batch_sampled(pts, count, options.key.data(),
                                             options.noise_sigma, noise_rng,
                                             data);
                } else {
                  target.trace_batch(pts, count, options.key.data(),
                                     options.noise_sigma, noise_rng, data);
                }
              });
  stages.time("util.pack_lane_words", [&] {
    pack_replica(target.round(), pts, count, options.key.data(), words);
  });
}

// ---- span analysis ----------------------------------------------------------

double span_seconds(const std::vector<Span>& spans, Op op) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.op == op) total += seconds_between(s.t0, s.t1);
  }
  return total;
}

// Per-thread schedule of one traced call. Work spans are the shard-phase
// spans (make + accumulate, or the emitter's appends); the shard phase
// runs from the first work span to the last. head/tail are the call's
// time before/after it, idle the workers' time inside it before their
// first or after their last span, worker_gap the time between one
// worker's consecutive spans (simulation, corpus fetch, sub-words and
// scheduling — the engine work the wrapper cannot see).
Metrics engine_metrics(const std::vector<Span>& spans, Clock::time_point call0,
                       Clock::time_point call1) {
  struct Worker {
    Clock::time_point first = Clock::time_point::max();
    Clock::time_point last = Clock::time_point::min();
    double busy = 0.0;
  };
  std::map<std::thread::id, Worker> workers;
  Clock::time_point window0 = Clock::time_point::max();
  Clock::time_point window1 = Clock::time_point::min();
  double shards = 0.0;
  for (const Span& s : spans) {
    if (s.op != Op::kMake && s.op != Op::kAccumulate && s.op != Op::kAppend) {
      continue;
    }
    if ((s.op == Op::kAccumulate && s.dist == 0) || s.op == Op::kAppend) {
      shards += 1.0;
    }
    Worker& w = workers[s.thread];
    w.first = std::min(w.first, s.t0);
    w.last = std::max(w.last, s.t1);
    w.busy += seconds_between(s.t0, s.t1);
    window0 = std::min(window0, s.t0);
    window1 = std::max(window1, s.t1);
  }
  Metrics m;
  if (workers.empty()) return m;
  double idle = 0.0;
  double gap = 0.0;
  for (const auto& [id, w] : workers) {
    idle += seconds_between(window0, w.first) + seconds_between(w.last, window1);
    gap += seconds_between(w.first, w.last) - w.busy;
  }
  m["engine.head_s"] = seconds_between(call0, window0);
  m["engine.tail_s"] = seconds_between(window1, call1);
  m["engine.idle_s"] = idle;
  m["engine.worker_gap_s"] = gap;
  m["engine.workers_seen"] = static_cast<double>(workers.size());
  m["engine.shards"] = shards;
  m["dpa.make_accumulator_s"] = span_seconds(spans, Op::kMake);
  m["dpa.merge_s"] = span_seconds(spans, Op::kMerge);
  m["dpa.finalize_s"] = span_seconds(spans, Op::kFinalize);
  return m;
}

// ---- workloads --------------------------------------------------------------

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  bool check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("# FAIL %s\n", what.c_str());
    }
    return ok;
  }
};

// One traced engine call: wall seconds, its window and its spans.
struct TracedCall {
  double seconds = 0.0;
  Clock::time_point t0;
  Clock::time_point t1;
  std::vector<Span> spans;
};

// Result of the outside pass: stage self-times, wrapper spans, the output
// it produced, and per-layer values that are not stage times.
struct OutsidePass {
  Stages stages;
  std::vector<Span> spans;
  std::vector<std::string> dist_names;  // span dist index -> dpa layer
  Fingerprint output;
  Metrics extra;
};

class Workload {
 public:
  Workload(LogicStyle style, std::size_t num_traces, std::uint64_t seed,
           std::string work_dir)
      : round_(present_round(kRoundSize, style)),
        tech_(Technology::generic_180nm()),
        engine_(round_, tech_),
        work_dir_(std::move(work_dir)) {
    options_.num_traces = num_traces;
    options_.key = round_.pack_subkeys(cli_subkeys(kRoundSize));
    options_.noise_sigma = kNoise;
    options_.seed = seed;
  }
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Untimed preparation of the inputs the timed call reads.
  virtual void prepare(std::size_t /*threads*/) {}
  // The timed library call; returns its wall seconds, output in `out`.
  virtual double run(std::size_t threads, Fingerprint& out) = 0;
  // The same call with the timing wrappers (or a timed sink) in place.
  virtual TracedCall run_traced(std::size_t threads, Fingerprint& out) = 0;
  // Pass (b): the per-shard work through the public functions, 1 thread.
  virtual OutsidePass outside_pass() = 0;
  // Checks tying the reference run to other paths (replay vs live).
  virtual void check_reference(const Fingerprint& /*reference*/,
                               Tally& /*tally*/) {}
  // Extra traced-mode measurements (the no-op stream of record_corpus).
  virtual Metrics traced_extras(std::size_t /*threads*/) { return {}; }

  const CampaignOptions& options() const { return options_; }
  std::size_t lane_width() const {
    return campaign_lane_width(options_, round_.style);
  }
  CampaignManifest manifest() const {
    return engine_.campaign_manifest(options_);
  }

 protected:
  CampaignOptions with_threads(std::size_t threads) const {
    CampaignOptions o = options_;
    o.num_threads = threads;
    return o;
  }
  std::string path(const char* name) const { return work_dir_ + "/" + name; }
  std::size_t shard_count(const CampaignManifest& m, std::size_t s) const {
    return std::min<std::size_t>(m.shard_size, m.num_traces - s * m.shard_size);
  }

  RoundSpec round_;
  Technology tech_;
  TraceEngine engine_;
  CampaignOptions options_;
  std::string work_dir_;
};

ShardStates empty_states(std::size_t dists, std::size_t shards) {
  ShardStates states(dists);
  for (auto& row : states) row.resize(shards);
  return states;
}

// attack --checkpoint P --every 32 on a live SABL-enhanced round.
class LiveAttack final : public Workload {
 public:
  using Workload::Workload;

  double run(std::size_t threads, Fingerprint& out) override {
    AttackSet set(round_, 0, subkey(), options_.num_traces);
    const Clock::time_point t0 = Clock::now();
    engine_.run_distinguishers(with_threads(threads), set.list, persist());
    const double s = seconds_between(t0, Clock::now());
    set.fingerprint(out);
    out.add_file(path("live.ckpt"));
    return s;
  }

  TracedCall run_traced(std::size_t threads, Fingerprint& out) override {
    AttackSet set(round_, 0, subkey(), options_.num_traces);
    SpanLog log;
    TracedList traced(set.list, log);
    TracedCall call;
    call.t0 = Clock::now();
    engine_.run_distinguishers(with_threads(threads), traced.pointers,
                               persist());
    call.t1 = Clock::now();
    call.seconds = seconds_between(call.t0, call.t1);
    call.spans = log.take();
    set.fingerprint(out);
    out.add_file(path("live.ckpt"));
    return call;
  }

  OutsidePass outside_pass() override {
    OutsidePass pass;
    AttackSet set(round_, 0, subkey(), options_.num_traces);
    SpanLog log;
    TracedList traced(set.list, log);
    pass.dist_names = {"cpa", "dom", "mtd"};
    const CampaignManifest m = manifest();
    const std::size_t shards = m.num_shards;
    ShardStates states = empty_states(set.list.size(), shards);
    const std::string ckpt = path("live_pass.ckpt");
    with_target(round_, tech_, lane_width(), [&]<typename W>(
                                                 RoundTargetT<W>& target) {
      std::vector<std::uint8_t> pts(m.shard_size * round_.state_bytes());
      std::vector<double> samples(m.shard_size);
      std::vector<std::uint8_t> sub(m.shard_size);
      std::vector<W> words;
      for (std::size_t s = 0; s < shards; ++s) {
        const std::size_t count = shard_count(m, s);
        for (std::size_t d = 0; d < set.list.size(); ++d) {
          states[d][s] = traced.pointers[d]->make_shard_accumulator();
        }
        simulate_stages(target, options_, s, count, false, pts.data(),
                        samples.data(), words, pass.stages);
        pass.stages.time("crypto.sub_words", [&] {
          round_.sub_words(pts.data(), count, 0, sub.data());
        });
        for (std::size_t d = 0; d < set.list.size(); ++d) {
          states[d][s]->accumulate(ShardBlock{.start = s * m.shard_size,
                                              .sub_pts = sub.data(),
                                              .data = samples.data(),
                                              .count = count,
                                              .width = 1});
        }
        if ((s + 1) % kCheckpointEvery == 0 || s + 1 == shards) {
          pass.stages.time("io.checkpoint_save",
                           [&] { save_campaign_state(ckpt, m, states); });
        }
      }
    });
    WorkerPool pool;
    pass.stages.time("engine.reduce", [&] {
      reduce_and_finalize_distinguishers(traced.pointers, states, pool, 1);
    });
    ShardStates loaded = empty_states(set.list.size(), shards);
    pass.stages.time("io.checkpoint_load", [&] {
      load_campaign_state(ckpt, m, set.list, loaded);
    });
    pass.extra["io.checkpoint_bytes"] =
        static_cast<double>(std::filesystem::file_size(ckpt));
    pass.spans = log.take();
    set.fingerprint(pass.output);
    pass.output.add_file(ckpt);
    return pass;
  }

 private:
  std::size_t subkey() const { return round_.sub_word(options_.key.data(), 0); }
  CampaignPersistence persist() const {
    CampaignPersistence p;
    p.checkpoint_path = path("live.ckpt");
    p.checkpoint_every_shards = kCheckpointEvery;
    return p;
  }
};

// The corpus manifest engine.record writes for a scalar campaign.
CorpusManifest scalar_corpus_manifest(const CampaignManifest& campaign,
                                      const RoundSpec& round) {
  CorpusManifest cm;
  cm.campaign = campaign;
  cm.compression = kCorpusCompressionDeltaPlaneRle;
  cm.kind = kCorpusKindScalar;
  cm.pt_stride = round.state_bytes();
  cm.sample_width = 1;
  return cm;
}

// record --codec delta on a static-CMOS round.
class RecordCorpus final : public Workload {
 public:
  using Workload::Workload;

  double run(std::size_t threads, Fingerprint& out) override {
    const std::string file = path("record.sablcorp");
    const Clock::time_point t0 = Clock::now();
    engine_.record(with_threads(threads), TraceDataKind::kScalar, file);
    const double s = seconds_between(t0, Clock::now());
    out.add_file(file);
    return s;
  }

  // engine.record's exact composition — writer, stream, finish — with a
  // sink that records one span per appended shard on the emitter thread.
  TracedCall run_traced(std::size_t threads, Fingerprint& out) override {
    const std::string file = path("record.sablcorp");
    SpanLog log;
    TracedCall call;
    call.t0 = Clock::now();
    {
      CorpusWriter writer(file, scalar_corpus_manifest(manifest(), round_));
      std::size_t next = 0;
      engine_.stream(with_threads(threads),
                     [&](const std::uint8_t* pts, const double* samples,
                         std::size_t count) {
                       const Clock::time_point t0 = Clock::now();
                       writer.append_shard(pts, samples, count);
                       log.add(Op::kAppend, 0, next++, t0, Clock::now());
                     });
      writer.finish();
    }
    call.t1 = Clock::now();
    call.seconds = seconds_between(call.t0, call.t1);
    call.spans = log.take();
    out.add_file(file);
    return call;
  }

  OutsidePass outside_pass() override {
    OutsidePass pass;
    const CampaignManifest m = manifest();
    const std::string file = path("record_pass.sablcorp");
    const std::size_t stride = round_.state_bytes();
    std::optional<CorpusWriter> writer;
    pass.stages.time("io.writer_open", [&] {
      writer.emplace(file, scalar_corpus_manifest(m, round_));
    });
    with_target(round_, tech_, lane_width(), [&]<typename W>(
                                                 RoundTargetT<W>& target) {
      std::vector<std::uint8_t> pts(m.shard_size * stride);
      std::vector<double> samples(m.shard_size);
      std::vector<W> words;
      CodecScratch codec;
      std::vector<std::uint8_t> encoded;
      for (std::size_t s = 0; s < m.num_shards; ++s) {
        const std::size_t count = shard_count(m, s);
        simulate_stages(target, options_, s, count, false, pts.data(),
                        samples.data(), words, pass.stages);
        pass.stages.time("io.encode", [&] {
          encoded.clear();
          corpus_encode_plaintexts(pts.data(), count, stride, codec, encoded);
          corpus_encode_samples(samples.data(), count, 1, codec, encoded);
        });
        pass.stages.time("io.append_shard", [&] {
          writer->append_shard(pts.data(), samples.data(), count);
        });
      }
    });
    pass.stages.time("io.finish", [&] { writer->finish(); });
    pass.extra["io.bytes_per_trace"] =
        static_cast<double>(std::filesystem::file_size(file)) /
        static_cast<double>(m.num_traces);
    pass.output.add_file(file);
    return pass;
  }

  // The same campaign through stream() with an empty sink: the record
  // wall minus this is what the emitter's encode + write costs.
  Metrics traced_extras(std::size_t threads) override {
    const Clock::time_point t0 = Clock::now();
    engine_.stream(with_threads(threads),
                   [](const std::uint8_t*, const double*, std::size_t) {});
    return {{"engine.stream_noop_s", seconds_between(t0, Clock::now())}};
  }
};

// attack --corpus C --all-subkeys over a static-CMOS corpus recorded
// during (untimed) preparation.
class ReplayAllSubkeys final : public Workload {
 public:
  using Workload::Workload;

  void prepare(std::size_t threads) override {
    engine_.record(with_threads(threads), TraceDataKind::kScalar, corpus());
    // The live campaign with every set attached: replay must match it.
    AllSubkeySets live(round_, options_.key, options_.num_traces);
    std::vector<Distinguisher*> list;
    for (const auto& set : live.sets) {
      list.insert(list.end(), set->list.begin(), set->list.end());
    }
    engine_.run_distinguishers(with_threads(threads), list);
    live.fingerprint(live_);
  }

  void check_reference(const Fingerprint& reference, Tally& tally) override {
    tally.check(reference == live_,
                "replay_all_subkeys: replay differs from the live campaign");
  }

  double run(std::size_t threads, Fingerprint& out) override {
    AllSubkeySets sets(round_, options_.key, options_.num_traces);
    const std::vector<std::span<Distinguisher* const>> spans = spans_of(sets);
    const Clock::time_point t0 = Clock::now();
    {
      SharedCorpus shared(corpus());
      replay_shared(shared, round_, spans, threads);
    }
    const double s = seconds_between(t0, Clock::now());
    sets.fingerprint(out);
    return s;
  }

  TracedCall run_traced(std::size_t threads, Fingerprint& out) override {
    AllSubkeySets sets(round_, options_.key, options_.num_traces);
    SpanLog log;
    std::vector<std::unique_ptr<TracedList>> traced;
    std::vector<std::span<Distinguisher* const>> spans;
    for (const auto& set : sets.sets) {
      traced.push_back(std::make_unique<TracedList>(
          set->list, log, traced.size() * set->list.size()));
      spans.emplace_back(traced.back()->pointers);
    }
    TracedCall call;
    call.t0 = Clock::now();
    {
      SharedCorpus shared(corpus());
      replay_shared(shared, round_, spans, threads);
    }
    call.t1 = Clock::now();
    call.seconds = seconds_between(call.t0, call.t1);
    call.spans = log.take();
    sets.fingerprint(out);
    return call;
  }

  OutsidePass outside_pass() override {
    OutsidePass pass;
    AllSubkeySets sets(round_, options_.key, options_.num_traces);
    SpanLog log;
    std::optional<SharedCorpus> shared;
    pass.stages.time("io.open", [&] { shared.emplace(corpus()); });
    const CampaignManifest& m = shared->manifest().campaign;
    const std::size_t shards = m.num_shards;
    std::vector<std::uint8_t> sub(m.shard_size);
    WorkerPool pool;
    // replay_shared at one thread: each set streams every shard through
    // the cache in turn — set 0 decodes (misses), later sets hit.
    for (std::size_t k = 0; k < sets.sets.size(); ++k) {
      AttackSet& set = *sets.sets[k];
      TracedList traced(set.list, log, k * set.list.size());
      for (const char* name : {"cpa", "dom", "mtd"}) {
        pass.dist_names.push_back(name);
      }
      ShardStates states = empty_states(set.list.size(), shards);
      for (std::size_t s = 0; s < shards; ++s) {
        SharedCorpus::Lease lease;
        pass.stages.time(k == 0 ? "io.acquire_miss" : "io.acquire_hit",
                         [&] { lease = shared->acquire(s); });
        const CorpusShardView& view = lease.view();
        for (std::size_t d = 0; d < set.list.size(); ++d) {
          states[d][s] = traced.pointers[d]->make_shard_accumulator();
        }
        pass.stages.time("crypto.sub_words", [&] {
          round_.sub_words(view.pts, view.count, k, sub.data());
        });
        for (std::size_t d = 0; d < set.list.size(); ++d) {
          states[d][s]->accumulate(ShardBlock{.start = s * m.shard_size,
                                              .sub_pts = sub.data(),
                                              .data = view.samples,
                                              .count = view.count,
                                              .width = 1});
        }
      }
      pass.stages.time("engine.reduce", [&] {
        reduce_and_finalize_distinguishers(traced.pointers, states, pool, 1);
      });
    }
    pass.extra["io.decode_count"] =
        static_cast<double>(shared->decode_count());
    pass.extra["io.bytes_per_trace"] =
        static_cast<double>(std::filesystem::file_size(corpus())) /
        static_cast<double>(m.num_traces);
    pass.spans = log.take();
    sets.fingerprint(pass.output);
    return pass;
  }

 private:
  std::string corpus() const { return path("replay.sablcorp"); }
  static std::vector<std::span<Distinguisher* const>> spans_of(
      const AllSubkeySets& sets) {
    std::vector<std::span<Distinguisher* const>> spans;
    for (const auto& set : sets.sets) spans.emplace_back(set->list);
    return spans;
  }
  Fingerprint live_;
};

// Time-resolved MultiCpa + second-order CPA on a live SABL-enhanced round.
class SampledAttack final : public Workload {
 public:
  using Workload::Workload;

  double run(std::size_t threads, Fingerprint& out) override {
    SampledSet set(round_, levels());
    const Clock::time_point t0 = Clock::now();
    engine_.run_distinguishers(with_threads(threads), set.list);
    const double s = seconds_between(t0, Clock::now());
    set.fingerprint(out);
    return s;
  }

  TracedCall run_traced(std::size_t threads, Fingerprint& out) override {
    SampledSet set(round_, levels());
    SpanLog log;
    TracedList traced(set.list, log);
    TracedCall call;
    call.t0 = Clock::now();
    engine_.run_distinguishers(with_threads(threads), traced.pointers);
    call.t1 = Clock::now();
    call.seconds = seconds_between(call.t0, call.t1);
    call.spans = log.take();
    set.fingerprint(out);
    return call;
  }

  OutsidePass outside_pass() override {
    OutsidePass pass;
    SampledSet set(round_, levels());
    SpanLog log;
    TracedList traced(set.list, log);
    pass.dist_names = {"multi_cpa", "second_order"};
    const CampaignManifest m = manifest();
    ShardStates states = empty_states(set.list.size(), m.num_shards);
    const std::size_t width = levels();
    with_target(round_, tech_, lane_width(), [&]<typename W>(
                                                 RoundTargetT<W>& target) {
      std::vector<std::uint8_t> pts(m.shard_size * round_.state_bytes());
      std::vector<double> rows(m.shard_size * width);
      std::vector<std::uint8_t> sub(m.shard_size);
      std::vector<W> words;
      for (std::size_t s = 0; s < m.num_shards; ++s) {
        const std::size_t count = shard_count(m, s);
        for (std::size_t d = 0; d < set.list.size(); ++d) {
          states[d][s] = traced.pointers[d]->make_shard_accumulator();
        }
        simulate_stages(target, options_, s, count, true, pts.data(),
                        rows.data(), words, pass.stages);
        pass.stages.time("crypto.sub_words", [&] {
          round_.sub_words(pts.data(), count, 0, sub.data());
        });
        for (std::size_t d = 0; d < set.list.size(); ++d) {
          states[d][s]->accumulate(ShardBlock{.start = s * m.shard_size,
                                              .sub_pts = sub.data(),
                                              .data = rows.data(),
                                              .count = count,
                                              .width = width});
        }
      }
    });
    WorkerPool pool;
    pass.stages.time("engine.reduce", [&] {
      reduce_and_finalize_distinguishers(traced.pointers, states, pool, 1);
    });
    pass.spans = log.take();
    set.fingerprint(pass.output);
    return pass;
  }

 private:
  std::size_t levels() { return engine_.target().num_levels(); }
};

struct WorkloadSpec {
  const char* name;
  LogicStyle style;
  std::size_t num_traces;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"live_attack", LogicStyle::kSablEnhanced, 1u << 20},
    {"record_corpus", LogicStyle::kStaticCmos, 2u << 20},
    {"replay_all_subkeys", LogicStyle::kStaticCmos, 2u << 20},
    {"sampled_attack", LogicStyle::kSablEnhanced, 1u << 20},
};

std::unique_ptr<Workload> make_workload(const WorkloadSpec& spec,
                                        std::uint64_t seed,
                                        const std::string& work_dir) {
  const std::string name = spec.name;
  if (name == "live_attack") {
    return std::make_unique<LiveAttack>(spec.style, spec.num_traces, seed,
                                        work_dir);
  }
  if (name == "record_corpus") {
    return std::make_unique<RecordCorpus>(spec.style, spec.num_traces, seed,
                                          work_dir);
  }
  if (name == "replay_all_subkeys") {
    return std::make_unique<ReplayAllSubkeys>(spec.style, spec.num_traces,
                                              seed, work_dir);
  }
  return std::make_unique<SampledAttack>(spec.style, spec.num_traces, seed,
                                         work_dir);
}

// ---- measurement loop -------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string commit = "unknown";
  bool rss_probe = false;
};

// setup_s / core.synth_s: round synthesis plus engine construction, and
// synthesis alone. One repetition takes a fraction of a millisecond and
// its time depends on the allocator's state, which every campaign call
// changes; so repetitions run before timing and after every timed call,
// and each metric is the median of all of them.
struct SetupSampler {
  LogicStyle style;
  std::vector<double> setup;
  std::vector<double> synth;

  void sample(int reps) {
    const Technology tech = Technology::generic_180nm();
    for (int rep = 0; rep < reps; ++rep) {
      Clock::time_point t0 = Clock::now();
      {
        const RoundSpec round = present_round(kRoundSize, style);
        const TraceEngine engine(round, tech);
        setup.push_back(seconds_between(t0, Clock::now()));
      }
      t0 = Clock::now();
      {
        const RoundSpec round = present_round(kRoundSize, style);
        const RoundTarget target(round, tech);
        synth.push_back(seconds_between(t0, Clock::now()));
      }
    }
  }
};

// One checked call: its wall seconds when the output matches the
// reference, nothing when it differs or throws (a failed operation).
template <typename F>
std::optional<double> checked(Tally& tally, const Fingerprint& reference,
                              const std::string& what, F&& call) {
  try {
    Fingerprint out;
    const double s = call(out);
    if (tally.check(out == reference, what + ": output differs from the "
                                             "1-thread reference")) {
      return s;
    }
  } catch (const std::exception& e) {
    tally.check(false, what + ": " + e.what());
  }
  return std::nullopt;
}

// Runs `step(k)` for the kinds k of `shares`, always picking the kind
// furthest below its share of the time spent so far, until `seconds` have
// passed and every kind ran at least `min_reps` times. The kinds
// interleave, so all see the same background load; shares let slow calls
// (1 thread) collect a useful number of samples beside fast ones.
void balanced_loop(double seconds, const std::vector<double>& shares,
                   std::size_t min_reps,
                   const std::function<void(std::size_t)>& step) {
  std::vector<double> spent(shares.size(), 0.0);
  std::vector<std::size_t> reps(shares.size(), 0);
  const Clock::time_point start = Clock::now();
  for (;;) {
    const bool done_min =
        *std::min_element(reps.begin(), reps.end()) >= min_reps;
    if (done_min && seconds_between(start, Clock::now()) >= seconds) break;
    std::size_t k = 0;
    for (std::size_t j = 1; j < shares.size(); ++j) {
      if (spent[j] / shares[j] < spent[k] / shares[k]) k = j;
    }
    const Clock::time_point t0 = Clock::now();
    step(k);
    spent[k] += seconds_between(t0, Clock::now());
    ++reps[k];
  }
}

// Sample count and quartiles of one kind of timed call, for the log.
void print_reps(const std::string& what, std::vector<double> walls) {
  if (walls.empty()) return;
  std::sort(walls.begin(), walls.end());
  const auto at = [&](double q) {
    return walls[static_cast<std::size_t>(q * (walls.size() - 1) + 0.5)];
  };
  std::printf("# %s: n=%zu wall s min %.4f q1 %.4f median %.4f q3 %.4f "
              "max %.4f\n",
              what.c_str(), walls.size(), walls.front(), at(0.25),
              median(walls), at(0.75), walls.back());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_meta(const Args& args, const Workload& w, std::size_t threads,
                const Tally& tally) {
  const CampaignManifest m = w.manifest();
  const CpuFeatures& f = cpu_features();
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("g++ ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf(
      "# meta {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"threads\": %zu, \"nproc\": %u, \"dispatch_tier\": \"%s\", "
      "\"cpu_model\": \"%s\", \"cpu_flags\": {\"avx2\": %s, \"avx512f\": %s, "
      "\"avx512bw\": %s, \"avx512vbmi\": %s, \"gfni\": %s}, "
      "\"lane_width\": %zu, \"num_traces\": %llu, \"shard_size\": %llu, "
      "\"num_shards\": %llu, \"compiler\": \"%s\", \"git_commit\": \"%s\", "
      "\"loadavg\": [%.2f, %.2f, %.2f], "
      "\"warmup\": \"one untimed 1-thread reference call and one untimed "
      "%zu-thread call before timing; setup is the median of %d "
      "repetitions before timing and %d after every timed call\", \"page_cache\": \"warm: corpora and checkpoints are "
      "written and re-read within the run, never evicted\", "
      "\"failed_share\": %.6g}\n",
      json_escape(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0, threads,
      std::thread::hardware_concurrency(), to_string(active_tier()),
      json_escape(cpu_model()).c_str(), f.avx2 ? "true" : "false",
      f.avx512f ? "true" : "false", f.avx512bw ? "true" : "false",
      f.avx512vbmi ? "true" : "false", f.gfni ? "true" : "false",
      w.lane_width(), static_cast<unsigned long long>(m.num_traces),
      static_cast<unsigned long long>(m.shard_size),
      static_cast<unsigned long long>(m.num_shards),
      json_escape(compiler).c_str(), json_escape(args.commit).c_str(),
      load[0], load[1], load[2], threads, kSetupReps, kSetupRepsPerCall,
      tally.attempted ? static_cast<double>(tally.failed) / tally.attempted
                      : 0.0);
}

void print_result(const Tally& tally, const Metrics& values,
                  std::span<const MetricDef> defs) {
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    std::printf("# %-32s %16.6g %s\n", d.name,
                it == values.end() ? 0.0 : it->second, d.unit);
  }
  std::string line = "{\"correct\": ";
  line += tally.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<std::size_t>(
                                    tally.attempted, 1));
  line += ", \"failed\": " + std::to_string(tally.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    line += std::string(first ? "" : ", ") + "\"" + d.name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (char c : s) out += c == '\'' ? std::string("'\\''") : std::string(1, c);
  return out + "'";
}

// Runs this binary again in --rss-probe mode on the prepared inputs and
// returns the probe's peak RSS and output digest.
std::pair<double, std::uint64_t> probe_peak_rss(const Args& args) {
  const std::string self = std::filesystem::read_symlink("/proc/self/exe");
  const std::string cmd =
      shell_quote(self) + " --workload " + shell_quote(args.workload) +
      " --seed " + std::to_string(args.seed) + " --seconds 1 --trace 0" +
      " --work " + shell_quote(args.work_dir) + " --rss-probe 1";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) throw std::runtime_error("cannot start the probe");
  double mb = 0.0;
  unsigned long long digest = 0;
  const int fields = std::fscanf(pipe, "%lf %llu", &mb, &digest);
  if (pclose(pipe) != 0 || fields != 2) {
    throw std::runtime_error("the probe failed");
  }
  return {mb, digest};
}

// Per-layer values from the outside pass and the traced calls.
Metrics layer_metrics(const Workload& w, const OutsidePass& pass,
                      double wall_1t) {
  const double traces = static_cast<double>(w.options().num_traces);
  const auto per_trace = [&](double seconds) { return seconds / traces * 1e9; };
  Metrics m = pass.extra;
  double covered = 0.0;
  for (const auto& [stage, seconds] : pass.stages.seconds) {
    if (!kReplicaStages.count(stage)) covered += seconds;
  }
  for (const char* stage :
       {"crypto.plaintext", "crypto.trace_batch", "crypto.trace_batch_sampled",
        "crypto.sub_words", "util.pack_lane_words", "io.encode",
        "io.append_shard", "io.acquire_miss", "io.acquire_hit"}) {
    const auto it = pass.stages.seconds.find(stage);
    if (it != pass.stages.seconds.end()) {
      m[std::string(stage) + "_ns"] = per_trace(it->second);
    }
  }
  for (const char* stage :
       {"io.finish", "io.open", "io.checkpoint_save", "io.checkpoint_load"}) {
    const auto it = pass.stages.seconds.find(stage);
    if (it != pass.stages.seconds.end()) {
      m[std::string(stage) + "_s"] = it->second;
    }
  }
  // The wrapper's spans in the outside pass: make + accumulate are
  // stages of their own; merge + finalize already sit inside the timed
  // reduce call.
  std::map<std::string, double> accumulate;
  for (const Span& s : pass.spans) {
    const double d = seconds_between(s.t0, s.t1);
    if (s.op == Op::kAccumulate) {
      accumulate[pass.dist_names.at(s.dist)] += d;
      covered += d;
    } else if (s.op == Op::kMake) {
      covered += d;
    }
  }
  for (const auto& [name, seconds] : accumulate) {
    m["dpa." + name + ".accumulate_ns"] = per_trace(seconds);
  }
  m["stages.coverage"] = wall_1t > 0 ? covered / wall_1t : 0.0;
  return m;
}

int run_benchmark(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : kWorkloads) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown --workload %s\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  const std::size_t threads = std::min<std::size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));
  if (args.rss_probe) {
    // A fresh process making one call, like one campaign_cli invocation:
    // its peak RSS is the workload's, free of this benchmark's own runs.
    const std::unique_ptr<Workload> w =
        make_workload(*spec, mix64(args.seed), args.work_dir);
    Fingerprint out;
    w->run(threads, out);
    std::printf("%.17g %llu\n", peak_rss_mb(),
                static_cast<unsigned long long>(out.digest()));
    return 0;
  }

  Tally tally;
  Metrics values;
  SetupSampler setup{spec->style, {}, {}};
  setup.sample(kSetupReps);
  std::unique_ptr<Workload> w =
      make_workload(*spec, mix64(args.seed), args.work_dir);

  Fingerprint reference;
  bool have_reference = false;
  try {
    w->prepare(threads);
    have_reference = tally.check(w->run(1, reference) > 0, "reference run");
    w->check_reference(reference, tally);
  } catch (const std::exception& e) {
    tally.check(false, std::string("reference: ") + e.what());
  }

  const double traces = static_cast<double>(w->options().num_traces);
  if (have_reference) {
    // Warm-up: the first multi-threaded call pays thread creation and
    // first-touch page faults; it is checked but not timed.
    checked(tally, reference, "warm-up", [&](Fingerprint& out) {
      return w->run(threads, out);
    });
    if (!args.trace) {
      std::vector<double> wall_nt;
      balanced_loop(args.seconds, {1.0}, 3, [&](std::size_t) {
        const auto s =
            checked(tally, reference, "timed run",
                    [&](Fingerprint& out) { return w->run(threads, out); });
        if (s) wall_nt.push_back(*s);
        setup.sample(kSetupRepsPerCall);
      });
      print_reps("calls at " + std::to_string(threads) + " threads", wall_nt);
      values["traces_per_s"] =
          wall_nt.empty() ? 0.0 : traces / median(wall_nt);
      values["setup_s"] = median(setup.setup);
    } else {
      // Untraced and traced calls (trace.overhead compares them) interleave
      // with pairs of a 1-thread call and an outside pass: each pass is
      // held against the 1-thread wall measured right before it, so the
      // coverage ratio compares like machine conditions.
      std::vector<double> wall_plain;
      std::vector<double> wall_traced;
      std::vector<double> wall_1t;
      std::vector<Metrics> traced_runs;
      std::vector<Metrics> extras;
      std::vector<Metrics> passes;
      balanced_loop(args.seconds, {1.0, 1.0, 3.0}, 2, [&](std::size_t kind) {
        setup.sample(kSetupRepsPerCall);
        if (kind == 0) {
          const auto s =
              checked(tally, reference, "untraced run",
                      [&](Fingerprint& out) { return w->run(threads, out); });
          if (s) wall_plain.push_back(*s);
        } else if (kind == 1) {
          TracedCall call;
          const auto s = checked(tally, reference, "traced run",
                                 [&](Fingerprint& out) {
                                   call = w->run_traced(threads, out);
                                   return call.seconds;
                                 });
          if (s) {
            wall_traced.push_back(*s);
            traced_runs.push_back(engine_metrics(call.spans, call.t0, call.t1));
          }
        } else {
          const auto s = checked(tally, reference, "1-thread run",
                                 [&](Fingerprint& out) { return w->run(1, out); });
          if (!s) return;
          wall_1t.push_back(*s);
          try {
            const OutsidePass pass = w->outside_pass();
            if (tally.check(pass.output == reference,
                            "outside pass: decomposition differs from the "
                            "engine's result")) {
              passes.push_back(layer_metrics(*w, pass, *s));
            }
          } catch (const std::exception& e) {
            tally.check(false, std::string("outside pass: ") + e.what());
          }
          const Metrics extra = w->traced_extras(threads);
          if (!extra.empty()) extras.push_back(extra);
        }
      });
      values = median_metrics(passes);
      for (const auto& [k, v] : median_metrics(traced_runs)) values[k] = v;
      for (const auto& [k, v] : median_metrics(extras)) values[k] = v;
      print_reps("calls at 1 thread", wall_1t);
      values["traces_per_s_1t"] =
          wall_1t.empty() ? 0.0 : traces / median(wall_1t);
      values["core.synth_s"] = median(setup.synth);
      values["trace.overhead"] =
          wall_plain.empty() || wall_traced.empty()
              ? 0.0
              : median(wall_traced) / median(wall_plain) - 1.0;
      const bool coverage_ok =
          std::abs(1.0 - values["stages.coverage"]) <= kCoverageBound;
      std::printf("# stages.coverage %.3f (median over %zu passes)%s\n",
                  values["stages.coverage"], passes.size(),
                  coverage_ok ? "" : "  FLAG: outside 1 +- bound");
    }
  }
  if (have_reference && !args.trace) {
    std::vector<double> rss;
    for (int probe = 0; probe < kRssProbes; ++probe) {
      try {
        const auto [mb, digest] = probe_peak_rss(args);
        if (tally.check(digest == reference.digest(),
                        "rss probe: output differs from the reference")) {
          rss.push_back(mb);
        }
      } catch (const std::exception& e) {
        tally.check(false, std::string("rss probe: ") + e.what());
      }
    }
    values["peak_rss_mb"] = median(rss);
  }
  print_meta(args, *w, threads, tally);
  if (args.trace) {
    print_result(tally, values, kPerLayer);
  } else {
    print_result(tally, values, kEndToEnd);
  }
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--work DIR [--commit SHA]\n"
               "workloads: live_attack record_corpus replay_all_subkeys "
               "sampled_attack\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 0);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--work") {
      args.work_dir = value;
    } else if (flag == "--rss-probe") {
      args.rss_probe = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      return usage(argv[0]);
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      std::fprintf(stderr, "malformed value for %s: %s\n", flag.c_str(), value);
      return 2;
    }
  }
  if (args.workload.empty() || args.work_dir.empty() || args.seconds <= 0) {
    return usage(argv[0]);
  }
  try {
    return run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
}
