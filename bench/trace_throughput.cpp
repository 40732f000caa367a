// Trace-generation throughput: scalar one-at-a-time simulation (the
// width-1 circuit simulators) vs. the trace engine — which reads leakage
// tables built by the bit-parallel simulators — on one thread vs. the
// thread-sharded engine on all cores, on the paper's PRESENT S-box target.
//
// The engine exists because MTD curves need 10^5–10^7 traces; this bench
// reports traces/sec for all three paths and the speedups (acceptance:
// batched >= 10x scalar on one thread), plus the end-to-end rate of a
// fully streaming one-pass CPA campaign. Besides the table it writes
// BENCH_trace_throughput.json so the perf trajectory is machine-readable
// across PRs.
//
// `--round N` also sweeps multi-S-box round targets (1, 2, 4, … up to N
// PRESENT instances side by side) and reports traces/sec per instance
// count — the cost of realistic algorithmic noise. All tables land in
// the JSON.
//
// A pack_transpose table times the 64x64 bit-transpose lane packing
// against the historic per-bit gather at every lane width the runtime
// dispatcher (util/cpu_dispatch.hpp) allows on this machine, and the
// JSON records which dispatch tier (portable / avx2 / avx512) the run
// used.
//
// A multi_attack row times the distinguisher pipeline's one-pass
// multi-subkey campaign (all 16 subkeys of a 16-S-box PRESENT round from
// one simulation) against 16 re-simulated campaigns — expected >= 8x,
// advisory only (the exit code stays pinned to the >=10x gate).
//
// The replay row compares compressed (v2) and raw corpus replay against
// live simulation and reports corpus_bytes_per_trace, the compression
// ratio and the decode cost (compressed vs raw replay tps, expect
// >= 0.7x). A compression table records the raw-vs-compressed v2 file
// sizes of the sampled noiseless all-styles campaign (expect >= 3x
// total).
//
// An accumulation table times the block-factored distinguisher path
// (dpa/block_stats.hpp) for CPA/DoM/MultiCpa in traces/s.
//
// Usage: bench_trace_throughput [--threads N] [--threads-sweep]
//                               [--traces N] [--round N] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cell/circuit_sim.hpp"
#include "cell/wddl.hpp"
#include "crypto/sboxes.hpp"
#include "crypto/target.hpp"
#include "dpa/streaming.hpp"
#include "engine/trace_engine.hpp"
#include "io/corpus.hpp"
#include "switchsim/cycle_sim.hpp"
#include "util/cpu_dispatch.hpp"
#include "util/rng.hpp"

using namespace sable;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Throughput {
  const char* style = nullptr;
  double scalar_tps = 0.0;
  double batched_1t_tps = 0.0;
  double batched_nt_tps = 0.0;
  double checksum = 0.0;  // keeps the optimizer honest
};

double engine_tps(TraceEngine& engine, std::size_t num_traces,
                  std::size_t threads, double* checksum) {
  CampaignOptions options;
  options.num_traces = num_traces;
  options.key = {0xB};
  options.seed = 0xBE7C;
  options.num_threads = threads;
  double sum = 0.0;
  const auto start = Clock::now();
  engine.stream(options, [&](const std::uint8_t*, const double* samples,
                             std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) sum += samples[i];
  });
  *checksum += sum;
  return static_cast<double>(num_traces) / seconds_since(start);
}

Throughput measure_style(LogicStyle style, std::size_t num_traces,
                         std::size_t threads) {
  const Technology tech = Technology::generic_180nm();
  const SboxSpec spec = present_spec();
  const std::uint8_t key = 0xB;
  Throughput result;
  result.style = to_string(style);

  {
    // The width-1 scalar simulators, one encryption per cycle call: the
    // one-at-a-time simulation the engine's leakage tables replace.
    const SboxTarget target(spec, style, tech);
    Rng rng(0xBE7C);
    double sum = 0.0;
    const auto run = [&](auto& sim) {
      const auto start = Clock::now();
      for (std::size_t i = 0; i < num_traces; ++i) {
        const auto pt = static_cast<std::uint8_t>(rng.below(16));
        sum += sim.cycle(pt ^ key).energy;
      }
      result.scalar_tps =
          static_cast<double>(num_traces) / seconds_since(start);
    };
    if (style == LogicStyle::kStaticCmos) {
      CmosCircuitSim sim(target.circuit(), 5e-15 * tech.vdd * tech.vdd);
      run(sim);
    } else if (style == LogicStyle::kWddlBalanced) {
      WddlCircuitSim sim(target.circuit(), tech, 0.0);
      run(sim);
    } else {
      DifferentialCircuitSim sim(target.circuit());
      run(sim);
    }
    result.checksum += sum;
  }

  TraceEngine engine(spec, style, tech);
  result.batched_1t_tps = engine_tps(engine, num_traces, 1, &result.checksum);
  result.batched_nt_tps =
      engine_tps(engine, num_traces, threads, &result.checksum);
  return result;
}

struct PackBench {
  std::size_t width = 0;
  double gather_mlps = 0.0;     // mega-lanes/sec through the per-bit gather
  double transpose_mlps = 0.0;  // same work through the bit transpose
  double speedup = 0.0;
};

// Times one full-word pack of kVars=8 variables (the S-box hot-path
// shape) through the transpose against the per-bit gather reference.
// Both are extern library calls, so the loop cannot be folded away; a
// chunk checksum keeps the results observed.
template <typename W>
PackBench measure_pack_width() {
  using T = LaneTraits<W>;
  constexpr std::size_t kVars = 8;
  PackBench bench;
  bench.width = T::kLanes;
  std::vector<std::uint64_t> assignments(T::kLanes);
  Rng rng(0x9AC7);
  for (auto& a : assignments) a = rng.next();
  std::vector<W> words(kVars);
  std::uint64_t checksum = 0;
  auto run = [&](auto&& pack) {
    // Warm up, then time batches until the clock has enough signal.
    for (int i = 0; i < 100; ++i) pack();
    std::size_t reps = 0;
    const auto start = Clock::now();
    double elapsed = 0.0;
    while (elapsed < 0.2) {
      for (int i = 0; i < 2000; ++i) pack();
      reps += 2000;
      elapsed = seconds_since(start);
    }
    std::uint64_t chunks[T::kChunks];
    lane_chunks(words[0], chunks);
    checksum ^= chunks[0];
    return static_cast<double>(reps) * static_cast<double>(T::kLanes) /
           elapsed / 1e6;
  };
  bench.gather_mlps = run([&] {
    pack_lane_words_gather(assignments.data(), T::kLanes, words);
  });
  bench.transpose_mlps =
      run([&] { pack_lane_words(assignments.data(), T::kLanes, words); });
  bench.speedup = bench.transpose_mlps / bench.gather_mlps;
  if (checksum == ~std::uint64_t{0}) std::fprintf(stderr, "checksum\n");
  return bench;
}

// One pack_transpose row per width the runtime dispatcher allows here.
std::vector<PackBench> measure_pack_sweep() {
  std::vector<PackBench> rows;
  for (std::size_t width : runtime_lane_widths()) {
    switch (width) {
      case 64:
        rows.push_back(measure_pack_width<std::uint64_t>());
        break;
      case 128:
        rows.push_back(measure_pack_width<Word128>());
        break;
#if SABLE_HAVE_WORD256
      case 256:
        rows.push_back(measure_pack_width<Word256>());
        break;
#endif
#if SABLE_HAVE_WORD512
      case 512:
        rows.push_back(measure_pack_width<Word512>());
        break;
#endif
      default:
        break;
    }
  }
  return rows;
}

struct ThreadSweepRow {
  const char* style = nullptr;
  std::size_t threads = 0;
  double tps = 0.0;
  double speedup_vs_1t = 0.0;
};

// Thread-scaling sweep (--threads-sweep): per style, streamed campaign
// throughput at 1, 2, 4 and N threads. Campaigns are bit-identical for any thread count, so the ratios
// isolate the scheduler: with the persistent worker pool and the shard
// autotuner, speedup_vs_1t at 4 threads should clear ~2x on the
// simulation-bound SABL styles whenever the machine actually has 4
// cores. The JSON records the core count next to the table — on fewer
// cores than the sweep point, the ratio measures oversubscription, not
// scaling, and the advisory check skips.
std::vector<ThreadSweepRow> measure_threads_sweep(
    const std::vector<std::size_t>& counts, std::size_t num_traces) {
  std::vector<ThreadSweepRow> rows;
  const Technology tech = Technology::generic_180nm();
  const SboxSpec spec = present_spec();
  for (LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablGenuine,
        LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
        LogicStyle::kWddlBalanced}) {
    TraceEngine engine(spec, style, tech);
    double checksum = 0.0;
    double tps1 = 0.0;
    for (std::size_t threads : counts) {
      const double tps = engine_tps(engine, num_traces, threads, &checksum);
      if (threads == 1) tps1 = tps;
      rows.push_back({to_string(style), threads, tps,
                      tps1 > 0.0 ? tps / tps1 : 0.0});
    }
    if (checksum == 0.0) std::fprintf(stderr, "unexpected zero checksum\n");
  }
  return rows;
}

struct RoundThroughput {
  std::size_t num_sboxes = 0;
  double tps = 0.0;
};

struct MultiAttackBench {
  std::size_t num_sboxes = 0;
  std::size_t num_traces = 0;
  double one_pass_seconds = 0.0;
  double independent_seconds = 0.0;
  double speedup = 0.0;
  bool all_recovered = false;
};

// One-pass multi-subkey campaigns: every subkey of a 16-S-box PRESENT
// round attacked from ONE simulated campaign (16 CpaDistinguishers
// sharing the stream through the distinguisher pipeline) vs. 16
// re-simulated single-selector campaigns. Simulation dominates at the
// engine's per-trace budget, so the one-pass path is expected >= 8x
// faster (~16x ideal); reported here and in the JSON, while the binary
// acceptance gate stays the single-attack table above.
MultiAttackBench measure_multi_attack(std::size_t threads) {
  const Technology tech = Technology::generic_180nm();
  MultiAttackBench bench;
  bench.num_sboxes = 16;
  bench.num_traces = 20000;
  const RoundSpec round =
      present_round(bench.num_sboxes, LogicStyle::kStaticCmos);
  TraceEngine engine(round, tech);
  CampaignOptions options;
  options.num_traces = bench.num_traces;
  std::vector<std::size_t> subkeys(bench.num_sboxes);
  for (std::size_t j = 0; j < subkeys.size(); ++j) {
    subkeys[j] = (0x3 + 7 * j) & 0xF;
  }
  options.key = round.pack_subkeys(subkeys);
  options.noise_sigma = 2e-16;
  options.seed = 0xBE7C;
  options.num_threads = threads;

  const auto selector = [](std::size_t j) {
    return AttackSelector{.sbox_index = j, .model = PowerModel::kHammingWeight};
  };
  auto start = Clock::now();
  std::vector<CpaDistinguisher> one_pass;
  std::vector<Distinguisher*> list;
  for (std::size_t j = 0; j < bench.num_sboxes; ++j) {
    one_pass.emplace_back(engine.spec(j), selector(j));
  }
  for (CpaDistinguisher& attack : one_pass) list.push_back(&attack);
  engine.run_distinguishers(options, list);
  bench.one_pass_seconds = seconds_since(start);

  start = Clock::now();
  std::vector<AttackResult> independent;
  for (std::size_t j = 0; j < bench.num_sboxes; ++j) {
    independent.push_back(run_attack(
        engine, options, CpaDistinguisher(engine.spec(j), selector(j))));
  }
  bench.independent_seconds = seconds_since(start);
  bench.speedup = bench.independent_seconds / bench.one_pass_seconds;

  bench.all_recovered = true;
  for (std::size_t j = 0; j < bench.num_sboxes; ++j) {
    if (one_pass[j].result().best_guess != subkeys[j] ||
        independent[j].best_guess != subkeys[j]) {
      bench.all_recovered = false;
    }
  }
  return bench;
}

struct ReplayBench {
  std::size_t num_traces = 0;
  double record_tps = 0.0;        // simulate + encode + write v2 corpus
  double replay_tps = 0.0;        // attack from the compressed corpus
  double raw_replay_tps = 0.0;    // attack from the uncompressed corpus
  double simulate_tps = 0.0;      // attack from a live simulated stream
  double speedup = 0.0;           // compressed replay vs simulate
  double decode_vs_raw = 0.0;     // compressed vs raw replay tps
  double corpus_bytes_per_trace = 0.0;  // compressed file bytes per trace
  double compression_ratio = 0.0;       // raw file bytes / compressed
  bool bit_identical = false;
};

std::uint64_t file_size(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return 0;
  std::fseek(f, 0, SEEK_END);
  const long n = std::ftell(f);
  std::fclose(f);
  return n < 0 ? 0 : static_cast<std::uint64_t>(n);
}

// Recorded-campaign replay: a CPA campaign fed from an on-disk corpus —
// compressed v2 chunks decoded through per-thread scratch, and the same
// campaign as raw mmap'd chunks — against the campaign simulated live.
// Replay skips the circuit simulation entirely, so both are expected to
// be much faster; decode_vs_raw isolates what the codec costs on the
// read side (acceptance: >= 0.7x, the I/O savings must not be eaten by
// decode). The corpora are written and removed here.
ReplayBench measure_replay(std::size_t threads) {
  const Technology tech = Technology::generic_180nm();
  ReplayBench bench;
  bench.num_traces = 200000;
  const std::string path = "bench_replay.corpus";
  const std::string raw_path = "bench_replay_raw.corpus";
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, tech);
  CampaignOptions options;
  options.num_traces = bench.num_traces;
  options.key = {0xB};
  options.noise_sigma = 2e-16;
  options.seed = 0xBE7C;
  options.num_threads = threads;
  const AttackSelector selector{.model = PowerModel::kHammingWeight};

  auto start = Clock::now();
  engine.record(options, TraceDataKind::kScalar, path);
  bench.record_tps =
      static_cast<double>(bench.num_traces) / seconds_since(start);
  engine.record(options, TraceDataKind::kScalar, raw_path,
                kCorpusCompressionNone);
  bench.corpus_bytes_per_trace = static_cast<double>(file_size(path)) /
                                 static_cast<double>(bench.num_traces);
  bench.compression_ratio = static_cast<double>(file_size(raw_path)) /
                            static_cast<double>(file_size(path));

  CpaDistinguisher simulated(engine.spec(), selector);
  {
    Distinguisher* const list[] = {&simulated};
    start = Clock::now();
    engine.run_distinguishers(options, list);
    bench.simulate_tps =
        static_cast<double>(bench.num_traces) / seconds_since(start);
  }
  // Best-of-3 for both replay variants: a single-shot replay timing is
  // dominated by first-use effects (page-cache faults on the fresh
  // mapping, thread-pool spin-up), which would bias whichever corpus is
  // replayed first.
  bool identical = true;
  const auto best_replay_tps = [&](const std::string& corpus_path) {
    const CorpusReader corpus(corpus_path);
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      CpaDistinguisher replayed(engine.spec(), selector);
      Distinguisher* const list[] = {&replayed};
      const auto rep_start = Clock::now();
      engine.replay(corpus, list, {}, threads);
      best = std::max(best, static_cast<double>(bench.num_traces) /
                                seconds_since(rep_start));
      identical =
          identical && replayed.result().score == simulated.result().score;
    }
    return best;
  };
  bench.replay_tps = best_replay_tps(path);
  bench.raw_replay_tps = best_replay_tps(raw_path);
  bench.speedup = bench.replay_tps / bench.simulate_tps;
  bench.decode_vs_raw = bench.replay_tps / bench.raw_replay_tps;
  bench.bit_identical = identical;
  std::remove(path.c_str());
  std::remove(raw_path.c_str());
  return bench;
}

struct CompressionRow {
  const char* style = nullptr;
  std::uint64_t raw_bytes = 0;
  std::uint64_t v2_bytes = 0;
  double ratio = 0.0;
};

// The default compression campaign: cycle-sampled corpora of every logic
// style, recorded WITHOUT measurement noise — the regime the codec is
// built for (noise randomizes the low mantissa bits and is
// information-theoretically incompressible; the replay row above reports
// that worst case). Constant-power styles collapse to a per-level
// dictionary of a handful of values; the data-dependent styles still
// draw each level from a small discrete set of switching-energy sums.
std::vector<CompressionRow> measure_compression(std::size_t num_traces,
                                                std::size_t threads) {
  const Technology tech = Technology::generic_180nm();
  std::vector<CompressionRow> rows;
  const std::string raw = "bench_compress_raw.corpus";
  const std::string v2 = "bench_compress_v2.corpus";
  for (LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablGenuine,
        LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
        LogicStyle::kWddlBalanced, LogicStyle::kWddlMismatched}) {
    TraceEngine engine(present_spec(), style, tech);
    CampaignOptions options;
    options.num_traces = num_traces;
    options.key = {0xB};
    options.noise_sigma = 0.0;
    options.seed = 0xBE7C;
    options.num_threads = threads;
    engine.record(options, TraceDataKind::kSampled, raw,
                  kCorpusCompressionNone);
    engine.record(options, TraceDataKind::kSampled, v2);
    CompressionRow row;
    row.style = to_string(style);
    row.raw_bytes = file_size(raw);
    row.v2_bytes = file_size(v2);
    row.ratio = static_cast<double>(row.raw_bytes) /
                static_cast<double>(row.v2_bytes);
    rows.push_back(row);
  }
  std::remove(raw.c_str());
  std::remove(v2.c_str());
  return rows;
}

// Streamed-campaign throughput of an N-instance PRESENT round: every
// instance is simulated per trace, so traces/sec is expected to fall
// roughly as 1/N while traces·instances/sec stays flat.
std::vector<RoundThroughput> measure_round_scaling(std::size_t max_round,
                                                   std::size_t num_traces,
                                                   std::size_t threads) {
  const Technology tech = Technology::generic_180nm();
  std::vector<std::size_t> counts;
  for (std::size_t n = 1; n < max_round; n *= 2) counts.push_back(n);
  counts.push_back(max_round);
  std::vector<RoundThroughput> rows;
  for (std::size_t n : counts) {
    const RoundSpec round = present_round(n, LogicStyle::kStaticCmos);
    TraceEngine engine(round, tech);
    CampaignOptions options;
    options.num_traces = num_traces;
    options.key.assign(round.state_bytes(), 0x5A);
    options.seed = 0xBE7C;
    options.num_threads = threads;
    double sum = 0.0;
    const auto start = Clock::now();
    engine.stream(options, [&](const std::uint8_t*, const double* samples,
                               std::size_t count) {
      for (std::size_t i = 0; i < count; ++i) sum += samples[i];
    });
    const double seconds = seconds_since(start);
    rows.push_back({n, static_cast<double>(num_traces) / seconds});
    if (sum == 0.0) std::fprintf(stderr, "unexpected zero checksum\n");
  }
  return rows;
}

// Distinguisher accumulation: the block-factored sufficient-statistics
// path (add_block: per-plaintext histogram + one contraction per block)
// on synthetic traces, so nothing but the accumulator is on the clock.
// Blocks are engine-shard-sized. One thread — accumulation is per-shard
// sequential inside the engine. Informational only; the exit code stays
// pinned to the >=10x engine gate.
struct AccumulationRow {
  const char* kind = nullptr;
  std::size_t num_traces = 0;
  double block_tps = 0.0;
};

// Repeats fn (one full pass over `count` traces through a fresh
// accumulator) until the clock has something to measure.
template <typename Fn>
double accumulation_tps(std::size_t count, const Fn& fn) {
  std::size_t reps = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) fn();
    const double seconds = seconds_since(start);
    if (seconds >= 0.2 || reps >= 256) {
      return static_cast<double>(count) * static_cast<double>(reps) / seconds;
    }
    reps *= 4;
  }
}

std::vector<AccumulationRow> measure_accumulation() {
  // Block size = what the engine would actually shard this campaign
  // into (the autotune rule — a pure function of the trace count), so
  // the histogram/contraction amortization matches production blocks.
  const auto shard_of = [](std::size_t count) {
    CampaignOptions options;
    options.num_traces = count;
    return campaign_shard_size(options);
  };
  const auto make_traces = [](std::size_t count, std::size_t num_pts,
                              std::size_t width,
                              std::vector<std::uint8_t>* pts,
                              std::vector<double>* rows) {
    Rng rng(0xACC);
    pts->resize(count);
    rows->resize(count * width);
    for (std::size_t i = 0; i < count; ++i) {
      (*pts)[i] = static_cast<std::uint8_t>(rng.below(num_pts));
      for (std::size_t l = 0; l < width; ++l) {
        (*rows)[i * width + l] = 1e-13 + 1e-15 * rng.uniform();
      }
    }
  };

  std::vector<AccumulationRow> out;
  std::vector<std::uint8_t> pts;
  std::vector<double> samples;
  // One row: `make` builds a fresh accumulator per pass, fed one
  // add_block call per engine-shard-sized block of `width`-sample rows.
  const auto row = [&](const char* kind, std::size_t num_pts,
                       std::size_t width, std::size_t count,
                       const auto& make) {
    make_traces(count, num_pts, width, &pts, &samples);
    const std::size_t block = shard_of(count);
    const double tps = accumulation_tps(count, [&] {
      auto acc = make();
      for (std::size_t off = 0; off < count; off += block) {
        acc.add_block(pts.data() + off, samples.data() + off * width,
                      std::min(block, count - off));
      }
    });
    out.push_back({kind, count, tps});
  };
  row("cpa_4bit", 16, 1, 2000000, [] {
    return StreamingCpa(present_spec(), PowerModel::kHammingWeight);
  });
  row("cpa_8bit", 256, 1, 400000, [] {
    return StreamingCpa(aes_spec(), PowerModel::kHammingWeight);
  });
  row("dom_4bit", 16, 1, 2000000,
      [] { return StreamingDom(present_spec(), 0); });
  row("multi_cpa_4bit_w8", 16, 8, 250000, [] {
    return StreamingMultiCpa(present_spec(), PowerModel::kHammingWeight, 8);
  });
  return out;
}

void write_json(const std::string& path, std::size_t num_traces,
                std::size_t threads, const std::vector<Throughput>& rows,
                const std::vector<PackBench>& pack_rows,
                const std::vector<ThreadSweepRow>& sweep_rows,
                const std::vector<RoundThroughput>& round_rows,
                const MultiAttackBench& multi, const ReplayBench& replay,
                const std::vector<CompressionRow>& compression_rows,
                std::size_t compression_traces,
                const std::vector<AccumulationRow>& accumulation_rows,
                std::size_t cpa_traces, double cpa_seconds) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"trace_throughput\",\n");
  std::fprintf(f, "  \"num_traces\": %zu,\n", num_traces);
  std::fprintf(f, "  \"threads\": %zu,\n", threads);
  // Thread-scaling ratios are only meaningful up to the machine's real
  // core count — record it so a 1-core CI runner's flat sweep is not
  // misread as a scheduler regression.
  std::fprintf(f, "  \"cores\": %u,\n", std::thread::hardware_concurrency());
  // Which kernels this run could actually dispatch to — perf rows are
  // only comparable across PRs within the same active tier. The
  // sub-tier flags gate optional pack kernels (BW's vpmovb2m, GFNI's
  // vgf2p8affineqb + VBMI's vpermb) inside the avx512 tier.
  std::fprintf(f,
               "  \"dispatch\": {\"compiled\": \"%s\", \"detected\": \"%s\", "
               "\"active\": \"%s\", \"cpu_avx2\": %s, \"cpu_avx512f\": %s, "
               "\"cpu_avx512bw\": %s, \"cpu_avx512vbmi\": %s, "
               "\"cpu_gfni\": %s, \"max_runtime_lane_width\": %zu},\n",
               to_string(compiled_tier()), to_string(detected_tier()),
               to_string(active_tier()),
               cpu_features().avx2 ? "true" : "false",
               cpu_features().avx512f ? "true" : "false",
               cpu_features().avx512bw ? "true" : "false",
               cpu_features().avx512vbmi ? "true" : "false",
               cpu_features().gfni ? "true" : "false",
               max_runtime_lane_width());
  std::fprintf(f, "  \"styles\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Throughput& t = rows[i];
    std::fprintf(f,
                 "    {\"style\": \"%s\", \"scalar_tps\": %.1f, "
                 "\"batched_1t_tps\": %.1f, \"batched_nt_tps\": %.1f, "
                 "\"speedup_batched\": %.2f, \"speedup_threads\": %.2f}%s\n",
                 t.style, t.scalar_tps, t.batched_1t_tps, t.batched_nt_tps,
                 t.batched_1t_tps / t.scalar_tps,
                 t.batched_nt_tps / t.batched_1t_tps,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"pack_transpose\": [\n");
  for (std::size_t i = 0; i < pack_rows.size(); ++i) {
    const PackBench& r = pack_rows[i];
    std::fprintf(f,
                 "    {\"width\": %zu, \"gather_mlps\": %.1f, "
                 "\"transpose_mlps\": %.1f, \"speedup\": %.2f}%s\n",
                 r.width, r.gather_mlps, r.transpose_mlps, r.speedup,
                 i + 1 < pack_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  if (!sweep_rows.empty()) {
    std::fprintf(f, "  \"threads_sweep\": [\n");
    for (std::size_t i = 0; i < sweep_rows.size(); ++i) {
      const ThreadSweepRow& r = sweep_rows[i];
      std::fprintf(f,
                   "    {\"style\": \"%s\", \"threads\": %zu, "
                   "\"tps\": %.1f, \"speedup_threads\": %.2f}%s\n",
                   r.style, r.threads, r.tps, r.speedup_vs_1t,
                   i + 1 < sweep_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
  }
  // sbox_tps_vs_n1: per-S-box throughput retained relative to the N=1
  // row — the regression tracker for the round-scaling cliff (N=2 keeps
  // well under half of the single-instance per-S-box rate; see the
  // README perf notes).
  const double sbox_tps_n1 =
      round_rows.empty() ? 0.0
                         : round_rows.front().tps *
                               static_cast<double>(round_rows.front().num_sboxes);
  std::fprintf(f, "  \"round_scaling\": [\n");
  for (std::size_t i = 0; i < round_rows.size(); ++i) {
    const double sbox_tps =
        round_rows[i].tps * static_cast<double>(round_rows[i].num_sboxes);
    std::fprintf(f,
                 "    {\"num_sboxes\": %zu, \"tps\": %.1f, "
                 "\"sbox_tps\": %.1f, \"sbox_tps_vs_n1\": %.2f}%s\n",
                 round_rows[i].num_sboxes, round_rows[i].tps, sbox_tps,
                 sbox_tps_n1 > 0.0 ? sbox_tps / sbox_tps_n1 : 0.0,
                 i + 1 < round_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"multi_attack\": {\"num_sboxes\": %zu, \"num_traces\": "
               "%zu, \"one_pass_seconds\": %.3f, \"independent_seconds\": "
               "%.3f, \"speedup\": %.2f, \"all_recovered\": %s},\n",
               multi.num_sboxes, multi.num_traces, multi.one_pass_seconds,
               multi.independent_seconds, multi.speedup,
               multi.all_recovered ? "true" : "false");
  std::fprintf(f,
               "  \"replay\": {\"num_traces\": %zu, \"record_tps\": %.1f, "
               "\"replay_tps\": %.1f, \"raw_replay_tps\": %.1f, "
               "\"simulate_tps\": %.1f, \"speedup_vs_simulate\": %.2f, "
               "\"decode_vs_raw\": %.2f, \"corpus_bytes_per_trace\": %.2f, "
               "\"compression_ratio\": %.2f, \"bit_identical\": %s},\n",
               replay.num_traces, replay.record_tps, replay.replay_tps,
               replay.raw_replay_tps, replay.simulate_tps, replay.speedup,
               replay.decode_vs_raw, replay.corpus_bytes_per_trace,
               replay.compression_ratio,
               replay.bit_identical ? "true" : "false");
  std::uint64_t raw_total = 0;
  std::uint64_t v2_total = 0;
  std::fprintf(f, "  \"compression\": [\n");
  for (std::size_t i = 0; i < compression_rows.size(); ++i) {
    const CompressionRow& r = compression_rows[i];
    raw_total += r.raw_bytes;
    v2_total += r.v2_bytes;
    std::fprintf(f,
                 "    {\"style\": \"%s\", \"raw_bytes\": %llu, "
                 "\"v2_bytes\": %llu, \"ratio\": %.2f}%s\n",
                 r.style, static_cast<unsigned long long>(r.raw_bytes),
                 static_cast<unsigned long long>(r.v2_bytes), r.ratio,
                 i + 1 < compression_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"compression_campaign\": {\"num_traces\": %zu, "
               "\"kind\": \"sampled\", \"noise_sigma\": 0.0, "
               "\"total_ratio\": %.2f},\n",
               compression_traces,
               v2_total > 0
                   ? static_cast<double>(raw_total) /
                         static_cast<double>(v2_total)
                   : 0.0);
  std::fprintf(f, "  \"accumulation\": [\n");
  for (std::size_t i = 0; i < accumulation_rows.size(); ++i) {
    const AccumulationRow& r = accumulation_rows[i];
    std::fprintf(f,
                 "    {\"kind\": \"%s\", \"num_traces\": %zu, "
                 "\"block_tps\": %.1f}%s\n",
                 r.kind, r.num_traces, r.block_tps,
                 i + 1 < accumulation_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"streaming_cpa\": {\"num_traces\": %zu, \"seconds\": %.3f, "
               "\"tps\": %.1f}\n",
               cpa_traces, cpa_seconds,
               static_cast<double>(cpa_traces) / cpa_seconds);
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t num_traces = 200000;
  std::size_t threads = campaign_thread_count(CampaignOptions{});
  std::size_t max_round = 4;  // CI default: small sweep, still in the JSON
  bool threads_sweep = false;
  std::string json_path = "BENCH_trace_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--threads-sweep") == 0) {
      threads_sweep = true;
    } else if (std::strcmp(argv[i], "--traces") == 0 && i + 1 < argc) {
      num_traces =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--round") == 0 && i + 1 < argc) {
      max_round =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--threads-sweep] [--traces N] "
                   "[--round N] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (max_round == 0) max_round = 1;
  // 0 keeps the CampaignOptions contract: hardware concurrency.
  if (threads == 0) threads = campaign_thread_count(CampaignOptions{});

  std::printf(
      "== trace engine throughput: PRESENT S-box, %zu traces, %zu threads ==\n",
      num_traces, threads);
  std::printf("%-22s %13s %13s %13s %8s %8s %7s\n", "logic style",
              "scalar [tr/s]", "1-thr [tr/s]", "N-thr [tr/s]", "batched",
              "threads", ">=10x");
  bool all_pass = true;
  std::vector<Throughput> rows;
  for (LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablGenuine,
        LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
        LogicStyle::kWddlBalanced}) {
    const Throughput t = measure_style(style, num_traces, threads);
    const double batched_speedup = t.batched_1t_tps / t.scalar_tps;
    const double thread_speedup = t.batched_nt_tps / t.batched_1t_tps;
    const bool pass = batched_speedup >= 10.0;
    all_pass = all_pass && pass;
    std::printf("%-22s %13.0f %13.0f %13.0f %7.1fx %7.2fx %7s\n", t.style,
                t.scalar_tps, t.batched_1t_tps, t.batched_nt_tps,
                batched_speedup, thread_speedup, pass ? "yes" : "NO");
    rows.push_back(t);
  }

  // Lane packing: the 64x64 bit transpose vs. the per-bit gather it
  // replaced, per runtime width (same bit-identical output, pure speed).
  const std::vector<PackBench> pack_rows = measure_pack_sweep();
  std::printf("\npack_transpose (%s tier, full word, 8 vars):\n%10s %14s %17s %9s\n",
              to_string(active_tier()), "width", "gather [Ml/s]",
              "transpose [Ml/s]", "speedup");
  for (const PackBench& r : pack_rows) {
    std::printf("%10zu %14.0f %17.0f %8.1fx\n", r.width, r.gather_mlps,
                r.transpose_mlps, r.speedup);
  }

  // Thread scaling (--threads-sweep): campaign throughput at 1/2/4/N
  // threads per style. Advisory, never gating: a
  // speedup under 1.5x at 4 threads on a machine with >= 4 cores means
  // the sharded scheduler is not earning its threads.
  std::vector<ThreadSweepRow> sweep_rows;
  const unsigned cores = std::thread::hardware_concurrency();
  if (threads_sweep) {
    std::vector<std::size_t> counts{1, 2, 4};
    if (std::find(counts.begin(), counts.end(), threads) == counts.end()) {
      counts.push_back(threads);
    }
    const std::size_t sweep_traces = std::min<std::size_t>(num_traces, 60000);
    sweep_rows = measure_threads_sweep(counts, sweep_traces);
    std::printf("\nthread scaling (streamed, %zu traces, %u cores):\n%-22s",
                sweep_traces, cores, "logic style");
    for (std::size_t t : counts) std::printf(" %7zu-thr", t);
    std::printf("  x4-thr\n");
    for (std::size_t i = 0; i < sweep_rows.size(); ++i) {
      if (i % counts.size() == 0) std::printf("%-22s", sweep_rows[i].style);
      std::printf(" %7.2fMt/s", sweep_rows[i].tps / 1e6);
      if ((i + 1) % counts.size() == 0) {
        double at4 = 0.0;
        for (std::size_t j = i + 1 - counts.size(); j <= i; ++j) {
          if (sweep_rows[j].threads == 4) at4 = sweep_rows[j].speedup_vs_1t;
        }
        std::printf(" %6.2fx\n", at4);
        if (cores >= 4 && at4 > 0.0 && at4 < 1.5) {
          std::fprintf(stderr,
                       "ADVISORY: %s speedup_threads %.2fx < 1.5x at 4 "
                       "threads on %u cores — shard scheduling is not "
                       "scaling\n",
                       sweep_rows[i].style, at4, cores);
        }
      }
    }
    if (cores < 4) {
      std::printf("  (advisory 4-thread check skipped: %u core%s)\n", cores,
                  cores == 1 ? "" : "s");
    }
  }

  // Round targets: throughput vs. instance count (algorithmic-noise cost).
  const std::size_t round_traces = std::min<std::size_t>(num_traces, 50000);
  const std::vector<RoundThroughput> round_rows =
      measure_round_scaling(max_round, round_traces, threads);
  std::printf(
      "\nround targets (static CMOS, %zu traces, %zu threads):\n"
      "%10s %13s %16s\n",
      round_traces, threads, "S-boxes", "traces/s", "S-box evals/s");
  for (const RoundThroughput& r : round_rows) {
    std::printf("%10zu %13.0f %16.0f\n", r.num_sboxes, r.tps,
                r.tps * static_cast<double>(r.num_sboxes));
  }

  // One-pass multi-attack: 16 subkeys from one campaign vs 16 re-simulated
  // campaigns (advisory >= 8x; the binary gate stays the >=10x above).
  const MultiAttackBench multi = measure_multi_attack(threads);
  std::printf(
      "\nmulti-attack (16-S-box PRESENT round, %zu traces, %zu threads):\n"
      "  one-pass 16-subkey campaign: %.2f s; 16 independent campaigns: "
      "%.2f s\n  speedup %.1fx (expect >= 8x: %s), all subkeys recovered: "
      "%s\n",
      multi.num_traces, threads, multi.one_pass_seconds,
      multi.independent_seconds, multi.speedup,
      multi.speedup >= 8.0 ? "yes" : "NO", multi.all_recovered ? "yes" : "NO");

  // Recorded-corpus replay vs live simulation (same CPA campaign, same
  // results bit for bit; advisory, no gate — disk speed varies by runner).
  const ReplayBench replay = measure_replay(threads);
  std::printf(
      "\ncorpus replay (static CMOS CPA, %zu traces, %zu threads):\n"
      "  record %.0f traces/s, compressed replay %.0f traces/s, raw replay "
      "%.0f traces/s,\n  simulate %.0f traces/s; replay speedup vs simulate "
      "%.1fx, decode cost %.2fx raw\n  (expect >= 0.7x: %s); %.1f corpus "
      "bytes/trace, %.2fx smaller than raw; bit-identical: %s\n",
      replay.num_traces, threads, replay.record_tps, replay.replay_tps,
      replay.raw_replay_tps, replay.simulate_tps, replay.speedup,
      replay.decode_vs_raw, replay.decode_vs_raw >= 0.7 ? "yes" : "NO",
      replay.corpus_bytes_per_trace, replay.compression_ratio,
      replay.bit_identical ? "yes" : "NO");

  // Compression: the sampled all-styles noiseless campaign (raw v2 file
  // vs delta-compressed v2 file; acceptance: total >= 3x).
  const std::size_t compression_traces =
      std::min<std::size_t>(num_traces, 12000);
  const std::vector<CompressionRow> compression_rows =
      measure_compression(compression_traces, threads);
  std::uint64_t raw_total = 0;
  std::uint64_t v2_total = 0;
  std::printf(
      "\ncorpus compression (sampled, noiseless, %zu traces):\n"
      "%-22s %12s %12s %8s\n",
      compression_traces, "logic style", "raw [bytes]", "v2 [bytes]",
      "ratio");
  for (const CompressionRow& r : compression_rows) {
    raw_total += r.raw_bytes;
    v2_total += r.v2_bytes;
    std::printf("%-22s %12llu %12llu %7.1fx\n", r.style,
                static_cast<unsigned long long>(r.raw_bytes),
                static_cast<unsigned long long>(r.v2_bytes), r.ratio);
  }
  const double total_ratio =
      v2_total > 0
          ? static_cast<double>(raw_total) / static_cast<double>(v2_total)
          : 0.0;
  std::printf("%-22s %12llu %12llu %7.1fx (expect >= 3x: %s)\n", "total",
              static_cast<unsigned long long>(raw_total),
              static_cast<unsigned long long>(v2_total), total_ratio,
              total_ratio >= 3.0 ? "yes" : "NO");

  // Distinguisher accumulation: the block-factored path, one thread.
  const std::vector<AccumulationRow> accumulation_rows =
      measure_accumulation();
  std::printf("\ndistinguisher accumulation (block-factored, 1 thread):\n"
              "%-20s %10s %14s\n",
              "kind", "traces", "block [tr/s]");
  for (const AccumulationRow& r : accumulation_rows) {
    std::printf("%-20s %10zu %14.0f\n", r.kind, r.num_traces, r.block_tps);
  }

  // End-to-end: streaming one-pass CPA at MTD scale, nothing retained,
  // sharded over all requested threads.
  const std::size_t cpa_traces = 1000000;
  double cpa_seconds = 0.0;
  {
    const Technology tech = Technology::generic_180nm();
    TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, tech);
    CampaignOptions options;
    options.num_traces = cpa_traces;
    options.key = {0x7};
    options.noise_sigma = 2e-16;
    options.num_threads = threads;
    const auto start = Clock::now();
    const AttackResult r = run_attack(
        engine, options,
        CpaDistinguisher(engine.spec(),
                         AttackSelector{.model = PowerModel::kHammingWeight}));
    cpa_seconds = seconds_since(start);
    std::printf(
        "\nstreaming CPA campaign: %zu traces in %.2f s (%.0f traces/s),\n"
        "recovered key 0x%zX (rank %zu), O(guesses) memory, one pass\n",
        cpa_traces, cpa_seconds,
        static_cast<double>(cpa_traces) / cpa_seconds, r.best_guess,
        r.rank_of(options.key[0]));
  }

  write_json(json_path, num_traces, threads, rows, pack_rows, sweep_rows,
             round_rows, multi, replay, compression_rows, compression_traces,
             accumulation_rows, cpa_traces, cpa_seconds);
  std::printf("wrote %s\n", json_path.c_str());
  return all_pass ? 0 : 1;
}
