// Experiment E9 (extension): DPA resistance by logic style.
//
// The paper's motivating threat: first-order power attacks on a cipher's
// nonlinear layer. For each logic style the batched trace engine streams
// simulated traces of a `--round N`-instance PRESENT layer (default 1)
// with a secret round key through a bank of one-pass accumulators — CPA
// (Hamming-weight model) on the `--attack-sbox i` subkey, DoM on every
// output bit of that instance, and the incremental MTD driver — in a
// single generation pass with no trace retained. The unattacked instances
// contribute algorithmic noise. Reported: correct-subkey rank, the
// leading guess, and measurements-to-disclosure.
//
// A second table reports each style's exact energy spread: NED and NSD
// (power/stats.hpp) over the attacked instance's leakage table — every
// input for the memoryless styles, every (previous, current) input pair
// for static CMOS — plus the worst NED over all instances of the round.
// These are population values of the per-cycle energy, not Monte Carlo
// estimates.
//
// Campaign persistence: `--record P` writes each style's corpus to
// `P.<style>` while attacking, and `--replay P` reruns the whole table
// from those corpora without re-simulating (bit-identical rows).
//
// Exits 1 (naming the style on stderr) if a constant-power style
// (SABL-fully-connected, SABL-enhanced) ranks the key with confidence:
// its MTD discloses the attacked subkey within the campaign.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "engine/trace_engine.hpp"
#include "io/corpus.hpp"
#include "power/stats.hpp"

#include "../examples/parse_number.hpp"

using namespace sable;

namespace {

struct Row {
  LogicStyle style;
  std::size_t cpa_rank = 0;
  double cpa_rho = 0.0;
  std::size_t dom_rank = 0;
  bool disclosed = false;
  std::size_t mtd = 0;
};

std::vector<std::size_t> table_subkeys(std::size_t n) {
  std::vector<std::size_t> keys(n);
  for (std::size_t j = 0; j < n; ++j) keys[j] = (0x7 + 5 * j) & 0xF;
  return keys;
}

Row evaluate_style(LogicStyle style, std::size_t round_size,
                   std::size_t attack_sbox, std::size_t num_traces,
                   double noise, std::size_t num_threads,
                   const std::string& record_path,
                   const std::string& replay_path) {
  const Technology tech = Technology::generic_180nm();
  const RoundSpec round = present_round(round_size, style);
  const SboxSpec& spec = round.sboxes[attack_sbox];
  TraceEngine engine(round, tech);

  CampaignOptions options;
  options.num_traces = num_traces;
  options.key = round.pack_subkeys(table_subkeys(round_size));
  options.noise_sigma = noise;
  options.seed = 0xDEC0DE;
  options.num_threads = num_threads;
  const std::size_t subkey = round.sub_word(options.key.data(), attack_sbox);

  // One campaign feeds every attack through the distinguisher pipeline:
  // CPA, one DoM per output bit, and the ordered MTD distinguisher — on
  // the attacked instance's sub-plaintexts, from a simulated, recorded,
  // or replayed stream (all bit-identical).
  const AttackSelector selector{.sbox_index = attack_sbox,
                                .model = PowerModel::kHammingWeight};
  CpaDistinguisher cpa(spec, selector);
  std::vector<DomDistinguisher> dom;
  dom.reserve(spec.out_bits);
  for (std::size_t bit = 0; bit < spec.out_bits; ++bit) {
    dom.emplace_back(spec, AttackSelector{.sbox_index = attack_sbox,
                                          .model = PowerModel::kHammingWeight,
                                          .bit = bit});
  }
  MtdDistinguisher mtd(spec, selector, subkey,
                       default_checkpoints(num_traces), num_traces);
  std::vector<Distinguisher*> list = {&cpa};
  for (auto& d : dom) list.push_back(&d);
  list.push_back(&mtd);
  if (!record_path.empty()) {
    engine.record(options, TraceDataKind::kScalar,
                  record_path + "." + to_string(style));
  }
  if (!replay_path.empty()) {
    const CorpusReader corpus(replay_path + "." + to_string(style));
    engine.replay(corpus, list, {}, num_threads);
  } else {
    engine.run_distinguishers(options, list);
  }

  Row row{style};
  const AttackResult cpa_result = cpa.result();
  row.cpa_rank = cpa_result.rank_of(subkey);
  row.cpa_rho = cpa_result.score[subkey];

  // Combine the per-bit difference-of-means scores by taking, for every
  // guess, its strongest bias over the output bits (the attacker does not
  // know which bit leaks best, so max-combining is the honest procedure).
  std::vector<double> combined(std::size_t{1} << spec.in_bits, 0.0);
  for (auto& d : dom) {
    const AttackResult& result = d.result();
    for (std::size_t g = 0; g < combined.size(); ++g) {
      combined[g] = std::max(combined[g], result.score[g]);
    }
  }
  row.dom_rank = make_attack_result(std::move(combined)).rank_of(subkey);

  const MtdResult mtd_result = mtd.result();
  row.disclosed = mtd_result.disclosed;
  row.mtd = mtd_result.mtd;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t num_traces = 8000;
  const double noise = 2e-16;
  std::size_t num_threads = 0;  // 0 = hardware concurrency
  std::size_t round_size = 1;
  std::size_t attack_sbox = 0;
  bool all_subkeys = false;
  std::string record_path;
  std::string replay_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!parse_number("--threads", argv[++i], &num_threads)) return 2;
    } else if (std::strcmp(argv[i], "--round") == 0 && i + 1 < argc) {
      if (!parse_number("--round", argv[++i], &round_size)) return 2;
    } else if (std::strcmp(argv[i], "--attack-sbox") == 0 && i + 1 < argc) {
      if (!parse_number("--attack-sbox", argv[++i], &attack_sbox)) return 2;
    } else if (std::strcmp(argv[i], "--all-subkeys") == 0) {
      all_subkeys = true;
    } else if (std::strcmp(argv[i], "--record") == 0 && i + 1 < argc) {
      record_path = argv[++i];
    } else if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
      replay_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--round N] [--attack-sbox I] "
                   "[--all-subkeys] [--record P] [--replay P]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!record_path.empty() && !replay_path.empty()) {
    std::fprintf(stderr, "--record and --replay are mutually exclusive\n");
    return 2;
  }
  if (round_size == 0 || attack_sbox >= round_size) {
    std::fprintf(stderr, "--attack-sbox must address one of the --round %zu "
                         "instances\n",
                 round_size);
    return 2;
  }
  const std::size_t subkey = table_subkeys(round_size)[attack_sbox];

  std::printf("== E9: DPA resistance by logic style ========================\n");
  std::printf(
      "%zu-S-box PRESENT round, attacked S-box %zu (subkey 0x%zX), %zu "
      "traces, noise %.0e J RMS\n"
      "(streamed one-pass: CPA + %zux DoM + MTD per style, nothing "
      "retained)\n\n",
      round_size, attack_sbox, subkey, num_traces, noise,
      present_spec().out_bits);
  std::printf("%-22s %9s %10s %9s %12s\n", "logic style", "CPA rank",
              "|rho(key)|", "DoM rank", "MTD");

  bool holds = true;
  for (LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablGenuine,
        LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
        LogicStyle::kWddlBalanced, LogicStyle::kWddlMismatched}) {
    const Row row = evaluate_style(style, round_size, attack_sbox, num_traces,
                                   noise, num_threads, record_path,
                                   replay_path);
    if (row.disclosed && (style == LogicStyle::kSablFullyConnected ||
                          style == LogicStyle::kSablEnhanced)) {
      std::fprintf(stderr,
                   "claim failed: constant-power style %s discloses the key "
                   "after %zu traces\n",
                   to_string(style), row.mtd);
      holds = false;
    }
    char mtd_str[32];
    if (row.disclosed) {
      std::snprintf(mtd_str, sizeof mtd_str, "%zu", row.mtd);
    } else {
      std::snprintf(mtd_str, sizeof mtd_str, "> %zu", num_traces);
    }
    std::printf("%-22s %9zu %10.3f %9zu %12s\n", to_string(row.style),
                row.cpa_rank, row.cpa_rho, row.dom_rank, mtd_str);
  }
  // Exact spread from the leakage tables the campaigns read.
  std::printf(
      "\nexact per-cycle energy spread (leakage tables; CMOS over every "
      "(previous, current) input pair):\n%-22s %10s %10s %14s\n",
      "logic style", "NED", "NSD", "max NED (round)");
  for (LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablGenuine,
        LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
        LogicStyle::kWddlBalanced, LogicStyle::kWddlMismatched}) {
    const RoundTarget target(present_round(round_size, style),
                             Technology::generic_180nm());
    const auto spread = [&](std::size_t index) {
      const auto energies = target.leakage_table(index).settled_energies();
      return spread_metrics(
          std::vector<double>(energies.begin(), energies.end()));
    };
    const SpreadMetrics attacked = spread(attack_sbox);
    double max_ned = 0.0;
    for (std::size_t i = 0; i < round_size; ++i) {
      max_ned = std::max(max_ned, spread(i).ned);
    }
    std::printf("%-22s %9.4f%% %9.4f%% %13.4f%%\n", to_string(style),
                attacked.ned * 100.0, attacked.nsd * 100.0, max_ned * 100.0);
  }

  // One-pass multi-subkey attack: every subkey of the round recovered
  // from a SINGLE simulated campaign per style through the distinguisher
  // pipeline (one CpaDistinguisher per instance sharing the stream) —
  // where the pre-pipeline engine would have re-simulated per subkey.
  if (all_subkeys) {
    std::printf(
        "\n== one-pass multi-subkey CPA: all %zu subkeys, one campaign per "
        "style ==\n%-22s correct-subkey rank per S-box\n",
        round_size, "logic style");
    for (LogicStyle style :
         {LogicStyle::kStaticCmos, LogicStyle::kSablGenuine,
          LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
          LogicStyle::kWddlBalanced, LogicStyle::kWddlMismatched}) {
      const Technology tech = Technology::generic_180nm();
      const RoundSpec round = present_round(round_size, style);
      TraceEngine engine(round, tech);
      CampaignOptions options;
      options.num_traces = num_traces;
      options.key = round.pack_subkeys(table_subkeys(round_size));
      options.noise_sigma = noise;
      options.seed = 0xDEC0DE;
      options.num_threads = num_threads;
      std::vector<CpaDistinguisher> attacks;
      for (std::size_t j = 0; j < round_size; ++j) {
        attacks.emplace_back(
            engine.spec(j),
            AttackSelector{.sbox_index = j,
                           .model = PowerModel::kHammingWeight});
      }
      std::vector<Distinguisher*> list;
      for (CpaDistinguisher& attack : attacks) list.push_back(&attack);
      engine.run_distinguishers(options, list);
      std::printf("%-22s", to_string(style));
      for (std::size_t j = 0; j < attacks.size(); ++j) {
        std::printf(" %zu", attacks[j].result().rank_of(
                                round.sub_word(options.key.data(), j)));
      }
      std::printf("\n");
    }
  }

  std::printf(
      "\nExpected shape: CMOS and SABL-genuine disclose the key within a few\n"
      "hundred traces; the fully connected and enhanced styles never rank\n"
      "the key first with statistical confidence (constant-power gates).\n"
      "WDDL (the standard-cell countermeasure class of the paper's ref [8])\n"
      "holds only while its rails stay perfectly balanced — 5%% capacitance\n"
      "mismatch reopens the leak, which is the paper's argument for custom\n"
      "gates with controlled internals.\n");

  // Wider targets: the attack scales to DES (6-bit) and AES (8-bit)
  // S-boxes; the constant-power property must hold regardless of width.
  // The engine makes the 8-bit target cheap: one table lookup per trace.
  std::printf("\nwider S-boxes (CPA/HW, correct-key rank):\n");
  std::printf("%-10s %8s %22s %22s\n", "S-box", "guesses", "static-CMOS",
              "SABL-fully-connected");
  for (const SboxSpec& spec : {des1_spec(), aes_spec()}) {
    const Technology tech = Technology::generic_180nm();
    CampaignOptions options;
    options.num_traces = 4000;
    options.key = {
        static_cast<std::uint8_t>(0x2A & ((1u << spec.in_bits) - 1))};
    options.noise_sigma = noise;
    options.seed = 0xFACE;
    options.num_threads = num_threads;
    std::size_t ranks[2] = {0, 0};
    int col = 0;
    for (LogicStyle style :
         {LogicStyle::kStaticCmos, LogicStyle::kSablFullyConnected}) {
      TraceEngine engine(spec, style, tech);
      const AttackSelector selector{.model = PowerModel::kHammingWeight};
      const AttackResult cpa =
          run_attack(engine, options, CpaDistinguisher(spec, selector));
      ranks[col++] = cpa.rank_of(options.key[0]);
    }
    std::printf("%-10s %8zu %22zu %22zu\n", spec.name,
                std::size_t{1} << spec.in_bits, ranks[0], ranks[1]);
  }
  return holds ? 0 : 1;
}
