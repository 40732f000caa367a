// Distributed campaign driver: record / attack / merge as subcommands —
// the multi-process fan-out recipe of README's "Recording & distributed
// campaigns" section as one binary.
//
//   campaign_cli record  --traces N --out corpus [--codec delta|none]
//   campaign_cli attack  [--corpus corpus] [--all-subkeys]
//                        [--shards A:B --partial P]
//                        [--resume P] [--checkpoint P --every K]
//                        [--json OUT]
//   campaign_cli merge   --partials p0,p1,... [--all-subkeys] --json OUT
//   campaign_cli corpus-info --corpus PATH
//
// record writes the v2 delta+plane+RLE compressed corpus by default
// (--codec none for raw v2 chunks; both replay bit-identically).
// --all-subkeys only changes which attack list is built: one
// CPA+DoM+MTD set per round instance instead of the one --attack-sbox
// set. The sets are flattened into one distinguisher list, so every
// path — simulated, replayed, range-split, resumed, merged — produces
// each shard once for all of them. corpus-info prints any corpus's
// manifest, shard layout and per-shard stored/raw sizes — including
// read-only legacy v1 files.
//
// Each subcommand accepts exactly the flags it reads (subcommand_reads);
// any other flag exits 2 naming the flag and the subcommand, so a flag
// the subcommand would ignore never passes silently.
//
// Every invocation rebuilds the same campaign (style, round, traces,
// seed, noise, shard size define it; the manifest machinery verifies the
// on-disk artifacts match) and the same attack set — CPA + DoM (bit 0) +
// MTD on the attacked S-box. A full `attack` finalizes and can emit a
// JSON report; a range-split `attack --shards A:B --partial P` persists
// raw shard states instead, and `merge` folds any number of partials
// through the exact fixed-shape reduction of a single-process run — the
// JSON reports compare byte-identical (%.17g scores), which is what the
// CI two-process smoke asserts.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "engine/trace_engine.hpp"
#include "io/campaign_state.hpp"
#include "io/corpus.hpp"

using namespace sable;

namespace {

struct Cli {
  LogicStyle style = LogicStyle::kStaticCmos;
  std::size_t round_size = 1;
  std::size_t attack_sbox = 0;
  std::size_t num_traces = 6000;
  std::uint64_t seed = 0xCA27A167;
  double noise = 2e-16;
  std::size_t shard_size = 0;
  std::size_t num_threads = 0;
  std::size_t lane_width = 0;
  std::string out_path;       // record: corpus path
  std::string corpus_path;    // attack: replay source
  std::string partial_path;   // attack: partial-state output
  std::string resume_path;    // attack: checkpoint to resume from
  std::string checkpoint_path;
  std::size_t checkpoint_every = 0;
  std::size_t shard_begin = 0;
  std::size_t shard_end = kAllShards;
  std::vector<std::string> partials;  // merge inputs
  std::string json_path;
  std::string codec = "delta";  // record: delta | none
  bool all_subkeys = false;     // attack, merge: one set per instance
};

std::vector<std::size_t> cli_subkeys(std::size_t n) {
  std::vector<std::size_t> keys(n);
  for (std::size_t j = 0; j < n; ++j) keys[j] = (0x9 + 7 * j) & 0xF;
  return keys;
}

bool parse_style(const char* name, LogicStyle* style) {
  for (LogicStyle s :
       {LogicStyle::kStaticCmos, LogicStyle::kSablGenuine,
        LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
        LogicStyle::kWddlBalanced, LogicStyle::kWddlMismatched}) {
    if (std::strcmp(name, to_string(s)) == 0) {
      *style = s;
      return true;
    }
  }
  return false;
}

// Checked numeric flag values: the whole string must be one number, with
// no sign, no trailing characters and no overflow, so a typo fails loudly
// instead of turning "abc" into 0 or "12x" into 12. Integers also take a
// 0x hex prefix; --noise must be finite. Prints the error naming `flag`.
template <typename T>
bool parse_number(const char* flag, std::string_view text, T* out) {
  const char* first = text.data();
  const char* last = first + text.size();
  std::from_chars_result parsed{};
  if constexpr (std::is_floating_point_v<T>) {
    parsed = std::from_chars(first, last, *out);
  } else {
    int base = 10;
    if (text.size() > 2 && text[0] == '0' && (text[1] | 0x20) == 'x') {
      first += 2;
      base = 16;
    }
    parsed = std::from_chars(first, last, *out, base);
  }
  bool ok = !text.empty() && text[0] != '-' && parsed.ec == std::errc() &&
            parsed.ptr == last;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(*out);
  if (!ok) {
    std::fprintf(stderr, "%s expects a non-negative number, got '%.*s'\n",
                 flag, static_cast<int>(text.size()), text.data());
  }
  return ok;
}

// The flags each subcommand reads. The campaign flags define the
// campaign (record, attack, merge); --attack-sbox and --all-subkeys pick
// the attack list, so record has no use for them, and merge never
// simulates, so it has no use for --lanes.
bool subcommand_reads(std::string_view mode, std::string_view flag) {
  static constexpr std::string_view kCampaign[] = {
      "--style", "--round", "--traces", "--seed", "--noise", "--shard-size",
      "--threads"};
  static constexpr std::string_view kRecord[] = {"--lanes", "--out",
                                                 "--codec"};
  static constexpr std::string_view kAttack[] = {
      "--lanes", "--attack-sbox", "--corpus", "--all-subkeys", "--shards",
      "--partial", "--resume", "--checkpoint", "--every", "--json"};
  static constexpr std::string_view kMerge[] = {
      "--attack-sbox", "--all-subkeys", "--partials", "--json"};
  const auto in = [&](const auto& list) {
    return std::find(std::begin(list), std::end(list), flag) != std::end(list);
  };
  if (mode == "corpus-info") return flag == "--corpus";
  if (in(kCampaign)) return true;
  if (mode == "record") return in(kRecord);
  if (mode == "attack") return in(kAttack);
  return in(kMerge);
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s record --out PATH [--codec delta|none] [--lanes W]\n"
      "                 [campaign flags]\n"
      "       %s attack [--corpus PATH] [--attack-sbox I | --all-subkeys]\n"
      "                 [--shards A:B --partial PATH]\n"
      "                 [--resume PATH] [--checkpoint PATH --every K]\n"
      "                 [--json PATH] [--lanes W] [campaign flags]\n"
      "       %s merge --partials P0,P1,...\n"
      "                [--attack-sbox I | --all-subkeys] [--json PATH]\n"
      "                [campaign flags]\n"
      "       %s corpus-info --corpus PATH\n"
      "campaign flags: --style NAME --round N --traces N --seed S --noise X\n"
      "                --shard-size Z --threads T\n"
      "A flag the subcommand does not read exits 2.\n",
      argv0, argv0, argv0, argv0);
  return 2;
}

// corpus-info: everything the header + index pin down, for any v2 or
// legacy v1 file — no campaign flags needed, the corpus is
// self-describing.
int print_corpus_info(const std::string& path) {
  const CorpusReader corpus(path);
  const CorpusManifest& m = corpus.manifest();
  const CampaignManifest& c = m.campaign;
  std::printf("corpus %s\n", path.c_str());
  std::printf("  format v%u, compression %s, kind %s\n", corpus.version(),
              m.compression == kCorpusCompressionNone ? "none"
                                                      : "delta+plane+rle",
              m.kind == kCorpusKindScalar ? "scalar" : "sampled");
  std::printf("  campaign: %llu traces, %llu shards of %llu, seed 0x%llx, "
              "noise %g, spec 0x%016llx\n",
              static_cast<unsigned long long>(c.num_traces),
              static_cast<unsigned long long>(c.num_shards),
              static_cast<unsigned long long>(c.shard_size),
              static_cast<unsigned long long>(c.seed), c.noise_sigma,
              static_cast<unsigned long long>(c.spec_hash));
  std::printf("  pt_stride %llu bytes, sample_width %llu doubles\n",
              static_cast<unsigned long long>(m.pt_stride),
              static_cast<unsigned long long>(m.sample_width));
  std::uint64_t raw_total = 0;
  std::uint64_t stored_total = 0;
  for (std::size_t s = 0; s < corpus.num_shards(); ++s) {
    const std::uint64_t raw = corpus.shard_raw_bytes(s);
    const std::uint64_t stored = corpus.shard_stored_bytes(s);
    raw_total += raw;
    stored_total += stored;
    std::printf("  shard %4zu: %6zu traces, raw %10llu B, stored %10llu B "
                "(%.2fx)\n",
                s, corpus.shard_count(s),
                static_cast<unsigned long long>(raw),
                static_cast<unsigned long long>(stored),
                stored ? static_cast<double>(raw) / stored : 0.0);
  }
  std::printf("  total: raw %llu B, stored %llu B, ratio %.2fx\n",
              static_cast<unsigned long long>(raw_total),
              static_cast<unsigned long long>(stored_total),
              stored_total ? static_cast<double>(raw_total) / stored_total
                           : 0.0);
  return 0;
}

CampaignOptions options_for(const Cli& cli, const RoundSpec& round) {
  CampaignOptions options;
  options.num_traces = cli.num_traces;
  options.key = round.pack_subkeys(cli_subkeys(cli.round_size));
  options.noise_sigma = cli.noise;
  options.seed = cli.seed;
  options.shard_size = cli.shard_size;
  options.num_threads = cli.num_threads;
  options.lane_width = cli.lane_width;
  return options;
}

// The attack set on one round instance. Invocation order is part of the
// persisted-state contract (blobs are stored in distinguisher order), so
// every subcommand builds exactly this list.
struct AttackSet {
  CpaDistinguisher cpa;
  DomDistinguisher dom;
  MtdDistinguisher mtd;
  std::vector<Distinguisher*> list;

  AttackSet(const Cli& cli, const RoundSpec& round, std::size_t sbox,
            std::size_t subkey)
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
            subkey, default_checkpoints(cli.num_traces), cli.num_traces),
        list{&cpa, &dom, &mtd} {}
};

void write_scores(std::FILE* f, const std::vector<double>& scores) {
  std::fprintf(f, "[");
  for (std::size_t g = 0; g < scores.size(); ++g) {
    std::fprintf(f, "%s%.17g", g == 0 ? "" : ", ", scores[g]);
  }
  std::fprintf(f, "]");
}

// One attack set's result fields: `"cpa": {...}, "dom": {...},
// "mtd": {...}` with `indent` before each key (no trailing newline) —
// shared between the single-set report and --all-subkeys array entries.
void write_attack_fields(std::FILE* f, const char* indent,
                         const AttackSet& attacks, std::size_t subkey) {
  const AttackResult& cpa = attacks.cpa.result();
  std::fprintf(f, "%s\"cpa\": {\"rank\": %zu, \"scores\": ", indent,
               cpa.rank_of(subkey));
  write_scores(f, cpa.score);
  const AttackResult& dom = attacks.dom.result();
  std::fprintf(f, "},\n%s\"dom\": {\"rank\": %zu, \"scores\": ", indent,
               dom.rank_of(subkey));
  write_scores(f, dom.score);
  const MtdResult& mtd = attacks.mtd.result();
  std::fprintf(f, "},\n%s\"mtd\": {\"disclosed\": %s, \"mtd\": %zu, "
                  "\"history\": [",
               indent, mtd.disclosed ? "true" : "false", mtd.mtd);
  for (std::size_t i = 0; i < mtd.rank_history.size(); ++i) {
    std::fprintf(f, "%s[%zu, %zu]", i == 0 ? "" : ", ",
                 mtd.rank_history[i].first, mtd.rank_history[i].second);
  }
  std::fprintf(f, "]}");
}

// Deterministic report: identical campaigns produce byte-identical files
// however the shard states were produced (simulated, replayed, merged).
int write_json(const Cli& cli, const AttackSet& attacks, std::size_t subkey) {
  std::FILE* f = std::fopen(cli.json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", cli.json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"style\": \"%s\",\n  \"traces\": %zu,\n",
               to_string(cli.style), cli.num_traces);
  std::fprintf(f, "  \"seed\": %llu,\n  \"subkey\": %zu,\n",
               static_cast<unsigned long long>(cli.seed), subkey);
  write_attack_fields(f, "  ", attacks, subkey);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  return 0;
}

// --all-subkeys report: the same deterministic fields, one array entry
// per round instance.
int write_json_multi(const Cli& cli,
                     const std::vector<std::unique_ptr<AttackSet>>& sets,
                     const std::vector<std::size_t>& subkeys) {
  std::FILE* f = std::fopen(cli.json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", cli.json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"style\": \"%s\",\n  \"traces\": %zu,\n",
               to_string(cli.style), cli.num_traces);
  std::fprintf(f, "  \"seed\": %llu,\n  \"subkeys\": [\n",
               static_cast<unsigned long long>(cli.seed));
  for (std::size_t j = 0; j < sets.size(); ++j) {
    std::fprintf(f, "    {\"sbox\": %zu, \"subkey\": %zu,\n", j, subkeys[j]);
    write_attack_fields(f, "     ", *sets[j], subkeys[j]);
    std::fprintf(f, "}%s\n", j + 1 < sets.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string mode = argv[1];
  if (mode != "record" && mode != "attack" && mode != "merge" &&
      mode != "corpus-info") {
    return usage(argv[0]);
  }
  Cli cli;
  std::vector<std::string_view> given;  // every flag on the command line
  for (int i = 2; i < argc; ++i) {
    if (!subcommand_reads(mode, argv[i])) {
      std::fprintf(stderr, "%s does not take %s\n", mode.c_str(), argv[i]);
      return usage(argv[0]);
    }
    given.push_back(argv[i]);
    const auto has_value = [&] { return i + 1 < argc; };
    // Consumes the flag's value into `out`, checked.
    const auto number = [&](auto* out) {
      const char* flag = argv[i];
      return parse_number(flag, argv[++i], out);
    };
    if (std::strcmp(argv[i], "--style") == 0 && has_value()) {
      if (!parse_style(argv[++i], &cli.style)) {
        std::fprintf(stderr, "unknown --style %s\n", argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--round") == 0 && has_value()) {
      if (!number(&cli.round_size)) return 2;
    } else if (std::strcmp(argv[i], "--attack-sbox") == 0 && has_value()) {
      if (!number(&cli.attack_sbox)) return 2;
    } else if (std::strcmp(argv[i], "--traces") == 0 && has_value()) {
      if (!number(&cli.num_traces)) return 2;
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value()) {
      if (!number(&cli.seed)) return 2;
    } else if (std::strcmp(argv[i], "--noise") == 0 && has_value()) {
      if (!number(&cli.noise)) return 2;
    } else if (std::strcmp(argv[i], "--shard-size") == 0 && has_value()) {
      if (!number(&cli.shard_size)) return 2;
    } else if (std::strcmp(argv[i], "--threads") == 0 && has_value()) {
      if (!number(&cli.num_threads)) return 2;
    } else if (std::strcmp(argv[i], "--lanes") == 0 && has_value()) {
      if (!number(&cli.lane_width)) return 2;
    } else if (std::strcmp(argv[i], "--out") == 0 && has_value()) {
      cli.out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--corpus") == 0 && has_value()) {
      cli.corpus_path = argv[++i];
    } else if (std::strcmp(argv[i], "--partial") == 0 && has_value()) {
      cli.partial_path = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0 && has_value()) {
      cli.resume_path = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint") == 0 && has_value()) {
      cli.checkpoint_path = argv[++i];
    } else if (std::strcmp(argv[i], "--every") == 0 && has_value()) {
      if (!number(&cli.checkpoint_every)) return 2;
    } else if (std::strcmp(argv[i], "--shards") == 0 && has_value()) {
      const std::string range = argv[++i];
      const std::size_t colon = range.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--shards expects A:B (B empty = end)\n");
        return 2;
      }
      const std::string_view end = std::string_view(range).substr(colon + 1);
      if (!parse_number("--shards", std::string_view(range).substr(0, colon),
                        &cli.shard_begin) ||
          (!end.empty() && !parse_number("--shards", end, &cli.shard_end))) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--partials") == 0 && has_value()) {
      std::string paths = argv[++i];
      std::size_t pos = 0;
      while (pos <= paths.size()) {
        const std::size_t comma = paths.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? paths.size() : comma;
        if (end > pos) cli.partials.push_back(paths.substr(pos, end - pos));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (std::strcmp(argv[i], "--json") == 0 && has_value()) {
      cli.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--codec") == 0 && has_value()) {
      cli.codec = argv[++i];
    } else if (std::strcmp(argv[i], "--all-subkeys") == 0) {
      cli.all_subkeys = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (cli.round_size == 0 || cli.attack_sbox >= cli.round_size) {
    std::fprintf(stderr, "--attack-sbox must address one of the --round %zu "
                         "instances\n",
                 cli.round_size);
    return 2;
  }
  // Flag combinations the invocation would otherwise drop silently.
  const auto has_flag = [&](std::string_view flag) {
    return std::find(given.begin(), given.end(), flag) != given.end();
  };
  if (cli.all_subkeys && has_flag("--attack-sbox")) {
    std::fprintf(stderr, "--attack-sbox cannot be combined with --all-subkeys "
                         "(which attacks every instance)\n");
    return 2;
  }
  if (has_flag("--every") && !has_flag("--checkpoint") &&
      !has_flag("--partial")) {
    std::fprintf(stderr, "--every needs --checkpoint or --partial\n");
    return 2;
  }

  try {
    if (mode == "corpus-info") {
      if (cli.corpus_path.empty()) {
        std::fprintf(stderr, "corpus-info needs --corpus PATH\n");
        return 2;
      }
      return print_corpus_info(cli.corpus_path);
    }

    const Technology tech = Technology::generic_180nm();
    const RoundSpec round = present_round(cli.round_size, cli.style);
    TraceEngine engine(round, tech);
    const CampaignOptions options = options_for(cli, round);

    if (mode == "record") {
      if (cli.out_path.empty()) {
        std::fprintf(stderr, "record needs --out PATH\n");
        return 2;
      }
      std::uint32_t compression = kCorpusCompressionDeltaPlaneRle;
      if (cli.codec == "none") {
        compression = kCorpusCompressionNone;
      } else if (cli.codec != "delta") {
        std::fprintf(stderr, "--codec must be delta or none\n");
        return 2;
      }
      engine.record(options, TraceDataKind::kScalar, cli.out_path,
                    compression);
      const CampaignManifest m = engine.campaign_manifest(options);
      std::printf("recorded %llu traces (%llu shards of %llu) to %s\n",
                  static_cast<unsigned long long>(m.num_traces),
                  static_cast<unsigned long long>(m.num_shards),
                  static_cast<unsigned long long>(m.shard_size),
                  cli.out_path.c_str());
      return 0;
    }

    // One CPA+DoM+MTD set per round instance under --all-subkeys,
    // otherwise the one --attack-sbox set, flattened into one list.
    std::vector<std::unique_ptr<AttackSet>> sets;
    std::vector<std::size_t> subkeys;
    std::vector<Distinguisher*> list;
    const std::size_t first = cli.all_subkeys ? 0 : cli.attack_sbox;
    const std::size_t last = cli.all_subkeys ? cli.round_size : first + 1;
    for (std::size_t j = first; j < last; ++j) {
      subkeys.push_back(round.sub_word(options.key.data(), j));
      sets.push_back(
          std::make_unique<AttackSet>(cli, round, j, subkeys.back()));
      list.insert(list.end(), sets.back()->list.begin(),
                  sets.back()->list.end());
    }

    if (mode == "merge") {
      if (cli.partials.empty()) {
        std::fprintf(stderr, "merge needs --partials P0,P1,...\n");
        return 2;
      }
      engine.merge_partials(options, list, cli.partials);
    } else {
      CampaignPersistence persist;
      persist.resume_path = cli.resume_path;
      persist.checkpoint_every_shards = cli.checkpoint_every;
      persist.shard_begin = cli.shard_begin;
      persist.shard_end = cli.shard_end;
      // --partial is the fan-out spelling of --checkpoint: a range-split
      // invocation persists its shard states there for a later merge.
      persist.checkpoint_path =
          !cli.partial_path.empty() ? cli.partial_path : cli.checkpoint_path;
      bool complete = false;
      if (!cli.corpus_path.empty()) {
        const CorpusReader corpus(cli.corpus_path);
        // The corpus must hold the campaign the flags describe, or the
        // report would name flags the scores were not computed from.
        require_manifest_match(cli.corpus_path,
                               engine.campaign_manifest(options),
                               corpus.manifest().campaign);
        complete = engine.replay(corpus, list, persist, cli.num_threads);
      } else {
        complete = engine.run_distinguishers(options, list, persist);
      }
      if (!complete) {
        std::printf("partial campaign state written to %s\n",
                    persist.checkpoint_path.c_str());
        return 0;
      }
    }

    for (std::size_t j = 0; j < sets.size(); ++j) {
      const AttackSet& set = *sets[j];
      if (cli.all_subkeys) std::printf("sbox %zu: ", j);
      std::printf("CPA rank %zu, DoM rank %zu, MTD %s%zu\n",
                  set.cpa.result().rank_of(subkeys[j]),
                  set.dom.result().rank_of(subkeys[j]),
                  set.mtd.result().disclosed ? "" : "not disclosed at ",
                  set.mtd.result().disclosed ? set.mtd.result().mtd
                                             : cli.num_traces);
    }
    if (cli.json_path.empty()) return 0;
    return cli.all_subkeys ? write_json_multi(cli, sets, subkeys)
                           : write_json(cli, *sets[0], subkeys[0]);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
