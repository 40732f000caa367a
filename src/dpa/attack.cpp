#include "dpa/attack.hpp"

#include "dpa/streaming.hpp"
#include "util/error.hpp"

namespace sable {

std::size_t AttackResult::rank_of(std::size_t key) const {
  SABLE_ASSERT(key < score.size(), "key out of range for ranking");
  std::size_t rank = 0;
  for (std::size_t g = 0; g < score.size(); ++g) {
    if (g == key) continue;
    // Strictly better scores outrank; exact ties resolve by guess index so
    // the ranking is a deterministic total order.
    if (score[g] > score[key] || (score[g] == score[key] && g < key)) {
      ++rank;
    }
  }
  return rank;
}

AttackResult make_attack_result(std::vector<double> scores) {
  AttackResult result;
  result.score = std::move(scores);
  double best = -1.0;
  double second = -1.0;
  for (std::size_t g = 0; g < result.score.size(); ++g) {
    if (result.score[g] > best) {
      second = best;
      best = result.score[g];
      result.best_guess = g;
    } else if (result.score[g] > second) {
      second = result.score[g];
    }
  }
  result.margin = second < 0.0 ? best : best - second;
  // The canonical-ordering contract (see attack.hpp), asserted once here
  // for every attack path: best_guess is the LOWEST index attaining the
  // maximum score, and rank_of agrees with it. Merged-accumulator
  // snapshots route through this constructor too, so a merge that
  // reordered guesses would trip these instead of silently re-ranking.
  for (std::size_t g = 0; g < result.best_guess; ++g) {
    SABLE_ASSERT(result.score[g] < result.score[result.best_guess],
                 "best_guess must be the lowest index at the maximum score");
  }
  SABLE_ASSERT(result.score.empty() || result.rank_of(result.best_guess) == 0,
               "rank_of must rank best_guess first");
  return result;
}

AttackResult cpa_attack(const TraceSet& traces, const SboxSpec& spec,
                        PowerModel model, std::size_t bit) {
  SABLE_REQUIRE(traces.size() >= 2, "CPA requires at least two traces");
  SABLE_REQUIRE(traces.pt_width == 1,
                "attacks consume sub-plaintexts: extract the attacked "
                "instance's bytes (RoundSpec::sub_words) first");
  SABLE_REQUIRE(traces.plaintexts.size() == traces.size(),
                "a trace set needs one plaintext per sample");
  StreamingCpa acc(spec, model, bit);
  acc.add_block(traces.plaintexts.data(), traces.samples.data(),
                traces.size());
  return acc.result().combined;
}

}  // namespace sable
