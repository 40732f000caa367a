// Attack results and the one-shot CPA.
//
// Every distinguisher (dpa/streaming.hpp, dpa/distinguisher.hpp) reports
// an AttackResult. cpa_attack is the one-shot form of StreamingCpa over a
// retained TraceSet: the Pearson correlation between the samples and the
// predicted leakage, per key guess; the guess with the largest |rho| wins.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/leakage.hpp"
#include "crypto/sboxes.hpp"
#include "power/trace.hpp"

namespace sable {

// Canonical score ordering (the contract every attack path — batch,
// streaming, and merged-accumulator snapshots — relies on): guesses are
// ordered by descending score, with EXACT ties broken toward the lower
// guess index. Consequently best_guess is the lowest index attaining the
// maximum score, rank_of is a deterministic total order consistent with
// best_guess (rank_of(best_guess) == 0), and a flat score vector ranks
// guesses by index instead of all-zero. make_attack_result() is the single
// constructor of AttackResult and asserts this contract centrally, so a
// reordered merge or snapshot cannot silently change rankings.
// Guess indices are std::size_t so 4-bit (16-guess), 8-bit (256-guess)
// and wider future subkey spaces are first-class — no caller-side byte
// truncation.
struct AttackResult {
  /// Distinguisher score per key guess (|correlation| or |mean difference|).
  std::vector<double> score;
  std::size_t best_guess = 0;
  /// Best score minus runner-up score (confidence margin).
  double margin = 0.0;
  /// Rank of guess `key` in the canonical ordering (0 = best).
  std::size_t rank_of(std::size_t key) const;
};

/// Builds an AttackResult from raw per-guess scores: fills best_guess and
/// the margin, and asserts the canonical-ordering contract above.
AttackResult make_attack_result(std::vector<double> scores);

/// Correlation power analysis over all 2^in_bits key guesses.
AttackResult cpa_attack(const TraceSet& traces, const SboxSpec& spec,
                        PowerModel model, std::size_t bit = 0);

/// Time-resolved CPA result (StreamingCpa::time_resolved): per key guess,
/// the largest |correlation| over the sample columns — the standard
/// procedure on oscilloscope traces. `best_sample` reports where the
/// winning guess peaked.
struct MultiAttackResult {
  AttackResult combined;
  std::size_t best_sample = 0;
};

}  // namespace sable
