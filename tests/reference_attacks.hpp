// Test-only oracles for the streaming attack accumulators: the textbook
// two-pass formulations, written with no shared code beyond the leakage
// model and pearson(), so the block-factored production path is checked
// against something independent of it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "crypto/leakage.hpp"
#include "dpa/attack.hpp"
#include "dpa/mtd.hpp"
#include "dpa/second_order.hpp"
#include "power/stats.hpp"
#include "power/trace.hpp"
#include "util/error.hpp"

namespace sable {

/// Retained time-resolved traces for the oracles below: `width` samples
/// per plaintext, row-major — the shape a sampling oscilloscope produces.
struct MultiTraceSet {
  std::size_t width = 0;
  std::vector<std::uint8_t> plaintexts;
  std::vector<double> samples;  // size() * width values

  std::size_t size() const { return plaintexts.size(); }
  double at(std::size_t trace, std::size_t sample) const {
    return samples[trace * width + sample];
  }
  /// Appends one trace row; the first row fixes the width.
  void add(std::uint8_t pt, const double* row, std::size_t row_width) {
    if (width == 0) width = row_width;
    plaintexts.push_back(pt);
    samples.insert(samples.end(), row, row + width);
  }
  void add(std::uint8_t pt, const std::vector<double>& row) {
    add(pt, row.data(), row.size());
  }
  /// The single-sample set of column `sample`.
  TraceSet column(std::size_t sample) const {
    TraceSet out;
    out.plaintexts = plaintexts;
    for (std::size_t t = 0; t < size(); ++t) {
      out.samples.push_back(at(t, sample));
    }
    return out;
  }
};

/// Two-pass reference CPA over the first `n` traces (all of them when n
/// is 0): |Pearson| of every guess's predicted leakage against the
/// samples.
inline std::vector<double> reference_cpa_scores(const TraceSet& traces,
                                                const SboxSpec& spec,
                                                PowerModel model,
                                                std::size_t bit,
                                                std::size_t n = 0) {
  if (n == 0) n = traces.size();
  const std::size_t num_guesses = std::size_t{1} << spec.in_bits;
  const std::vector<double> samples(traces.samples.begin(),
                                    traces.samples.begin() +
                                        static_cast<std::ptrdiff_t>(n));
  std::vector<double> scores(num_guesses);
  std::vector<double> prediction(n);
  for (std::size_t g = 0; g < num_guesses; ++g) {
    for (std::size_t t = 0; t < n; ++t) {
      prediction[t] = predict_leakage(spec, model, traces.plaintexts[t],
                                      static_cast<std::uint8_t>(g), bit);
    }
    scores[g] = std::fabs(pearson(prediction, samples));
  }
  return scores;
}

/// Trace-order difference of means on one predicted output bit:
/// |mean(partition 1) - mean(partition 0)| per guess.
inline std::vector<double> reference_dom_scores(const TraceSet& traces,
                                                const SboxSpec& spec,
                                                std::size_t bit) {
  std::vector<double> scores(std::size_t{1} << spec.in_bits, 0.0);
  for (std::size_t g = 0; g < scores.size(); ++g) {
    double sum[2] = {0.0, 0.0};
    std::size_t n[2] = {0, 0};
    for (std::size_t t = 0; t < traces.size(); ++t) {
      const double pred = predict_leakage(spec, PowerModel::kSboxOutputBit,
                                          traces.plaintexts[t],
                                          static_cast<std::uint8_t>(g), bit);
      const int p = pred > 0.5 ? 1 : 0;
      sum[p] += traces.samples[t];
      ++n[p];
    }
    if (n[0] == 0 || n[1] == 0) continue;
    scores[g] = std::fabs(sum[1] / static_cast<double>(n[1]) -
                          sum[0] / static_cast<double>(n[0]));
  }
  return scores;
}

/// Time-resolved reference: two-pass CPA per sample column, best |rho|
/// over the columns per guess.
inline std::vector<double> reference_multi_cpa_scores(
    const MultiTraceSet& traces, const SboxSpec& spec, PowerModel model) {
  std::vector<double> combined(std::size_t{1} << spec.in_bits, 0.0);
  for (std::size_t s = 0; s < traces.width; ++s) {
    const std::vector<double> column =
        reference_cpa_scores(traces.column(s), spec, model, 0);
    for (std::size_t g = 0; g < combined.size(); ++g) {
      combined[g] = std::max(combined[g], column[g]);
    }
  }
  return combined;
}

/// Retained-trace second-order reference: full-campaign column means,
/// centered product per level pair, Pearson against the predicted leakage
/// — the textbook two-pass formulation the streaming accumulator must
/// reproduce.
inline SecondOrderAttackResult reference_second_order(
    const MultiTraceSet& traces, const SboxSpec& spec, PowerModel model) {
  const std::size_t L = traces.width;
  const std::size_t n = traces.size();
  const std::size_t guesses = std::size_t{1} << spec.in_bits;
  std::vector<double> mu(L, 0.0);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t i = 0; i < L; ++i) mu[i] += traces.at(t, i);
  }
  for (double& m : mu) m /= static_cast<double>(n);

  std::vector<std::vector<double>> hyp(guesses, std::vector<double>(n));
  for (std::size_t g = 0; g < guesses; ++g) {
    for (std::size_t t = 0; t < n; ++t) {
      hyp[g][t] = predict_leakage(spec, model, traces.plaintexts[t],
                                  static_cast<std::uint8_t>(g), 0);
    }
  }

  SecondOrderAttackResult result;
  std::vector<double> combined(guesses, 0.0);
  double global_best = -1.0;
  std::vector<double> product(n);
  for (std::size_t i = 0; i < L; ++i) {
    for (std::size_t j = i + 1; j < L; ++j) {
      for (std::size_t t = 0; t < n; ++t) {
        product[t] = (traces.at(t, i) - mu[i]) * (traces.at(t, j) - mu[j]);
      }
      for (std::size_t g = 0; g < guesses; ++g) {
        const double score = std::fabs(pearson(product, hyp[g]));
        combined[g] = std::max(combined[g], score);
        if (score > global_best) {
          global_best = score;
          result.best_pair_first = i;
          result.best_pair_second = j;
        }
      }
    }
  }
  result.combined = make_attack_result(std::move(combined));
  return result;
}

/// Prefix MTD oracle: re-runs the two-pass CPA from scratch on every
/// checkpoint prefix (ascending, restricted to [2, traces.size()], like
/// MtdDistinguisher's ladder) and ranks the correct key.
inline MtdResult reference_mtd(const TraceSet& traces, const SboxSpec& spec,
                               PowerModel model, std::size_t correct_key,
                               std::vector<std::size_t> checkpoints) {
  std::sort(checkpoints.begin(), checkpoints.end());
  checkpoints.erase(std::unique(checkpoints.begin(), checkpoints.end()),
                    checkpoints.end());
  std::vector<std::pair<std::size_t, std::size_t>> history;
  for (std::size_t n : checkpoints) {
    if (n < 2 || n > traces.size()) continue;
    const AttackResult prefix =
        make_attack_result(reference_cpa_scores(traces, spec, model, 0, n));
    history.emplace_back(n, prefix.rank_of(correct_key));
  }
  return mtd_from_history(std::move(history));
}

/// The campaign reduction's shape, as a serial oracle: round r merges
/// shard i + 2^r into shard i for every i ≡ 0 (mod 2^(r+1)) with
/// i + 2^r < n, so each intermediate accumulator always covers a
/// contiguous canonical shard range with the earlier range on the left.
/// The shape depends only on the shard count, never on the thread count;
/// the engine's online reducer (engine/shard_reduce.hpp) must pair
/// exactly like this.
template <typename Accumulator>
Accumulator merge_shard_tree(std::vector<Accumulator> shards) {
  SABLE_REQUIRE(!shards.empty(), "merge tree needs at least one shard");
  for (std::size_t stride = 1; stride < shards.size(); stride *= 2) {
    for (std::size_t i = 0; i + stride < shards.size(); i += 2 * stride) {
      shards[i].merge(shards[i + stride]);
    }
  }
  return std::move(shards.front());
}

}  // namespace sable
