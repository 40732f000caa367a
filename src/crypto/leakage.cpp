#include "crypto/leakage.hpp"

#include <bit>

#include "crypto/round_target.hpp"
#include "util/error.hpp"

namespace sable {

double predict_leakage(const SboxSpec& spec, PowerModel model,
                       std::uint8_t pt, std::uint8_t guess, std::size_t bit) {
  const std::uint8_t x = static_cast<std::uint8_t>(
      (pt ^ guess) & ((1u << spec.in_bits) - 1u));
  const std::uint8_t y = spec.apply(x);
  switch (model) {
    case PowerModel::kSboxOutputBit:
      return static_cast<double>((y >> bit) & 1u);
    case PowerModel::kHammingWeight:
      return static_cast<double>(std::popcount(y));
  }
  SABLE_UNREACHABLE("unreachable power model");
}

std::vector<double> prediction_table(const SboxSpec& spec, PowerModel model,
                                     std::size_t bit) {
  const std::size_t num_guesses = std::size_t{1} << spec.in_bits;
  const std::size_t num_plaintexts = num_guesses;
  std::vector<double> table(num_guesses * num_plaintexts);
  for (std::size_t pt = 0; pt < num_plaintexts; ++pt) {
    for (std::size_t g = 0; g < num_guesses; ++g) {
      table[pt * num_guesses + g] =
          predict_leakage(spec, model, static_cast<std::uint8_t>(pt),
                          static_cast<std::uint8_t>(g), bit);
    }
  }
  return table;
}

std::shared_ptr<const std::vector<double>> shared_prediction_table(
    const SboxSpec& spec, PowerModel model, std::size_t bit) {
  return std::make_shared<const std::vector<double>>(
      prediction_table(spec, model, bit));
}

void validate_attack_selector(const RoundSpec& round,
                              const AttackSelector& selector,
                              bool require_bit) {
  SABLE_REQUIRE(selector.sbox_index < round.num_sboxes(),
                "AttackSelector::sbox_index out of range for the round");
  if (require_bit || selector.model == PowerModel::kSboxOutputBit) {
    SABLE_REQUIRE(selector.bit < round.sboxes[selector.sbox_index].out_bits,
                  "AttackSelector::bit out of range for the attacked S-box");
  }
}

}  // namespace sable
