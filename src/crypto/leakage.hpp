// Leakage models and attack-selector plumbing shared by every
// distinguisher.
//
// For key guess k and plaintext pt, the attacker predicts a leakage value
// from the S-box output S(pt XOR k): either one selected output bit
// (Kocher's original DPA selection function) or the Hamming weight of the
// whole output (the usual CPA model). Every distinguisher — streaming CPA,
// DoM, time-resolved multi-CPA, second-order centered-product CPA —
// consumes the same precomputed prediction table, so the table builders
// live here in the crypto layer beside the S-box specs they tabulate,
// below the dpa accumulators that share them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/sboxes.hpp"

namespace sable {

struct RoundSpec;  // crypto/round_target.hpp

enum class PowerModel {
  kSboxOutputBit,  // single-bit selection function
  kHammingWeight,  // HW of the S-box output
};

/// What a round-level attack targets: one S-box instance (one subkey) of a
/// RoundSpec, with the leakage model predicting that instance's output.
/// Every other instance of the round contributes algorithmic noise. `bit`
/// selects the predicted output bit for kSboxOutputBit (and for DoM) and
/// is ignored for Hamming weight.
struct AttackSelector {
  std::size_t sbox_index = 0;
  PowerModel model = PowerModel::kHammingWeight;
  std::size_t bit = 0;
};

/// Predicted leakage for (pt, guess). `bit` selects the output bit for the
/// single-bit model and is ignored for Hamming weight.
double predict_leakage(const SboxSpec& spec, PowerModel model,
                       std::uint8_t pt, std::uint8_t guess, std::size_t bit);

/// The full prediction table of an attack: [pt * num_guesses + guess] with
/// num_guesses = num_plaintexts = 2^in_bits. Plaintext-major, so the
/// per-trace hot loops (fix pt, sweep every guess) read a contiguous row.
std::vector<double> prediction_table(const SboxSpec& spec, PowerModel model,
                                     std::size_t bit);

/// As prediction_table, but shared and immutable — the form the streaming
/// accumulators keep, so cloning an accumulator for a new campaign shard
/// costs O(guesses), not a table rebuild.
std::shared_ptr<const std::vector<double>> shared_prediction_table(
    const SboxSpec& spec, PowerModel model, std::size_t bit);

/// Validates a selector against a round: the sbox_index must address an
/// instance, and for bit-indexed models (kSboxOutputBit, or any DoM
/// attack, which is inherently single-bit — pass require_bit) the bit must
/// exist on that instance. Throws InvalidArgument otherwise.
void validate_attack_selector(const RoundSpec& round,
                              const AttackSelector& selector,
                              bool require_bit);

}  // namespace sable
