// Single-S-box DPA attack target: the N = 1 case of the width-generic
// RoundTarget, kept as a thin adapter so byte-wide callers stay simple.
//
// The circuit computes the S-box only; the key addition happens at the
// stimulus (x = pt XOR key), which models the standard first-order DPA
// setting where the attacker predicts S-box output bits from plaintext and
// key guess. Encryptions read the underlying RoundTarget's leakage table
// (crypto/leakage_table.hpp); for specs of up to 8 input bits the packed
// one-byte round state IS the plaintext byte, so the adapter forwards
// pointers without repacking.
#pragma once

#include <cstdint>

#include "crypto/round_target.hpp"

namespace sable {

class SboxTarget {
 public:
  SboxTarget(const SboxSpec& spec, LogicStyle style, const Technology& tech)
      : round_(single_sbox_round(spec, style), tech) {}

  /// Independent target over the same synthesized circuit and leakage
  /// table (both immutable and shared), with fresh CMOS transition history
  /// (see RoundTarget::clone()).
  SboxTarget clone() const { return SboxTarget(round_.clone()); }

  /// One encryption: applies pt XOR key, returns the power sample
  /// (circuit energy plus Gaussian noise of `noise_sigma` joules).
  double trace(std::uint8_t pt, std::uint8_t key, double noise_sigma,
               Rng& rng) {
    return round_.trace(&pt, &key, noise_sigma, rng);
  }

  /// Batched encryptions: writes one power sample per plaintext into
  /// `out[0..count)`. Noise is drawn from `rng` in ascending trace order.
  void trace_batch(const std::uint8_t* pts, std::size_t count,
                   std::uint8_t key, double noise_sigma, Rng& rng,
                   double* out) {
    round_.trace_batch(pts, count, &key, noise_sigma, rng, out);
  }

  /// Restores the fresh-construction state (the CMOS transition history
  /// of every lane), so campaigns with the same seed reproduce the same
  /// traces no matter what ran before.
  void reset_state() { round_.reset_state(); }

  /// Reference S-box output for functional checks.
  std::uint8_t reference(std::uint8_t pt, std::uint8_t key) const {
    return round_.reference(0, &pt, &key);
  }

  const GateCircuit& circuit() const { return round_.circuit(0); }
  const SboxSpec& spec() const { return round_.round().sboxes.front(); }
  LogicStyle style() const { return round_.round().style; }

 private:
  explicit SboxTarget(RoundTarget round) : round_(std::move(round)) {}

  RoundTarget round_;
};

}  // namespace sable
