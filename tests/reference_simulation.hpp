// Test-only oracle for the table-driven round target: the per-trace
// simulation loop campaigns ran before leakage was tabulated. Every S-box
// instance owns a 64-lane batch simulator of its style's energy model and
// every trace is simulated — nothing is looked up — so RoundTarget's
// trace(), trace_batch() and trace_batch_sampled() must match it bit for
// bit, including the static-CMOS history across chained calls.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cell/circuit_sim.hpp"
#include "cell/wddl.hpp"
#include "crypto/round_target.hpp"
#include "switchsim/cycle_sim.hpp"
#include "util/rng.hpp"

namespace sable {

class ReferenceRound {
 public:
  /// Simulators over `target`'s circuits, with the energy models the
  /// round target's style stands for (fresh state).
  ReferenceRound(const RoundTarget& target, const Technology& tech)
      : round_(target.round()) {
    for (std::size_t i = 0; i < round_.num_sboxes(); ++i) {
      const GateCircuit& circuit = target.circuit(i);
      Instance instance;
      switch (round_.style) {
        case LogicStyle::kStaticCmos:
          instance.cmos = std::make_unique<CmosCircuitSimBatch>(
              circuit, 5e-15 * tech.vdd * tech.vdd);
          break;
        case LogicStyle::kWddlBalanced:
        case LogicStyle::kWddlMismatched:
          instance.wddl = std::make_unique<WddlCircuitSimBatch>(
              circuit, tech,
              round_.style == LogicStyle::kWddlMismatched ? 0.05 : 0.0,
              0x3DD1 + static_cast<std::uint64_t>(i));
          break;
        default:
          instance.diff =
              std::make_unique<DifferentialCircuitSimBatch>(circuit);
          break;
      }
      num_levels_ = std::max(num_levels_, circuit_levels(instance));
      instances_.push_back(std::move(instance));
    }
  }

  void reset() {
    for (Instance& instance : instances_) {
      if (instance.cmos) instance.cmos->reset();
      if (instance.diff) instance.diff->reset();
    }
  }

  double trace(const std::uint8_t* pt, const std::uint8_t* key,
               double noise_sigma, Rng& rng) {
    double energy = 0.0;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      pack(i, pt, 0, 1, key);
      cycle(instances_[i], 1, scratch_);
      energy += scratch_.energy[0];
    }
    return energy + noise_sigma * rng.gaussian();
  }

  void trace_batch(const std::uint8_t* pts, std::size_t count,
                   const std::uint8_t* key, double noise_sigma, Rng& rng,
                   double* out) {
    for (std::size_t base = 0; base < count; base += 64) {
      const std::size_t lanes = std::min<std::size_t>(64, count - base);
      if (instances_.size() == 1) {
        // The single-S-box path stored the energy itself.
        pack(0, pts, base, lanes, key);
        cycle(instances_[0], lanes, scratch_);
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          out[base + lane] = scratch_.energy[lane];
        }
        continue;
      }
      for (std::size_t lane = 0; lane < lanes; ++lane) out[base + lane] = 0.0;
      for (std::size_t i = 0; i < instances_.size(); ++i) {
        pack(i, pts, base, lanes, key);
        cycle(instances_[i], lanes, scratch_);
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          out[base + lane] += scratch_.energy[lane];
        }
      }
    }
    if (noise_sigma != 0.0) {
      for (std::size_t t = 0; t < count; ++t) {
        out[t] += noise_sigma * rng.gaussian();
      }
    }
  }

  void trace_batch_sampled(const std::uint8_t* pts, std::size_t count,
                           const std::uint8_t* key, double noise_sigma,
                           Rng& rng, double* rows) {
    const std::size_t width = num_levels_;
    std::fill(rows, rows + count * width, 0.0);
    for (std::size_t base = 0; base < count; base += 64) {
      const std::size_t lanes = std::min<std::size_t>(64, count - base);
      for (std::size_t i = 0; i < instances_.size(); ++i) {
        pack(i, pts, base, lanes, key);
        cycle_sampled(instances_[i], lanes, sampled_);
        for (std::size_t l = 0; l < sampled_.level_energy.size(); ++l) {
          for (std::size_t lane = 0; lane < lanes; ++lane) {
            rows[(base + lane) * width + l] += sampled_.level_energy[l][lane];
          }
        }
      }
    }
    if (noise_sigma != 0.0) {
      for (std::size_t k = 0; k < count * width; ++k) {
        rows[k] += noise_sigma * rng.gaussian();
      }
    }
  }

  std::size_t num_levels() const { return num_levels_; }

 private:
  struct Instance {
    std::unique_ptr<DifferentialCircuitSimBatch> diff;
    std::unique_ptr<CmosCircuitSimBatch> cmos;
    std::unique_ptr<WddlCircuitSimBatch> wddl;
  };

  static std::size_t circuit_levels(const Instance& instance) {
    if (instance.diff) return instance.diff->num_levels();
    if (instance.cmos) return instance.cmos->num_levels();
    return instance.wddl->num_levels();
  }

  // Instance i's (pt XOR key) sub-words of `lanes` adjacent states,
  // transposed into words_.
  void pack(std::size_t i, const std::uint8_t* pts, std::size_t base,
            std::size_t lanes, const std::uint8_t* key) {
    const std::size_t stride = round_.state_bytes();
    const std::size_t subkey = round_.sub_word(key, i);
    std::uint8_t xs[64];
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      xs[lane] = static_cast<std::uint8_t>(
          round_.sub_word(pts + (base + lane) * stride, i) ^ subkey);
    }
    words_.resize(round_.sboxes[i].in_bits);
    pack_lane_words(xs, lanes, words_);
  }

  void cycle(Instance& instance, std::size_t lanes, BatchCycleResult& out) {
    const std::uint64_t mask = lane_mask(lanes);
    if (instance.diff) instance.diff->cycle(words_, mask, out);
    if (instance.cmos) instance.cmos->cycle(words_, mask, out);
    if (instance.wddl) instance.wddl->cycle(words_, mask, out);
  }

  void cycle_sampled(Instance& instance, std::size_t lanes,
                     SampledBatchCycleResult& out) {
    const std::uint64_t mask = lane_mask(lanes);
    if (instance.diff) instance.diff->cycle_sampled(words_, mask, out);
    if (instance.cmos) instance.cmos->cycle_sampled(words_, mask, out);
    if (instance.wddl) instance.wddl->cycle_sampled(words_, mask, out);
  }

  RoundSpec round_;
  std::vector<Instance> instances_;
  std::size_t num_levels_ = 0;
  std::vector<std::uint64_t> words_;
  BatchCycleResult scratch_;
  SampledBatchCycleResult sampled_;
};

}  // namespace sable
