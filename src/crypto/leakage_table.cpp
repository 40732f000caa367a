#include "crypto/leakage_table.hpp"

#include <algorithm>

#include "cell/circuit_sim.hpp"
#include "cell/wddl.hpp"
#include "crypto/round_target.hpp"
#include "switchsim/cycle_sim.hpp"
#include "util/error.hpp"

namespace sable {

namespace {

// Calls fn(sim) with a 64-lane simulator of `style`'s energy model.
template <typename Fn>
void with_simulator(const GateCircuit& circuit, LogicStyle style,
                    const Technology& tech, std::uint64_t wddl_seed,
                    Fn&& fn) {
  switch (style) {
    case LogicStyle::kStaticCmos: {
      // One transition's worth of switching energy for a typical cell
      // load: ~5 fF at the reference VDD.
      const double c_sw = 5e-15;
      CmosCircuitSimBatch sim(circuit, c_sw * tech.vdd * tech.vdd);
      fn(sim);
      return;
    }
    case LogicStyle::kWddlBalanced:
    case LogicStyle::kWddlMismatched: {
      const double mismatch =
          style == LogicStyle::kWddlMismatched ? 0.05 : 0.0;
      WddlCircuitSimBatch sim(circuit, tech, mismatch, wddl_seed);
      fn(sim);
      return;
    }
    case LogicStyle::kSablGenuine:
    case LogicStyle::kSablFullyConnected:
    case LogicStyle::kSablEnhanced: {
      DifferentialCircuitSimBatch sim(circuit);
      fn(sim);
      return;
    }
  }
  SABLE_UNREACHABLE("unreachable logic style");
}

// Simulates table rows [0, n) into out[row * width ...]: the no-history
// rows x (pairs = false) or the pair rows (previous << bits) | x, each
// block of 64 rows from fresh state (only static CMOS's state enters its
// energy). A pair row's lane first cycles its
// previous input, so the second cycle sees exactly the history a campaign
// lane would. width = 0 takes the scalar cycle energy, otherwise the
// `width` per-level energies of cycle_sampled.
template <typename Sim>
void tabulate(Sim& sim, std::size_t bits, bool pairs, std::size_t width,
              double* out) {
  const std::size_t n = std::size_t{1} << (pairs ? 2 * bits : bits);
  const std::size_t in_mask = (std::size_t{1} << bits) - 1;
  std::vector<std::uint64_t> words(bits);
  BatchCycleResult scalar;
  SampledBatchCycleResult sampled;
  std::uint8_t xs[64];
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, n - base);
    const std::uint64_t mask = lane_mask(lanes);
    sim.reset();
    if (pairs) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        xs[lane] = static_cast<std::uint8_t>((base + lane) >> bits);
      }
      pack_lane_words(xs, lanes, words);
      sim.cycle(words, mask, scalar);
    }
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      xs[lane] = static_cast<std::uint8_t>((base + lane) & in_mask);
    }
    pack_lane_words(xs, lanes, words);
    if (width == 0) {
      sim.cycle(words, mask, scalar);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        out[base + lane] = scalar.energy[lane];
      }
    } else {
      sim.cycle_sampled(words, mask, sampled);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        for (std::size_t l = 0; l < width; ++l) {
          out[(base + lane) * width + l] = sampled.level_energy[l][lane];
        }
      }
    }
  }
}

}  // namespace

LeakageTable::LeakageTable(std::shared_ptr<const GateCircuit> circuit,
                           LogicStyle style, const Technology& tech,
                           std::uint64_t wddl_seed)
    : circuit_(std::move(circuit)),
      style_(style),
      tech_(tech),
      wddl_seed_(wddl_seed),
      in_bits_(circuit_->num_primary_inputs()),
      history_(style == LogicStyle::kStaticCmos) {
  SABLE_REQUIRE(in_bits_ >= 1 && in_bits_ <= 8,
                "leakage tables cover circuits of 1..8 inputs");
  const std::size_t inputs = std::size_t{1} << in_bits_;
  energies_.assign(history_ ? inputs + inputs * inputs : inputs, 0.0);
  with_simulator(*circuit_, style_, tech_, wddl_seed_, [&](auto& sim) {
    num_levels_ = sim.num_levels();
    tabulate(sim, in_bits_, false, 0, energies_.data());
    if (history_) tabulate(sim, in_bits_, true, 0, energies_.data() + inputs);
  });
}

std::span<const double> LeakageTable::settled_energies() const {
  return history_ ? energies().subspan(std::size_t{1} << in_bits_)
                  : energies();
}

std::span<const double> LeakageTable::level_energies() const {
  std::call_once(levels_once_, [this] {
    const std::size_t inputs = std::size_t{1} << in_bits_;
    level_energies_.assign(num_rows() * num_levels_, 0.0);
    if (num_levels_ == 0) return;
    with_simulator(*circuit_, style_, tech_, wddl_seed_, [&](auto& sim) {
      tabulate(sim, in_bits_, false, num_levels_, level_energies_.data());
      if (history_) {
        tabulate(sim, in_bits_, true, num_levels_,
                 level_energies_.data() + inputs * num_levels_);
      }
    });
  });
  return level_energies_;
}

}  // namespace sable
