// Tabulated leakage: the exact cycle energies of one synthesized S-box
// circuit under one energy model, for every input the circuit can see.
//
// Every built-in logic style's cycle energy depends on a tiny state:
//  - SABL (genuine, fully connected, enhanced) and WDDL are memoryless:
//    the energy is a function of the input x = sub-plaintext XOR subkey
//    alone. SablGateSimBatch writes its node-charge state but never reads
//    it for energy, and WDDL keeps no cross-cycle state.
//  - Static CMOS draws energy on every rising gate output, so its energy
//    is a function of (previous input of the same lane, x), plus a
//    no-history value for a lane's first cycle after a reset.
//
// A LeakageTable holds one row per such state. The rows are computed once
// by running the 64-lane batch simulators over every input (and, for
// static CMOS, every input pair), so each stored double IS the kernel's
// result for that state. The per-lane kernel arithmetic never depends on
// the other lanes, so a round target that sums rows in the kernels'
// instance order reproduces direct simulation bit for bit — that is how
// campaigns generate traces (crypto/round_target.hpp). The switch-level
// simulators only build tables and serve as the test oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cell/circuit.hpp"
#include "tech/technology.hpp"

namespace sable {

enum class LogicStyle;  // crypto/round_target.hpp

class LeakageTable {
 public:
  /// Tabulates `circuit` (1–8 primary inputs) in `style`. `wddl_seed`
  /// seeds the WDDL rail-imbalance draw and is ignored by other styles.
  LeakageTable(std::shared_ptr<const GateCircuit> circuit, LogicStyle style,
               const Technology& tech, std::uint64_t wddl_seed);

  LeakageTable(const LeakageTable&) = delete;
  LeakageTable& operator=(const LeakageTable&) = delete;

  const GateCircuit& circuit() const { return *circuit_; }
  const std::shared_ptr<const GateCircuit>& shared_circuit() const {
    return circuit_;
  }

  /// True for static CMOS: a lane's energy also depends on the input it
  /// held in its previous cycle, so rows come in (previous, x) pairs.
  bool has_history() const { return history_; }

  /// Rows: 2^in_bits input rows, plus 4^in_bits pair rows with history.
  std::size_t num_rows() const { return energies_.size(); }

  /// Row x holds input x in a lane with no previous input (for the
  /// memoryless styles: every cycle). row(previous, x) holds input x in a
  /// lane whose previous input was `previous` (has_history() only).
  std::size_t row(std::size_t previous, std::size_t x) const {
    return (std::size_t{1} << in_bits_) + ((previous << in_bits_) | x);
  }

  /// energies()[r]: the cycle energy [J] of row r.
  std::span<const double> energies() const { return energies_; }

  /// The rows a lane sees once it has history: every input for the
  /// memoryless styles, every (previous, current) input pair for static
  /// CMOS — the exact per-cycle energy distribution under uniform inputs,
  /// the population NED/NSD (power/stats.hpp) are defined over.
  std::span<const double> settled_energies() const;

  /// Samples per time-resolved row: the circuit's logic depth.
  std::size_t num_levels() const { return num_levels_; }

  /// level_energies()[r * num_levels() + l]: row r's energy drawn at logic
  /// level l — the per-level split the simulators' cycle_sampled reports.
  /// Built on the first call (an 8-bit static CMOS table holds 65,536 pair
  /// rows per level); safe to call concurrently.
  std::span<const double> level_energies() const;

 private:
  std::shared_ptr<const GateCircuit> circuit_;
  LogicStyle style_;
  Technology tech_;
  std::uint64_t wddl_seed_;
  std::size_t in_bits_;
  bool history_;
  std::size_t num_levels_ = 0;
  std::vector<double> energies_;
  mutable std::once_flag levels_once_;
  mutable std::vector<double> level_energies_;
};

}  // namespace sable
