// Transient testbenches for SABL and CVSL gates.
//
// SABL timing per cycle (period T):
//   [kT, kT+T/2)    evaluation: clk high; the cycle's complementary input
//                   appears 250 ps (one stage delay) after the clk edge (it
//                   is produced by the previous pipeline stage, which must
//                   evaluate first);
//   [kT+T/2, (k+1)T) precharge: clk low; the inputs *stay* complementary for
//                   that stage delay (the previous stage takes that long to
//                   precharge its outputs to 0) — this overlap window is
//                   when the supply recharges the DPDN nodes that the
//                   evaluation discharged — and then return to 0.
// Every stimulus edge takes 50 ps, and two warm-up copies of the first
// input precede the measured cycles. Each half period must hold a full
// edge, so both testbenches throw InvalidArgument for a period of 100 ps
// or less.
//
// Per-cycle measurements: supply energy and charge over the cycle, the peak
// supply current, and the effective recharged capacitance q_precharge / VDD,
// which is the paper's Fig. 4 "C_tot".
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/network.hpp"
#include "sabl/cvsl_gate.hpp"
#include "sabl/sabl_gate.hpp"
#include "spice/transient.hpp"

namespace sable {

/// Integration step of every testbench transient [s].
inline constexpr double kTestbenchDt = 2e-12;

struct TestbenchOptions {
  double period = 4e-9;  ///< clock period [s]; must exceed 100 ps
};

struct CycleMeasurement {
  std::uint64_t assignment = 0;
  double energy = 0.0;          ///< supply energy over the cycle [J]
  double charge = 0.0;          ///< supply charge over the cycle [C]
  double peak_current = 0.0;    ///< peak supply current [A]
  /// Supply charge of the precharge phase divided by VDD — the total
  /// capacitance recharged after the discharge event (Fig. 4's C_tot) [F].
  double recharged_capacitance = 0.0;
};

struct SablRunResult {
  spice::TranResult waves;
  /// One entry per *measured* cycle (warm-up cycles excluded).
  std::vector<CycleMeasurement> cycles;
  /// Start time of measured cycle k in `waves`.
  std::vector<double> cycle_start;
  double period = 0.0;
};

/// Per-cycle supply energies of a run in cycle order — the SPICE-level
/// power-trace samples (the transistor-level counterpart of the switch-
/// level trace engine's samples; used for calibration and spread metrics).
std::vector<double> cycle_energies(const SablRunResult& run);

/// Simulates the SABL gate of `net` over the complementary input sequence.
SablRunResult run_sabl_sequence(const DpdnNetwork& net, const VarTable& vars,
                                const Technology& tech,
                                const SizingPlan& sizing,
                                const std::vector<std::uint64_t>& inputs,
                                const TestbenchOptions& options = {});

/// Simulates the static CVSL gate over an input sequence (one assignment per
/// period, full-swing transitions, no precharge). Energy is measured per
/// transition window.
SablRunResult run_cvsl_sequence(const DpdnNetwork& net, const VarTable& vars,
                                const Technology& tech,
                                const SizingPlan& sizing,
                                const std::vector<std::uint64_t>& inputs,
                                const TestbenchOptions& options = {});

}  // namespace sable
