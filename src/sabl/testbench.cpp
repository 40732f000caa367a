#include "sabl/testbench.hpp"

#include "spice/measure.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace sable {

namespace {

constexpr double kEdge = 50e-12;         ///< stimulus rise/fall time [s]
constexpr double kInputDelay = 250e-12;  ///< stage delay: the overlap [s]
constexpr std::size_t kWarmupCycles = 2;

// PWL rail for one input literal over the padded input sequence.
// For cycle k the literal is `level` during the window
// [kT + d, kT + T/2 + d] (d = kInputDelay), with kEdge-long transitions.
spice::Waveform input_waveform(const std::vector<bool>& level_per_cycle,
                               double vdd, double period) {
  // Dynamic-logic rails return to 0 every precharge, so the high windows of
  // consecutive cycles never abut: each active cycle is a separate pulse.
  std::vector<std::pair<double, double>> pts;
  pts.emplace_back(0.0, 0.0);
  for (std::size_t k = 0; k < level_per_cycle.size(); ++k) {
    if (!level_per_cycle[k]) continue;
    const double t0 = static_cast<double>(k) * period + kInputDelay;
    const double t1 = t0 + period / 2;  // hold into the precharge phase
    pts.emplace_back(t0, 0.0);
    pts.emplace_back(t0 + kEdge, vdd);
    pts.emplace_back(t1, vdd);
    pts.emplace_back(t1 + kEdge, 0.0);
  }
  return spice::Waveform::pwl(std::move(pts));
}

// Full-swing rail for CVSL: holds the cycle's level for the whole period.
spice::Waveform static_waveform(const std::vector<bool>& level_per_cycle,
                                double vdd, double period) {
  std::vector<std::pair<double, double>> pts;
  double current = level_per_cycle.empty() || !level_per_cycle[0] ? 0.0 : vdd;
  pts.emplace_back(0.0, current);
  for (std::size_t k = 1; k < level_per_cycle.size(); ++k) {
    const double target = level_per_cycle[k] ? vdd : 0.0;
    if (target == current) continue;
    const double t = static_cast<double>(k) * period;
    pts.emplace_back(t, current);
    pts.emplace_back(t + kEdge, target);
    current = target;
  }
  return spice::Waveform::pwl(std::move(pts));
}

// The run shared by both gates: the supply, the clock (precharged gates
// only), one rail per input literal over the warm-up-padded sequence, the
// transient, and the supply measurements of every measured cycle.
// Precharged rails return to 0 every cycle; static rails hold their level.
template <class Gate>
SablRunResult run_gate(Gate gate, std::size_t num_vars, double vdd,
                       const std::vector<std::uint64_t>& inputs,
                       double period, bool precharged) {
  SABLE_REQUIRE(!inputs.empty(), "testbench requires at least one input");
  // Each half period holds one full stimulus edge; at a shorter period the
  // rails' breakpoints (and the clock's high phase) stop increasing.
  SABLE_REQUIRE(period > 2 * kEdge,
                "testbench period must exceed twice the " +
                    format_eng(kEdge, "s") + " stimulus edge, got " +
                    format_eng(period, "s"));
  std::vector<std::uint64_t> padded(kWarmupCycles, inputs.front());
  padded.insert(padded.end(), inputs.begin(), inputs.end());
  spice::Circuit& ckt = gate.circuit;

  ckt.add_vsource("vdd", "vdd", "0", spice::Waveform::dc(vdd));
  if (precharged) {
    // clk: high (evaluation) during the first half of each period.
    ckt.add_vsource("clk", "clk", "0",
                    spice::Waveform::pulse(0.0, vdd, 0.0, kEdge, kEdge,
                                           period / 2 - kEdge, period));
  }
  const auto rail = precharged ? input_waveform : static_waveform;
  for (VarId v = 0; v < num_vars; ++v) {
    std::vector<bool> lvl_true;
    std::vector<bool> lvl_false;
    lvl_true.reserve(padded.size());
    lvl_false.reserve(padded.size());
    for (std::uint64_t a : padded) {
      const bool bit = (a >> v) & 1u;
      lvl_true.push_back(bit);
      lvl_false.push_back(!bit);
    }
    ckt.add_vsource("v" + gate.input_true[v], gate.input_true[v], "0",
                    rail(lvl_true, vdd, period));
    ckt.add_vsource("v" + gate.input_false[v], gate.input_false[v], "0",
                    rail(lvl_false, vdd, period));
  }

  spice::TransientOptions tran;
  tran.t_stop = static_cast<double>(padded.size()) * period;
  tran.dt = kTestbenchDt;
  SablRunResult out;
  out.period = period;
  out.waves = spice::run_transient(ckt, tran);
  const spice::TranResult& waves = out.waves;
  out.cycles.reserve(inputs.size());
  out.cycle_start.reserve(inputs.size());
  for (std::size_t k = kWarmupCycles; k < padded.size(); ++k) {
    const double t0 = static_cast<double>(k) * period;
    const double t1 = t0 + period;
    CycleMeasurement m;
    m.assignment = padded[k];
    m.energy = spice::delivered_energy(waves, "vdd", t0, t1);
    m.charge = spice::delivered_charge(waves, "vdd", t0, t1);
    m.peak_current = spice::peak_delivered_current(waves, "vdd", t0, t1);
    if (precharged) {
      m.recharged_capacitance =
          spice::delivered_charge(waves, "vdd", t0 + period / 2, t1) / vdd;
    }
    out.cycles.push_back(m);
    out.cycle_start.push_back(t0);
  }
  return out;
}

}  // namespace

std::vector<double> cycle_energies(const SablRunResult& run) {
  std::vector<double> energies;
  energies.reserve(run.cycles.size());
  for (const CycleMeasurement& c : run.cycles) energies.push_back(c.energy);
  return energies;
}

SablRunResult run_sabl_sequence(const DpdnNetwork& net, const VarTable& vars,
                                const Technology& tech,
                                const SizingPlan& sizing,
                                const std::vector<std::uint64_t>& inputs,
                                const TestbenchOptions& options) {
  return run_gate(assemble_sabl_gate(net, vars, tech, sizing), net.num_vars(),
                  tech.vdd, inputs, options.period, /*precharged=*/true);
}

SablRunResult run_cvsl_sequence(const DpdnNetwork& net, const VarTable& vars,
                                const Technology& tech,
                                const SizingPlan& sizing,
                                const std::vector<std::uint64_t>& inputs,
                                const TestbenchOptions& options) {
  return run_gate(assemble_cvsl_gate(net, vars, tech, sizing), net.num_vars(),
                  tech.vdd, inputs, options.period, /*precharged=*/false);
}

}  // namespace sable
