// Experiment E2 + E6 (Fig. 3 / Fig. 1 conditions).
//
// Transient simulation of the SABL AND-NAND gate for the paper's two input
// events, (0,1) and (1,1): prints a down-sampled table of the output
// voltages and the supply current for both events side by side, then the
// per-event summary (peak current, charge, energy). The paper's claim: the
// instantaneous output voltages and supply current are indistinguishable
// between the events. Also verifies §2 condition 1 across all four inputs:
// exactly one full charging event per cycle.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/fc_synthesizer.hpp"
#include "expr/parser.hpp"
#include "sabl/testbench.hpp"
#include "util/strings.hpp"

using namespace sable;

int main() {
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork net = synthesize_fc_dpdn(f, 2);
  const Technology tech = Technology::generic_180nm();
  const SizingPlan sizing = SizingPlan::defaults(tech);
  TestbenchOptions opt;

  std::printf("== E2 (Fig. 3): SABL AND-NAND transient =====================\n");
  // (0,1)-input: A=0, B=1 -> assignment bit A=0 -> 0b10; (1,1) -> 0b11.
  const std::vector<std::uint64_t> seq = {0b10, 0b11};
  const SablRunResult run = run_sabl_sequence(net, vars, tech, sizing, seq,
                                              opt);
  const auto& w = run.waves;

  std::printf("\n  t[ns]   | (0,1): out   out'  i_vdd[uA] | (1,1): out   out'  i_vdd[uA]\n");
  const double t0 = run.cycle_start[0];
  const double t1 = run.cycle_start[1];
  for (double dt = 0.0; dt < opt.period; dt += opt.period / 20) {
    const std::size_t k0 = w.sample_at(t0 + dt);
    const std::size_t k1 = w.sample_at(t1 + dt);
    std::printf("  %6.2f  |   %5.2f %5.2f   %8.1f  |   %5.2f %5.2f   %8.1f\n",
                dt * 1e9, w.v("out")[k0], w.v("outb")[k0],
                -w.i("vdd")[k0] * 1e6, w.v("out")[k1], w.v("outb")[k1],
                -w.i("vdd")[k1] * 1e6);
  }

  // Quantitative overlap of the supply current profiles.
  double max_dev = 0.0;
  double peak = 0.0;
  for (double dt = 0.0; dt < opt.period; dt += kTestbenchDt) {
    const double i0 = -w.i("vdd")[w.sample_at(t0 + dt)];
    const double i1 = -w.i("vdd")[w.sample_at(t1 + dt)];
    max_dev = std::max(max_dev, std::fabs(i0 - i1));
    peak = std::max({peak, std::fabs(i0), std::fabs(i1)});
  }
  std::printf("\n  supply-current profile max |i(0,1) - i(1,1)|: %s (peak %s -> %.1f%%)\n",
              format_eng(max_dev, "A").c_str(), format_eng(peak, "A").c_str(),
              100.0 * max_dev / peak);

  std::printf("\n  per-event summary:\n");
  std::printf("  input   energy       charge      peak i_vdd\n");
  for (const auto& c : run.cycles) {
    std::printf("  (%llu,%llu)   %-12s %-11s %s\n",
                (unsigned long long)(c.assignment & 1),
                (unsigned long long)(c.assignment >> 1),
                format_eng(c.energy, "J").c_str(),
                format_eng(c.charge, "C").c_str(),
                format_eng(c.peak_current, "A").c_str());
  }

  std::printf("\n== E6 (Fig. 1 / §2): one charging event per cycle ===========\n");
  const std::vector<std::uint64_t> all = {0b00, 0b01, 0b10, 0b11,
                                          0b11, 0b00};
  const SablRunResult every = run_sabl_sequence(net, vars, tech, sizing, all,
                                                opt);
  std::printf("  input   cycle charge (each cycle must draw one full packet)\n");
  for (const auto& c : every.cycles) {
    std::printf("  (%llu,%llu)   %s\n", (unsigned long long)(c.assignment & 1),
                (unsigned long long)(c.assignment >> 1),
                format_eng(c.charge, "C").c_str());
  }
  return 0;
}
