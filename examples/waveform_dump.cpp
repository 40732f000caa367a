// Dumps the Fig. 3 waveforms as CSV for plotting.
//
// Runs the transistor-level SABL AND-NAND gate through the (0,1)-input and
// (1,1)-input events of the paper's Fig. 3 and writes time, output
// voltages, DPDN node voltages and the supply current to stdout (redirect
// to a file and plot with any tool).
//
//   example_waveform_dump [PERIOD]   clock period in seconds (default 4e-9;
//                                    above 1e-10, two 50 ps stimulus edges)
#include <cstdio>
#include <string>

#include "core/fc_synthesizer.hpp"
#include "expr/parser.hpp"
#include "parse_number.hpp"
#include "sabl/testbench.hpp"
#include "util/error.hpp"

using namespace sable;

int main(int argc, char** argv) {
  TestbenchOptions opt;
  if (argc > 2) {
    std::fprintf(stderr, "usage: %s [PERIOD]\n", argv[0]);
    return 2;
  }
  if (argc > 1) {
    if (!parse_number("PERIOD", argv[1], &opt.period)) return 2;
    if (opt.period <= 0.0) {
      std::fprintf(stderr, "PERIOD must be positive, got '%s'\n", argv[1]);
      return 2;
    }
  }

  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork net = synthesize_fc_dpdn(f, 2);
  const Technology tech = Technology::generic_180nm();
  const SizingPlan sizing = SizingPlan::defaults(tech);

  // Fig. 3: (0,1)-input (A=0, B=1 -> assignment 0b10) then (1,1).
  const std::vector<std::uint64_t> seq = {0b10, 0b11};
  SablRunResult run;
  try {
    run = run_sabl_sequence(net, vars, tech, sizing, seq, opt);
  } catch (const InvalidArgument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const auto& w = run.waves;

  std::printf("time_ns,clk,out,outb,x,y,z,w_internal,i_vdd_uA\n");
  const double t0 = run.cycle_start.front();
  for (std::size_t k = 0; k < w.time.size(); ++k) {
    if (w.time[k] < t0) continue;  // skip warm-up cycles
    std::printf("%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.2f\n",
                (w.time[k] - t0) * 1e9, w.v("clk")[k], w.v("out")[k],
                w.v("outb")[k], w.v("x")[k], w.v("y")[k], w.v("z")[k],
                w.v("n_W1")[k], -w.i("vdd")[k] * 1e6);
  }
  std::fprintf(stderr,
               "cycle energies: (0,1) -> %.4g pJ, (1,1) -> %.4g pJ\n",
               run.cycles[0].energy * 1e12, run.cycles[1].energy * 1e12);
  return 0;
}
