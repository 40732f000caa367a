// Designing a constant-power cipher substitution layer.
//
// Takes the PRESENT S-box (the nonlinear layer of a lightweight block
// cipher), minimizes each output bit, synthesizes a fully connected complex
// gate per bit with the §4.1 method, verifies all properties, and prints a
// little datasheet — the flow a library developer would run to harden a
// crypto datapath.
#include <cstdio>

#include "core/checks.hpp"
#include "core/depth_analysis.hpp"
#include "core/enhancer.hpp"
#include "core/fc_synthesizer.hpp"
#include "crypto/sboxes.hpp"
#include "expr/factoring.hpp"
#include "expr/printer.hpp"
#include "switchsim/energy.hpp"
#include "tech/capacitance.hpp"
#include "util/strings.hpp"

using namespace sable;

int main() {
  const SboxSpec spec = present_spec();
  const Technology tech = Technology::generic_180nm();
  const SizingPlan sizing = SizingPlan::defaults(tech);
  const VarTable vars = VarTable::alphabetic(spec.in_bits);

  std::printf("PRESENT S-box as %zu fully connected SABL complex gates\n\n",
              spec.out_bits);
  std::printf("%-4s %-34s %4s %5s %6s %9s %8s\n", "bit", "factored function",
              "dev", "nodes", "depth", "Cint", "NED");

  for (std::size_t bit = 0; bit < spec.out_bits; ++bit) {
    const TruthTable t = sbox_output_bit(spec, bit);
    const ExprPtr f = factored_form(t);
    const DpdnNetwork net = synthesize_fc_dpdn(f, spec.in_bits);

    if (!check_functionality(net, f).ok ||
        !check_full_connectivity(net).fully_connected) {
      std::printf("bit %zu: VERIFICATION FAILED\n", bit);
      return 1;
    }
    const DepthReport depth = analyze_evaluation_depth(net);
    const GateEnergyModel model = build_gate_model(net, tech, sizing);
    const EnergyProfile profile = profile_gate_energy(net, model);
    std::printf("y%zu   %-34s %4zu %5zu %3zu..%zu %9s %7.2f%%\n", bit,
                to_string(f, vars).c_str(), net.device_count(),
                net.internal_node_count(), depth.min_depth, depth.max_depth,
                format_eng(total_internal_capacitance(net, tech, sizing), "F")
                    .c_str(),
                profile.spread.ned * 100.0);
  }

  std::printf("\nWith the enhancement (constant depth, Fig. 6 style):\n");
  std::printf("%-4s %4s %6s %6s %8s\n", "bit", "dev", "dummy", "depth",
              "NED");
  for (std::size_t bit = 0; bit < spec.out_bits; ++bit) {
    const TruthTable t = sbox_output_bit(spec, bit);
    const DpdnNetwork net = synthesize_enhanced_from_table(t);
    const DepthReport depth = analyze_evaluation_depth(net);
    const GateEnergyModel model = build_gate_model(net, tech, sizing);
    const EnergyProfile profile = profile_gate_energy(net, model);
    std::printf("y%zu   %4zu %6zu %4zu:%zu %7.2f%%\n", bit,
                net.device_count(), net.pass_gate_device_count(),
                depth.min_depth, depth.max_depth, profile.spread.ned * 100.0);
  }
  std::printf(
      "\nAll gates are memoryless: every internal node discharges and\n"
      "recharges each cycle, so the substitution layer draws the same\n"
      "charge regardless of the processed nibble.\n");
  return 0;
}
