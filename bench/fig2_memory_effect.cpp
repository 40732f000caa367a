// Experiment E1 + E7 (Fig. 2 and the §2 CVSL claim).
//
// Part 1 — switch-level: the genuine vs. fully connected AND-NAND gate.
// Reproduces the Fig. 2 narrative: node W floats exactly for the (0,0)
// input event of the genuine network, producing input-dependent recharge
// capacitance; the repositioned-M2 network discharges W always.
//
// Part 2 — transistor-level: the CVSL AND-NAND gate (§2 cites a variation
// "as large as 50%" for its per-event power) vs. the SABL-FC gate, both
// simulated with the mini-SPICE engine over all input events.
//
// Exits 1 (naming the claim on stderr) unless the genuine network shows
// the memory effect, the fully connected one is memoryless, and the
// fully connected NED is below the genuine one.
#include <algorithm>
#include <cstdio>

#include "core/fc_synthesizer.hpp"
#include "core/genuine_builder.hpp"
#include "core/memory_effect.hpp"
#include "expr/parser.hpp"
#include "netlist/conduction.hpp"
#include "power/stats.hpp"
#include "sabl/testbench.hpp"
#include "switchsim/energy.hpp"
#include "util/strings.hpp"

using namespace sable;

namespace {

// Returns whether the Fig. 2 claim holds.
bool part1_switch_level() {
  std::printf("== E1 (Fig. 2): memory effect, switch-level =================\n");
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const Technology tech = Technology::generic_180nm();
  const SizingPlan sizing = SizingPlan::defaults(tech);
  bool memoryless[2] = {};  // [genuine, fully connected]
  double ned[2] = {};

  for (const bool fully_connected : {false, true}) {
    const DpdnNetwork net = fully_connected ? synthesize_fc_dpdn(f, 2)
                                            : build_genuine_dpdn(f, 2);
    const MemoryEffectReport mem = analyze_memory_effect(net);
    const GateEnergyModel model = build_gate_model(net, tech, sizing);
    // Batch-backed profile: all four assignments run as lanes of a single
    // bit-parallel cycle, as does the discharge-set query below.
    const EnergyProfile profile = profile_gate_energy(net, model);
    const std::uint64_t assignments[4] = {0, 1, 2, 3};  // lane = assignment
    std::vector<std::uint64_t> var_words(2, 0);
    pack_lane_words(assignments, 4, var_words);
    const auto connected = connected_to_external_batch(net, var_words);

    std::printf("\n%s AND-NAND network:\n",
                fully_connected ? "fully connected" : "genuine");
    std::printf("  input (A,B)   W discharges   cycle energy\n");
    for (std::uint64_t a = 0; a < 4; ++a) {
      std::printf("  (%llu,%llu)         %-3s            %s\n",
                  (unsigned long long)(a & 1), (unsigned long long)(a >> 1),
                  ((connected[3] >> a) & 1u) != 0 ? "yes" : "NO",
                  format_eng(profile.energy_per_input[a], "J").c_str());
    }
    std::printf("  memoryless: %s | discharge classes: %zu | NED = %.2f%%\n",
                mem.memoryless ? "yes" : "NO", mem.num_discharge_classes,
                profile.spread.ned * 100.0);
    memoryless[fully_connected] = mem.memoryless;
    ned[fully_connected] = profile.spread.ned;
  }
  bool holds = true;
  if (memoryless[0]) {
    std::fprintf(stderr, "claim failed: the genuine network is memoryless\n");
    holds = false;
  }
  if (!memoryless[1]) {
    std::fprintf(stderr,
                 "claim failed: the fully connected network has memory\n");
    holds = false;
  }
  if (!(ned[1] < ned[0])) {
    std::fprintf(stderr,
                 "claim failed: fully connected NED %.17g is not below the "
                 "genuine NED %.17g\n",
                 ned[1], ned[0]);
    holds = false;
  }
  return holds;
}

void part2_spice_cvsl() {
  std::printf("\n== E7 (paper §2): CVSL vs SABL-FC per-event energy, SPICE ===\n");
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const Technology tech = Technology::generic_180nm();
  const SizingPlan sizing = SizingPlan::defaults(tech);
  // Walk through every input event (transition between assignments).
  const std::vector<std::uint64_t> seq = {0b00, 0b01, 0b00, 0b10, 0b00, 0b11,
                                          0b01, 0b10, 0b01, 0b11, 0b10, 0b11,
                                          0b00};

  const DpdnNetwork genuine = build_genuine_dpdn(f, 2);
  const SablRunResult cvsl =
      run_cvsl_sequence(genuine, vars, tech, sizing, seq);
  std::printf("\nCVSL AND-NAND (static, genuine DPDN):\n");
  std::printf("  event -> input   transition energy\n");
  for (std::size_t k = 1; k < cvsl.cycles.size(); ++k) {
    std::printf("  (%llu,%llu) -> (%llu,%llu)   %s\n",
                (unsigned long long)(cvsl.cycles[k - 1].assignment & 1),
                (unsigned long long)(cvsl.cycles[k - 1].assignment >> 1),
                (unsigned long long)(cvsl.cycles[k].assignment & 1),
                (unsigned long long)(cvsl.cycles[k].assignment >> 1),
                format_eng(cvsl.cycles[k].energy, "J").c_str());
  }
  const std::vector<double> energies = cycle_energies(cvsl);
  std::vector<double> cvsl_all(energies.begin() + 1, energies.end());
  std::vector<double> cvsl_consuming;
  for (double e : cvsl_all) {
    if (e > 1e-15) cvsl_consuming.push_back(e);
  }
  const SpreadMetrics m_all = spread_metrics(cvsl_all);
  const SpreadMetrics m_consuming = spread_metrics(cvsl_consuming);
  std::printf(
      "  variation over all events (NED): %.1f%% (static logic: some events"
      " are free)\n",
      m_all.ned * 100.0);
  std::printf(
      "  variation over supply-consuming events: %.1f%%  (paper: \"can be as"
      " large as 50%%\")\n",
      m_consuming.ned * 100.0);

  const DpdnNetwork fc = synthesize_fc_dpdn(f, 2);
  const SablRunResult sabl = run_sabl_sequence(fc, vars, tech, sizing, seq);
  std::printf("\nSABL with fully connected DPDN (dynamic):\n");
  std::printf("  per-cycle energy NED: %.2f%%\n",
              spread_metrics(cycle_energies(sabl)).ned * 100.0);
}

}  // namespace

int main() {
  const bool holds = part1_switch_level();
  part2_spice_cvsl();
  return holds ? 0 : 1;
}
