// Experiment E5 (Fig. 6): the enhanced fully connected AND-NAND gate.
//
// Verifies the two §5 claims — constant discharge resistance/depth and no
// early propagation — and quantifies the stated trade-off (area and load
// capacitance increase), at switch level and with the transistor-level
// testbench (delay constancy).
//
// Exits 1 (naming the claim on stderr) unless every decision delay is
// found and the enhanced network's decision-delay spread is below the
// fully connected network's.
#include <cstdio>

#include "core/depth_analysis.hpp"
#include "core/early_propagation.hpp"
#include "core/enhancer.hpp"
#include "core/fc_synthesizer.hpp"
#include "core/resistance.hpp"
#include "expr/parser.hpp"
#include "sabl/testbench.hpp"
#include "switchsim/energy.hpp"
#include "tech/capacitance.hpp"
#include "util/strings.hpp"

using namespace sable;

namespace {

// Time from the evaluation clock edge until |out - outb| exceeds half VDD.
double decision_delay(const SablRunResult& run, std::size_t cycle,
                      double vdd) {
  const double t0 = run.cycle_start[cycle];
  const auto& out = run.waves.v("out");
  const auto& outb = run.waves.v("outb");
  for (std::size_t k = run.waves.sample_at(t0); k < run.waves.time.size();
       ++k) {
    if (std::abs(out[k] - outb[k]) > vdd / 2) {
      return run.waves.time[k] - t0;
    }
  }
  return -1.0;
}

}  // namespace

int main() {
  std::printf("== E5 (Fig. 6): enhanced fully connected AND-NAND ===========\n");
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const Technology tech = Technology::generic_180nm();
  const SizingPlan sizing = SizingPlan::defaults(tech);

  const DpdnNetwork fc = synthesize_fc_dpdn(f, 2);
  const DpdnNetwork enhanced = synthesize_enhanced_dpdn(f, 2);

  std::printf("\nfully connected (Fig. 6 left):\n%s",
              fc.to_string(vars).c_str());
  std::printf("enhanced (Fig. 6 right):\n%s",
              enhanced.to_string(vars).c_str());

  std::printf("\n%-34s %14s %14s\n", "metric", "fully conn.", "enhanced");
  const DepthReport d_fc = analyze_evaluation_depth(fc);
  const DepthReport d_en = analyze_evaluation_depth(enhanced);
  std::printf("%-34s %10zu..%zu %11zu..%zu\n", "evaluation depth (min..max)",
              d_fc.min_depth, d_fc.max_depth, d_en.min_depth, d_en.max_depth);

  const ResistanceReport r_fc = analyze_discharge_resistance(fc);
  const ResistanceReport r_en = analyze_discharge_resistance(enhanced);
  std::printf("%-34s %9.2f..%.2f %9.2f..%.2f\n",
              "discharge resistance [r_on]", r_fc.min_resistance,
              r_fc.max_resistance, r_en.min_resistance, r_en.max_resistance);

  const PathStats p_fc = structural_path_stats(fc);
  const PathStats p_en = structural_path_stats(enhanced);
  std::printf("%-34s %14s %14s\n", "every input on every path",
              p_fc.all_inputs_on_every_path ? "yes" : "NO",
              p_en.all_inputs_on_every_path ? "yes" : "NO");

  const EarlyPropagationReport e_fc = analyze_early_propagation(fc);
  const EarlyPropagationReport e_en = analyze_early_propagation(enhanced);
  char fc_early[24];
  char en_early[24];
  std::snprintf(fc_early, sizeof fc_early, "%zu/%zu", e_fc.early_scenarios,
                e_fc.total_scenarios);
  std::snprintf(en_early, sizeof en_early, "%zu/%zu", e_en.early_scenarios,
                e_en.total_scenarios);
  std::printf("%-34s %14s %14s\n", "early-evaluation scenarios", fc_early,
              en_early);

  std::printf("%-34s %14zu %14zu\n", "devices", fc.device_count(),
              enhanced.device_count());
  std::printf("%-34s %14zu %14zu\n", "dummy devices",
              fc.pass_gate_device_count(),
              enhanced.pass_gate_device_count());
  const double c_fc = total_internal_capacitance(fc, tech, sizing);
  const double c_en = total_internal_capacitance(enhanced, tech, sizing);
  std::printf("%-34s %14s %14s\n", "internal capacitance",
              format_eng(c_fc, "F").c_str(), format_eng(c_en, "F").c_str());
  std::printf("%-34s %13.1f%% %13.1f%%\n", "area/cap overhead vs FC", 0.0,
              (c_en / c_fc - 1.0) * 100.0);

  // Switch-level energy constancy over every assignment, computed with the
  // bit-parallel engine (all assignments run as lanes of one batch cycle).
  const EnergyProfile ep_fc =
      profile_gate_energy(fc, build_gate_model(fc, tech, sizing));
  const EnergyProfile ep_en =
      profile_gate_energy(enhanced, build_gate_model(enhanced, tech, sizing));
  std::printf("%-34s %13.2f%% %13.2f%%\n", "switch-level energy NED",
              ep_fc.spread.ned * 100.0, ep_en.spread.ned * 100.0);
  std::printf("%-34s %14s %14s\n", "mean cycle energy",
              format_eng(ep_fc.spread.mean, "J").c_str(),
              format_eng(ep_en.spread.mean, "J").c_str());

  // Transistor-level: gate decision delay per input event (the §5 claim:
  // "each gate has a constant delay as now both the resistance and the
  // capacitance are independent of the inputs").
  std::printf("\ntransistor-level decision delay per input:\n");
  std::printf("  input    fully conn.      enhanced\n");
  const std::vector<std::uint64_t> seq = {0b00, 0b01, 0b10, 0b11};
  const SablRunResult run_fc = run_sabl_sequence(fc, vars, tech, sizing, seq);
  const SablRunResult run_en =
      run_sabl_sequence(enhanced, vars, tech, sizing, seq);
  double fc_lo = 1e9, fc_hi = 0.0, en_lo = 1e9, en_hi = 0.0;
  for (std::size_t k = 0; k < seq.size(); ++k) {
    const double t_fc = decision_delay(run_fc, k, tech.vdd);
    const double t_en = decision_delay(run_en, k, tech.vdd);
    fc_lo = std::min(fc_lo, t_fc);
    fc_hi = std::max(fc_hi, t_fc);
    en_lo = std::min(en_lo, t_en);
    en_hi = std::max(en_hi, t_en);
    std::printf("  (%llu,%llu)    %-14s %-14s\n",
                (unsigned long long)(seq[k] & 1),
                (unsigned long long)(seq[k] >> 1),
                format_eng(t_fc, "s").c_str(), format_eng(t_en, "s").c_str());
  }
  const double fc_spread = (fc_hi - fc_lo) / fc_hi;
  const double en_spread = (en_hi - en_lo) / en_hi;
  std::printf("  delay spread: FC %.1f%%, enhanced %.1f%%\n",
              fc_spread * 100.0, en_spread * 100.0);
  if (!(fc_lo > 0.0 && en_lo > 0.0)) {
    std::fprintf(stderr,
                 "claim failed: a gate never reached its decision "
                 "threshold\n");
    return 1;
  }
  if (!(en_spread < fc_spread)) {
    std::fprintf(stderr,
                 "claim failed: enhanced decision-delay spread %.17g is not "
                 "below the fully connected spread %.17g\n",
                 en_spread, fc_spread);
    return 1;
  }
  return 0;
}
