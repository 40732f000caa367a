// Experiment E4 (Fig. 5): the OAI22 design example.
//
// Runs both design methods on the complex differential network of the
// or-and-invert gate with 2+2 inputs, prints the resulting netlists, and
// verifies the paper's stated invariants: identical results from both
// methods, preserved device count, full connectivity, and the unrolled
// branch expressions of the figure.
//
// Exits 1 (naming the claim on stderr) unless the two methods give the
// same network and the transformation preserves the device count.
#include <cstdio>

#include "core/checks.hpp"
#include "core/depth_analysis.hpp"
#include "core/fc_synthesizer.hpp"
#include "core/genuine_builder.hpp"
#include "core/transformer.hpp"
#include "expr/parser.hpp"
#include "expr/printer.hpp"
#include "netlist/conduction.hpp"

using namespace sable;

int main() {
  std::printf("== E4 (Fig. 5): OAI22 design example ========================\n");
  VarTable vars;
  const ExprPtr f = parse_expression("(A+B).(C+D)", vars);

  const DpdnNetwork genuine = build_genuine_dpdn(f, 4);
  std::printf("\ngenuine differential network (input, %zu devices):\n%s",
              genuine.device_count(), genuine.to_string(vars).c_str());
  const DepthReport genuine_depth = analyze_evaluation_depth(genuine);
  std::printf("  fully connected: %s | depth %zu..%zu\n",
              check_full_connectivity(genuine).fully_connected ? "yes" : "NO",
              genuine_depth.min_depth, genuine_depth.max_depth);

  // Method 4.1.
  const DpdnNetwork direct = synthesize_fc_dpdn(f, 4);
  std::printf("\nmethod 4.1 (from expression, %zu devices):\n%s",
              direct.device_count(), direct.to_string(vars).c_str());

  // Method 4.2.
  const TransformResult transformed =
      transform_to_fully_connected(genuine, vars);
  std::printf("\nmethod 4.2 (from schematic):\n");
  for (const auto& step : transformed.steps) {
    std::printf("  %s\n", step.c_str());
  }

  bool identical =
      transformed.network.device_count() == direct.device_count();
  for (std::size_t i = 0; identical && i < direct.devices().size(); ++i) {
    identical = transformed.network.devices()[i].gate ==
                    direct.devices()[i].gate &&
                transformed.network.devices()[i].a == direct.devices()[i].a &&
                transformed.network.devices()[i].b == direct.devices()[i].b;
  }

  const TruthTable fx =
      conduction_function(direct, DpdnNetwork::kNodeX, DpdnNetwork::kNodeZ);
  const TruthTable fy =
      conduction_function(direct, DpdnNetwork::kNodeY, DpdnNetwork::kNodeZ);
  const DepthReport depth = analyze_evaluation_depth(direct);

  std::printf("\nresults:\n");
  std::printf("  both methods identical:        %s\n", identical ? "yes" : "NO");
  std::printf("  device count preserved (8->8): %s\n",
              transformed.device_count_preserved ? "yes" : "NO");
  std::printf("  functionality:                 %s\n",
              check_functionality(direct, f).ok ? "OK" : "FAIL");
  std::printf("  fully connected:               %s\n",
              check_full_connectivity(direct).fully_connected ? "yes" : "NO");
  std::printf("  evaluation depth:              %zu..%zu (genuine: %zu..%zu; "
              "\"may increase\" per §4.2)\n",
              depth.min_depth, depth.max_depth, genuine_depth.min_depth,
              genuine_depth.max_depth);
  std::printf("  X branch == (A.B'+B).(C.D'+D):        %s\n",
              fx == table_of(parse_expression("(A.B'+B).(C.D'+D)", vars), 4)
                  ? "yes"
                  : "NO");
  std::printf("  Y branch == A'.B'.(C.D'+D) + C'.D':   %s\n",
              fy == table_of(
                        parse_expression("A'.B'.(C.D'+D) + C'.D'", vars), 4)
                  ? "yes"
                  : "NO");
  bool holds = true;
  if (!identical) {
    std::fprintf(stderr,
                 "claim failed: methods 4.1 and 4.2 give different "
                 "networks\n");
    holds = false;
  }
  if (!transformed.device_count_preserved) {
    std::fprintf(stderr,
                 "claim failed: the transformation changed the device "
                 "count\n");
    holds = false;
  }
  return holds ? 0 : 1;
}
