// Transistor-level assembly of the SABL gate (sabl_gate.hpp) and the static
// CVSL gate (cvsl_gate.hpp): both hang the same DPDN devices between their
// output nodes. The order in which elements are added fixes the node and
// MNA unknown order, and with it every solver result bit.
#include <array>

#include "sabl/cvsl_gate.hpp"
#include "sabl/sabl_gate.hpp"
#include "tech/capacitance.hpp"

namespace sable {

namespace {

// Names the DPDN nodes (X, Y and Z, nodes 0-2, take `external`; internals
// keep theirs, prefixed "n_") and the input rails, then adds one NMOS per
// DPDN device, gated by its literal's rail.
template <class Gate>
void add_dpdn(Gate& gate, const DpdnNetwork& net, const VarTable& vars,
              const Technology& tech, const SizingPlan& sizing,
              const std::array<const char*, 3>& external) {
  gate.dpdn_node_names.resize(net.node_count());
  for (NodeId n = 0; n < net.node_count(); ++n) {
    gate.dpdn_node_names[n] = net.is_external(n)
                                  ? std::string(external[n])
                                  : "n_" + net.node_name(n);
  }
  for (VarId v = 0; v < net.num_vars(); ++v) {
    gate.input_true.push_back("in_" + vars.name(v));
    gate.input_false.push_back("inb_" + vars.name(v));
  }
  std::size_t dev_index = 0;
  for (const auto& d : net.devices()) {
    const std::string gate_node = d.gate.positive
                                      ? gate.input_true[d.gate.var]
                                      : gate.input_false[d.gate.var];
    gate.circuit.add_mosfet("mn_dpdn_" + std::to_string(dev_index++),
                            spice::MosType::kNmos, gate.dpdn_node_names[d.a],
                            gate_node, gate.dpdn_node_names[d.b], tech.nmos,
                            sizing.dpdn_width, sizing.length);
  }
}

}  // namespace

SablGateCircuit assemble_sabl_gate(const DpdnNetwork& net,
                                   const VarTable& vars,
                                   const Technology& tech,
                                   const SizingPlan& sizing) {
  SablGateCircuit gate;
  spice::Circuit& ckt = gate.circuit;
  const double l = sizing.length;

  // Sense amplifier.
  ckt.add_mosfet("mp_pre_s", spice::MosType::kPmos, "s", "clk", "vdd",
                 tech.pmos, sizing.precharge_width, l);
  ckt.add_mosfet("mp_pre_sb", spice::MosType::kPmos, "sb", "clk", "vdd",
                 tech.pmos, sizing.precharge_width, l);
  ckt.add_mosfet("mp_cc_s", spice::MosType::kPmos, "s", "sb", "vdd",
                 tech.pmos, sizing.sense_p_width, l);
  ckt.add_mosfet("mp_cc_sb", spice::MosType::kPmos, "sb", "s", "vdd",
                 tech.pmos, sizing.sense_p_width, l);
  ckt.add_mosfet("mn_cc_s", spice::MosType::kNmos, "s", "sb", "x", tech.nmos,
                 sizing.sense_n_width, l);
  ckt.add_mosfet("mn_cc_sb", spice::MosType::kNmos, "sb", "s", "y", tech.nmos,
                 sizing.sense_n_width, l);

  // Bridge M1 and clocked foot.
  ckt.add_mosfet("m1_bridge", spice::MosType::kNmos, "x", "clk", "y",
                 tech.nmos, sizing.bridge_width, l);
  ckt.add_mosfet("mn_foot", spice::MosType::kNmos, "z", "clk", "0", tech.nmos,
                 sizing.foot_width, l);

  add_dpdn(gate, net, vars, tech, sizing, {"x", "y", "z"});

  // Output inverters. When f = 1 the X side fires and sense node s falls,
  // so out = inv(s) goes high: out follows f, outb = inv(sb) follows f'.
  // Both outputs precharge low (s, sb precharge high), which is what lets
  // cascaded gates hold their inputs at 0 during precharge.
  ckt.add_mosfet("mp_inv_out", spice::MosType::kPmos, "out", "s", "vdd",
                 tech.pmos, sizing.inv_p_width, l);
  ckt.add_mosfet("mn_inv_out", spice::MosType::kNmos, "out", "s", "0",
                 tech.nmos, sizing.inv_n_width, l);
  ckt.add_mosfet("mp_inv_outb", spice::MosType::kPmos, "outb", "sb", "vdd",
                 tech.pmos, sizing.inv_p_width, l);
  ckt.add_mosfet("mn_inv_outb", spice::MosType::kNmos, "outb", "sb", "0",
                 tech.nmos, sizing.inv_n_width, l);

  // Explicit node capacitances. DPDN nodes from extraction, with the sense
  // NMOS / bridge / foot junctions added to x, y, z.
  gate.dpdn_node_caps = dpdn_node_capacitances(net, tech, sizing);
  const double jn = tech.nmos.cj_per_width + tech.nmos.cov_per_width;
  const double jp = tech.pmos.cj_per_width + tech.pmos.cov_per_width;
  gate.dpdn_node_caps[DpdnNetwork::kNodeX] +=
      jn * (sizing.sense_n_width + sizing.bridge_width);
  gate.dpdn_node_caps[DpdnNetwork::kNodeY] +=
      jn * (sizing.sense_n_width + sizing.bridge_width);
  gate.dpdn_node_caps[DpdnNetwork::kNodeZ] += jn * sizing.foot_width;
  for (NodeId n = 0; n < net.node_count(); ++n) {
    ckt.add_capacitor(gate.dpdn_node_names[n], "0", gate.dpdn_node_caps[n]);
  }

  // Sense nodes: precharge + cross pair junctions + inverter gate load.
  const double inv_gate_cap =
      (tech.nmos.cgate_per_area * sizing.inv_n_width +
       tech.pmos.cgate_per_area * sizing.inv_p_width) *
          l +
      2.0 * tech.nmos.cov_per_width * sizing.inv_n_width +
      2.0 * tech.pmos.cov_per_width * sizing.inv_p_width;
  const double sense_cap = jp * (sizing.precharge_width + sizing.sense_p_width) +
                           jn * sizing.sense_n_width + inv_gate_cap +
                           tech.wire_cap_per_node;
  ckt.add_capacitor("s", "0", sense_cap);
  ckt.add_capacitor("sb", "0", sense_cap);

  // Outputs: inverter junctions + external load.
  const double out_cap = jn * sizing.inv_n_width + jp * sizing.inv_p_width +
                         sizing.output_load;
  ckt.add_capacitor("out", "0", out_cap);
  ckt.add_capacitor("outb", "0", out_cap);

  return gate;
}

CvslGateCircuit assemble_cvsl_gate(const DpdnNetwork& net,
                                   const VarTable& vars,
                                   const Technology& tech,
                                   const SizingPlan& sizing) {
  CvslGateCircuit gate;
  spice::Circuit& ckt = gate.circuit;

  ckt.add_mosfet("mp_cc_q", spice::MosType::kPmos, "q", "nq", "vdd", tech.pmos,
                 sizing.sense_p_width, sizing.length);
  ckt.add_mosfet("mp_cc_nq", spice::MosType::kPmos, "nq", "q", "vdd",
                 tech.pmos, sizing.sense_p_width, sizing.length);

  // f pulls the complement output low, f' the true one; CVSL has no
  // clocked foot, so Z is ground.
  add_dpdn(gate, net, vars, tech, sizing, {"nq", "q", "0"});

  auto caps = dpdn_node_capacitances(net, tech, sizing);
  const double jp = tech.pmos.cj_per_width + tech.pmos.cov_per_width;
  caps[DpdnNetwork::kNodeX] += jp * sizing.sense_p_width + sizing.output_load;
  caps[DpdnNetwork::kNodeY] += jp * sizing.sense_p_width + sizing.output_load;
  for (NodeId n = 0; n < net.node_count(); ++n) {
    if (n == DpdnNetwork::kNodeZ) continue;  // grounded
    ckt.add_capacitor(gate.dpdn_node_names[n], "0", caps[n]);
  }
  return gate;
}

}  // namespace sable
