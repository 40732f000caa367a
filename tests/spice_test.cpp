// Tests for the mini-SPICE engine: linear algebra, waveforms, the level-1
// MOSFET model, DC operating points and transient analysis, each checked
// against closed-form circuit theory, plus fingerprints that pin every
// solver and testbench sample bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "core/fc_synthesizer.hpp"
#include "core/genuine_builder.hpp"
#include "expr/parser.hpp"
#include "sabl/testbench.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/measure.hpp"
#include "spice/mosfet.hpp"
#include "spice/sources.hpp"
#include "spice/transient.hpp"
#include "tech/technology.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"

namespace sable::spice {
namespace {

const Technology kTech = Technology::generic_180nm();

TEST(MatrixTest, SolvesLinearSystem) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 2.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 3.0;
  std::vector<double> b = {5.0, 10.0};
  ASSERT_TRUE(lu_solve(a, b));
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(MatrixTest, DetectsSingularity) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;
  std::vector<double> b = {1.0, 2.0};
  EXPECT_FALSE(lu_solve(a, b));
}

TEST(MatrixTest, SolvesWithPivoting) {
  // Zero on the initial diagonal requires row exchange.
  DenseMatrix a(2, 2);
  a.at(0, 0) = 0.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 0.0;
  std::vector<double> b = {3.0, 7.0};
  ASSERT_TRUE(lu_solve(a, b));
  EXPECT_NEAR(b[0], 7.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(WaveformTest, DcAndPwl) {
  EXPECT_EQ(Waveform::dc(1.8).at(123.0), 1.8);
  const Waveform w = Waveform::pwl({{0.0, 0.0}, {1.0, 2.0}, {3.0, 2.0}});
  EXPECT_NEAR(w.at(0.5), 1.0, 1e-12);
  EXPECT_NEAR(w.at(2.0), 2.0, 1e-12);
  EXPECT_NEAR(w.at(10.0), 2.0, 1e-12);  // holds last value
  EXPECT_THROW(Waveform::pwl({{1.0, 0.0}, {1.0, 1.0}}), InvalidArgument);
}

TEST(WaveformTest, PulsePeriodicity) {
  const Waveform clk = Waveform::pulse(0.0, 1.8, 0.0, 0.1, 0.1, 0.8, 2.0);
  EXPECT_NEAR(clk.at(0.05), 0.9, 1e-9);   // mid-rise
  EXPECT_NEAR(clk.at(0.5), 1.8, 1e-12);   // high
  EXPECT_NEAR(clk.at(1.5), 0.0, 1e-12);   // low
  EXPECT_NEAR(clk.at(2.5), 1.8, 1e-12);   // next period
}

TEST(MosfetTest, CutoffTriodeSaturationRegions) {
  const auto& p = kTech.nmos;
  const double w = 1e-6;
  const double l = 0.18e-6;
  // Cut-off.
  EXPECT_EQ(mos_linearize(MosType::kNmos, p, 1.8, 0.0, 0.0, w, l).id, 0.0);
  // Saturation: vds > vgs - vt.
  const auto sat = mos_linearize(MosType::kNmos, p, 1.8, 1.0, 0.0, w, l);
  const double vov = 1.0 - p.vt0;
  const double expected_sat =
      0.5 * p.kp * (w / l) * vov * vov * (1.0 + p.lambda * 1.8);
  EXPECT_NEAR(sat.id, expected_sat, expected_sat * 1e-9);
  // Triode: small vds.
  const auto tri = mos_linearize(MosType::kNmos, p, 0.05, 1.8, 0.0, w, l);
  EXPECT_GT(tri.id, 0.0);
  EXPECT_LT(tri.id, sat.id);
}

TEST(MosfetTest, SourceDrainSymmetry) {
  const auto& p = kTech.nmos;
  // Swapping drain and source negates the current.
  const auto fwd = mos_linearize(MosType::kNmos, p, 1.0, 1.8, 0.0, 1e-6,
                                 0.18e-6);
  const auto rev = mos_linearize(MosType::kNmos, p, 0.0, 1.8, 1.0, 1e-6,
                                 0.18e-6);
  EXPECT_NEAR(fwd.id, -rev.id, std::fabs(fwd.id) * 1e-12);
}

TEST(MosfetTest, PmosMirrorsNmos) {
  const auto& p = kTech.pmos;
  // PMOS with source at vdd, gate at 0: conducting, current flows source
  // to drain, so id (drain->source) is negative.
  const auto on = mos_linearize(MosType::kPmos, p, 0.0, 0.0, 1.8, 1e-6,
                                0.18e-6);
  EXPECT_LT(on.id, 0.0);
  // Gate at vdd: off.
  const auto off = mos_linearize(MosType::kPmos, p, 0.0, 1.8, 1.8, 1e-6,
                                 0.18e-6);
  EXPECT_EQ(off.id, 0.0);
}

TEST(MosfetTest, ContinuityAtRegionBoundary) {
  const auto& p = kTech.nmos;
  const double vov = 1.2 - p.vt0;
  const auto below = mos_linearize(MosType::kNmos, p, vov - 1e-9, 1.2, 0.0,
                                   1e-6, 0.18e-6);
  const auto above = mos_linearize(MosType::kNmos, p, vov + 1e-9, 1.2, 0.0,
                                   1e-6, 0.18e-6);
  EXPECT_NEAR(below.id, above.id, std::fabs(above.id) * 1e-6);
}

Circuit resistive_divider() {
  Circuit ckt;
  ckt.add_vsource("vin", "in", "0", Waveform::dc(2.0));
  ckt.add_resistor("in", "mid", 1000.0);
  ckt.add_resistor("mid", "0", 1000.0);
  return ckt;
}

Circuit cmos_inverter(double vin) {
  Circuit ckt;
  ckt.add_vsource("vdd", "vdd", "0", Waveform::dc(kTech.vdd));
  ckt.add_vsource("vin", "in", "0", Waveform::dc(vin));
  ckt.add_mosfet("mp", MosType::kPmos, "out", "in", "vdd", kTech.pmos, 2e-6,
                 0.18e-6);
  ckt.add_mosfet("mn", MosType::kNmos, "out", "in", "0", kTech.nmos, 1e-6,
                 0.18e-6);
  return ckt;
}

TEST(DcTest, ResistiveDivider) {
  const Circuit ckt = resistive_divider();
  const DcResult dc = dc_operating_point(ckt);
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.node_voltage[ckt.find_node("mid")], 1.0, 1e-6);
  // Source delivers 1 mA; branch current flows into the + terminal.
  EXPECT_NEAR(dc.source_current[0], -1e-3, 1e-9);
}

TEST(DcTest, CmosInverterTransferPoints) {
  const Circuit ckt = cmos_inverter(0.0);
  const DcResult low_in = dc_operating_point(ckt);
  ASSERT_TRUE(low_in.converged);
  EXPECT_GT(low_in.node_voltage[ckt.find_node("out")], kTech.vdd - 0.05);

  const Circuit ckt_high = cmos_inverter(kTech.vdd);
  const DcResult high_in = dc_operating_point(ckt_high);
  ASSERT_TRUE(high_in.converged);
  EXPECT_LT(high_in.node_voltage[ckt_high.find_node("out")], 0.05);
}

TEST(TransientTest, RcChargingMatchesAnalyticSolution) {
  // R = 1k, C = 1pF, step to 1V at t=0: v(t) = 1 - exp(-t/RC).
  Circuit ckt;
  ckt.add_vsource("vin", "in", "0", Waveform::dc(1.0));
  ckt.add_resistor("in", "out", 1000.0);
  ckt.add_capacitor("out", "0", 1e-12);
  TransientOptions opt;
  opt.t_stop = 5e-9;
  opt.dt = 1e-12;
  const TranResult res = run_transient(ckt, opt);
  const double tau = 1e-9;
  for (double t : {1e-9, 2e-9, 4e-9}) {
    const std::size_t k = res.sample_at(t);
    const double expected = 1.0 - std::exp(-res.time[k] / tau);
    EXPECT_NEAR(res.v("out")[k], expected, 2e-3) << "t = " << t;
  }
}

TEST(TransientTest, ChargeConservationThroughSupply) {
  // Charging a 1 pF cap to 1 V draws q = CV from the source.
  Circuit ckt;
  ckt.add_vsource("vin", "in", "0", Waveform::dc(1.0));
  ckt.add_resistor("in", "out", 100.0);
  ckt.add_capacitor("out", "0", 1e-12);
  TransientOptions opt;
  opt.t_stop = 3e-9;
  opt.dt = 1e-12;
  const TranResult res = run_transient(ckt, opt);
  const double q = delivered_charge(res, "vin", 0.0, 3e-9);
  EXPECT_NEAR(q, 1e-12, 2e-14);
}

TEST(TransientTest, InverterSwitchesWithPulseInput) {
  Circuit ckt;
  ckt.add_vsource("vdd", "vdd", "0", Waveform::dc(kTech.vdd));
  ckt.add_vsource("vin", "in", "0",
                  Waveform::pulse(0.0, kTech.vdd, 0.2e-9, 50e-12, 50e-12,
                                  0.8e-9, 2e-9));
  ckt.add_mosfet("mp", MosType::kPmos, "out", "in", "vdd", kTech.pmos, 2e-6,
                 0.18e-6);
  ckt.add_mosfet("mn", MosType::kNmos, "out", "in", "0", kTech.nmos, 1e-6,
                 0.18e-6);
  ckt.add_capacitor("out", "0", 5e-15);
  TransientOptions opt;
  opt.t_stop = 2e-9;
  opt.dt = 2e-12;
  opt.initial_voltages["out"] = kTech.vdd;
  const TranResult res = run_transient(ckt, opt);
  // Input high at 0.7 ns -> output low; input low again at 1.5 ns -> high.
  EXPECT_LT(res.v("out")[res.sample_at(0.9e-9)], 0.1);
  EXPECT_GT(res.v("out")[res.sample_at(1.9e-9)], kTech.vdd - 0.1);
}

// Three-stage ring oscillator with every stage loaded by 10 fF.
Circuit ring_oscillator() {
  Circuit ckt;
  ckt.add_vsource("vdd", "vdd", "0", Waveform::dc(kTech.vdd));
  const char* nodes[] = {"n1", "n2", "n3"};
  for (int i = 0; i < 3; ++i) {
    const std::string in = nodes[i];
    const std::string out = nodes[(i + 1) % 3];
    ckt.add_mosfet("mp" + std::to_string(i), MosType::kPmos, out, in, "vdd",
                   kTech.pmos, 2e-6, 0.18e-6);
    ckt.add_mosfet("mn" + std::to_string(i), MosType::kNmos, out, in, "0",
                   kTech.nmos, 1e-6, 0.18e-6);
    ckt.add_capacitor(out, "0", 10e-15);
  }
  return ckt;
}

TransientOptions ring_oscillator_options() {
  TransientOptions opt;
  opt.t_stop = 4e-9;
  opt.dt = 2e-12;
  opt.initial_voltages["n1"] = kTech.vdd;  // break the symmetry
  return opt;
}

TEST(TransientTest, RingOscillatorOscillates) {
  // Self-sustained oscillation checks the Newton loop through repeated
  // full-swing nonlinear transitions.
  const TranResult res =
      run_transient(ring_oscillator(), ring_oscillator_options());
  // Count zero crossings of n1 around vdd/2 in the second half.
  const auto& v = res.v("n1");
  int crossings = 0;
  for (std::size_t k = res.sample_at(1e-9) + 1; k < v.size(); ++k) {
    const double mid = kTech.vdd / 2;
    if ((v[k - 1] - mid) * (v[k] - mid) < 0.0) ++crossings;
  }
  EXPECT_GE(crossings, 3) << "ring oscillator failed to oscillate";
}

TEST(TransientTest, RejectsBadOptions) {
  Circuit ckt;
  ckt.add_vsource("v", "a", "0", Waveform::dc(1.0));
  TransientOptions opt;
  opt.t_stop = 0.0;
  EXPECT_THROW(run_transient(ckt, opt), InvalidArgument);
}

TEST(MeasureTest, IntegrateConstant) {
  const std::vector<double> t = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> y = {2.0, 2.0, 2.0, 2.0};
  EXPECT_NEAR(integrate(t, y, 0.0, 3.0), 6.0, 1e-12);
  EXPECT_NEAR(integrate(t, y, 0.5, 1.5), 2.0, 1e-12);
}

// FNV-1a 64 over the bit patterns of a sequence of doubles.
class Fingerprint {
 public:
  void feed(double v) { feed_bits(std::bit_cast<std::uint64_t>(v)); }
  void feed(std::span<const double> values) {
    for (const double v : values) feed(v);
  }
  void feed_bits(std::uint64_t bits) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash_ ^= (bits >> shift) & 0xFFu;
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t waves_fingerprint(const TranResult& waves) {
  Fingerprint fp;
  fp.feed(waves.time);
  for (const auto& v : waves.voltage) fp.feed(v);
  for (const auto& i : waves.branch_current) fp.feed(i);
  return fp.value();
}

std::uint64_t run_fingerprint(const SablRunResult& run) {
  Fingerprint fp;
  fp.feed_bits(waves_fingerprint(run.waves));
  for (const CycleMeasurement& c : run.cycles) {
    fp.feed_bits(c.assignment);
    fp.feed(c.energy);
    fp.feed(c.charge);
    fp.feed(c.peak_current);
    fp.feed(c.recharged_capacitance);
  }
  fp.feed(run.cycle_start);
  fp.feed(run.period);
  return fp.value();
}

std::uint64_t dc_fingerprint(const DcResult& dc) {
  Fingerprint fp;
  fp.feed_bits(dc.converged);
  fp.feed(dc.node_voltage);
  fp.feed(dc.source_current);
  return fp.value();
}

// Every sample bit of the DC solver, the transient solver and the SABL and
// CVSL testbenches, pinned as constants. The tests above check closed-form
// behaviour within tolerances, so only these fingerprints catch a change
// to the stamp order, the Newton loop or the stimulus timing. The gate
// runs are those of SablSpiceTest.FullyConnectedIsFlatterThanGenuine and
// CvslSpiceTest.TransitionEnergyIsDataDependent.
TEST(SpiceTest, WaveformBitsArePinned) {
  EXPECT_EQ(dc_fingerprint(dc_operating_point(resistive_divider())),
            0xccfde9179c7e28e9ull);
  EXPECT_EQ(dc_fingerprint(dc_operating_point(cmos_inverter(0.0))),
            0xeefdee8bd310d138ull);
  EXPECT_EQ(dc_fingerprint(dc_operating_point(cmos_inverter(kTech.vdd))),
            0x8f424c3d62495730ull);
  EXPECT_EQ(waves_fingerprint(
                run_transient(ring_oscillator(), ring_oscillator_options())),
            0xa15f584bbd8144f8ull);

  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const SizingPlan sizing = SizingPlan::defaults(kTech);
  const DpdnNetwork genuine = build_genuine_dpdn(f, 2);
  const DpdnNetwork fc = synthesize_fc_dpdn(f, 2);
  const std::vector<std::uint64_t> sabl_seq = {0b11, 0b00, 0b00, 0b01,
                                               0b10, 0b11, 0b00};
  EXPECT_EQ(run_fingerprint(
                run_sabl_sequence(genuine, vars, kTech, sizing, sabl_seq)),
            0x4552a1f50379ccb4ull);
  EXPECT_EQ(
      run_fingerprint(run_sabl_sequence(fc, vars, kTech, sizing, sabl_seq)),
      0xd498f0ef218225a5ull);
  const std::vector<std::uint64_t> cvsl_seq = {0b00, 0b11, 0b00, 0b01,
                                               0b10, 0b11, 0b01};
  EXPECT_EQ(run_fingerprint(
                run_cvsl_sequence(genuine, vars, kTech, sizing, cvsl_seq)),
            0x057788f03ea55a79ull);
}

}  // namespace
}  // namespace sable::spice
