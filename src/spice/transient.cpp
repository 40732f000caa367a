// One damped Newton-Raphson core for both analyses. Transient steps stamp
// backward-Euler capacitor companions around the last accepted state; the
// DC operating point is the same core with capacitors open, sources at
// t = 0 and a gmin continuation.
#include "spice/transient.hpp"

#include <algorithm>
#include <cmath>

#include "spice/dc.hpp"
#include "spice/linear.hpp"
#include "util/error.hpp"

namespace sable::spice {

namespace {

/// Iteration budget, convergence threshold (max |dV| of an update) and
/// per-iteration voltage clamp of one Newton solve [V].
struct NewtonLimits {
  int max_iterations;
  double vtol;
  double damping_clamp;
};

constexpr NewtonLimits kDcLimits{200, 1e-9, 0.3};
constexpr NewtonLimits kTransientLimits{120, 1e-6, 0.4};
/// DC gmin continuation: start with a heavy shunt, divide by 10 down to
/// the transient's shunt.
constexpr double kDcGminInitial = 1e-3;
constexpr double kGmin = 1e-12;
/// Step subdivisions a transient step may take on Newton failure.
constexpr int kMaxHalvings = 10;

class NewtonCore {
 public:
  explicit NewtonCore(const Circuit& ckt)
      : ckt_(ckt), mna_(ckt.node_count(), ckt.vsources().size()) {}

  const MnaSystem& mna() const { return mna_; }

  /// Solves for the operating point at time `t` in place of the iterate
  /// `x`. With `previous` set, every capacitor is its backward-Euler
  /// companion for a step `dt` from that accepted state; without it,
  /// capacitors are open.
  bool solve(double t, double gmin, double dt,
             const std::vector<double>* previous, const NewtonLimits& limits,
             std::vector<double>& x) {
    for (int iter = 0; iter < limits.max_iterations; ++iter) {
      assemble(t, gmin, dt, previous, x);
      if (!mna_.solve(solution_)) return false;
      // Damped update on the voltage unknowns.
      double max_dv = 0.0;
      const std::size_t num_v = ckt_.node_count() - 1;
      for (std::size_t k = 0; k < mna_.unknown_count(); ++k) {
        double delta = solution_[k] - x[k];
        if (k < num_v) {
          delta = std::clamp(delta, -limits.damping_clamp,
                             limits.damping_clamp);
          max_dv = std::max(max_dv, std::fabs(delta));
        }
        x[k] += delta;
      }
      if (max_dv < limits.vtol) return true;
    }
    return false;
  }

 private:
  double volt(const std::vector<double>& vec, SpiceNode n) const {
    return n == kGround ? 0.0 : vec[mna_.node_unknown(n)];
  }

  // Builds the MNA system linearized around iterate `x`.
  void assemble(double t, double gmin, double dt,
                const std::vector<double>* previous,
                const std::vector<double>& x) {
    mna_.clear();
    for (SpiceNode n = 1; n < ckt_.node_count(); ++n) {
      mna_.stamp_conductance(n, kGround, gmin);
    }
    for (const auto& r : ckt_.resistors()) {
      mna_.stamp_conductance(r.a, r.b, 1.0 / r.resistance);
    }
    if (previous != nullptr) {
      for (const auto& c : ckt_.capacitors()) {
        const double g = c.capacitance / dt;
        mna_.stamp_conductance(c.a, c.b, g);
        const double v_prev = volt(*previous, c.a) - volt(*previous, c.b);
        mna_.stamp_current_into(c.a, g * v_prev);
        mna_.stamp_current_into(c.b, -g * v_prev);
      }
    }
    for (std::size_t s = 0; s < ckt_.vsources().size(); ++s) {
      const auto& src = ckt_.vsources()[s];
      mna_.stamp_vsource(s, src.positive, src.negative, src.waveform.at(t));
    }
    for (const auto& m : ckt_.mosfets()) {
      const double vd = volt(x, m.drain);
      const double vg = volt(x, m.gate);
      const double vs = volt(x, m.source);
      const MosLinearization lin =
          mos_linearize(m.type, m.params, vd, vg, vs, m.width, m.length);
      // Drain current leaves the drain node and enters the source node.
      mna_.stamp_jacobian(m.drain, m.drain, lin.did_dvd);
      mna_.stamp_jacobian(m.drain, m.gate, lin.did_dvg);
      mna_.stamp_jacobian(m.drain, m.source, lin.did_dvs);
      mna_.stamp_jacobian(m.source, m.drain, -lin.did_dvd);
      mna_.stamp_jacobian(m.source, m.gate, -lin.did_dvg);
      mna_.stamp_jacobian(m.source, m.source, -lin.did_dvs);
      const double linear_part =
          lin.did_dvd * vd + lin.did_dvg * vg + lin.did_dvs * vs;
      mna_.stamp_current_into(m.drain, linear_part - lin.id);
      mna_.stamp_current_into(m.source, lin.id - linear_part);
    }
  }

  const Circuit& ckt_;
  MnaSystem mna_;
  std::vector<double> solution_;
};

class TransientEngine {
 public:
  TransientEngine(const Circuit& ckt, const TransientOptions& opt)
      : ckt_(ckt),
        opt_(opt),
        core_(ckt),
        state_(core_.mna().unknown_count(), 0.0) {
    for (const auto& [name, volts] : opt.initial_voltages) {
      const SpiceNode n = ckt_.find_node(name);
      SABLE_REQUIRE(n != kGround, "cannot set the initial voltage of ground");
      state_[core_.mna().node_unknown(n)] = volts;
    }
  }

  TranResult run() {
    TranResult result;
    for (SpiceNode n = 0; n < ckt_.node_count(); ++n) {
      result.node_names.push_back(ckt_.node_name(n));
    }
    result.voltage.resize(ckt_.node_count());
    for (const auto& src : ckt_.vsources()) {
      result.source_names.push_back(src.name);
    }
    result.branch_current.resize(ckt_.vsources().size());

    record(result, 0.0);
    double t = 0.0;
    while (t < opt_.t_stop - 0.5 * opt_.dt) {
      advance(t, opt_.dt, 0);
      t += opt_.dt;
      record(result, t);
    }
    return result;
  }

 private:
  // Advances the state by `dt` from time `t`, recursively halving on
  // Newton failure.
  void advance(double t, double dt, int depth) {
    std::vector<double> next = state_;  // warm start from previous state
    if (core_.solve(t + dt, kGmin, dt, &state_, kTransientLimits, next)) {
      state_ = std::move(next);
      return;
    }
    SABLE_REQUIRE(depth < kMaxHalvings,
                  "transient failed to converge at minimum step size");
    advance(t, dt / 2, depth + 1);
    advance(t + dt / 2, dt / 2, depth + 1);
  }

  void record(TranResult& out, double t) {
    const MnaSystem& mna = core_.mna();
    out.time.push_back(t);
    for (SpiceNode n = 0; n < ckt_.node_count(); ++n) {
      out.voltage[n].push_back(
          n == kGround ? 0.0 : state_[mna.node_unknown(n)]);
    }
    for (std::size_t s = 0; s < ckt_.vsources().size(); ++s) {
      out.branch_current[s].push_back(state_[mna.source_unknown(s)]);
    }
  }

  const Circuit& ckt_;
  const TransientOptions& opt_;
  NewtonCore core_;
  std::vector<double> state_;
};

}  // namespace

TranResult run_transient(const Circuit& circuit,
                         const TransientOptions& options) {
  SABLE_REQUIRE(options.t_stop > 0.0 && options.dt > 0.0,
                "transient requires positive t_stop and dt");
  TransientEngine engine(circuit, options);
  return engine.run();
}

DcResult dc_operating_point(const Circuit& circuit) {
  NewtonCore core(circuit);
  const MnaSystem& mna = core.mna();
  std::vector<double> x(mna.unknown_count(), 0.0);

  // gmin continuation: solve with a heavy shunt first, then relax it.
  bool ok = false;
  for (double gmin = kDcGminInitial; gmin >= kGmin * 0.99; gmin /= 10.0) {
    ok = core.solve(0.0, gmin, 0.0, nullptr, kDcLimits, x);
    if (!ok) break;
  }
  DcResult result;
  result.converged = ok;
  result.node_voltage.assign(circuit.node_count(), 0.0);
  result.source_current.assign(circuit.vsources().size(), 0.0);
  if (ok) {
    for (SpiceNode n = 1; n < circuit.node_count(); ++n) {
      result.node_voltage[n] = x[mna.node_unknown(n)];
    }
    for (std::size_t s = 0; s < circuit.vsources().size(); ++s) {
      result.source_current[s] = x[mna.source_unknown(s)];
    }
  }
  return result;
}

}  // namespace sable::spice
