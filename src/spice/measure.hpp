// Post-processing measurements on transient results: the quantities behind
// Fig. 3 (supply-current profile) and Fig. 4 (charge / discharged
// capacitance per event).
#pragma once

#include <string>

#include "spice/waveform.hpp"

namespace sable::spice {

/// Trapezoidal integral of samples `y` over [t0, t1] (sample-aligned).
double integrate(const std::vector<double>& time, const std::vector<double>& y,
                 double t0, double t1);

/// Charge delivered by source `name` over [t0, t1]: integral of minus the
/// branch current (branch current flows into the + terminal).
double delivered_charge(const TranResult& result, const std::string& name,
                        double t0, double t1);

/// Energy delivered by the source over [t0, t1]: integral of (v+ - v-) times
/// minus the branch current.
double delivered_energy(const TranResult& result, const std::string& name,
                        double t0, double t1);

/// Peak of minus the branch current within [t0, t1].
double peak_delivered_current(const TranResult& result, const std::string& name,
                              double t0, double t1);

}  // namespace sable::spice
