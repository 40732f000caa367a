#include "core/enhancer.hpp"

#include "expr/quine_mccluskey.hpp"
#include "util/error.hpp"

namespace sable {

DpdnNetwork synthesize_enhanced_from_table(const TruthTable& f) {
  const std::size_t on = f.popcount();
  SABLE_REQUIRE(on != 0 && on != f.num_rows(),
                "cannot build a DPDN for a constant function");
  return synthesize_enhanced_dpdn(minimized_sop(f), f.num_vars());
}

EnhancementOverhead enhancement_overhead(const DpdnNetwork& enhanced) {
  EnhancementOverhead overhead;
  overhead.dummy_devices = enhanced.pass_gate_device_count();
  overhead.logic_devices = enhanced.device_count() - overhead.dummy_devices;
  overhead.device_overhead =
      overhead.logic_devices == 0
          ? 0.0
          : static_cast<double>(overhead.dummy_devices) /
                static_cast<double>(overhead.logic_devices);
  return overhead;
}

}  // namespace sable
