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

}  // namespace sable
