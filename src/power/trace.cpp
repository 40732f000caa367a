#include "power/trace.hpp"

#include "util/error.hpp"

namespace sable {

void TraceSet::add(std::uint8_t pt, double sample) {
  SABLE_REQUIRE(pt_width == 1,
                "byte-wide add() requires a 1-byte plaintext layout");
  plaintexts.push_back(pt);
  samples.push_back(sample);
}

}  // namespace sable
