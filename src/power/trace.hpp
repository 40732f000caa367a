// The retained power trace container.
//
// One encryption produces one scalar sample (total energy of the S-box
// evaluation cycle). A TraceSet pairs samples with the plaintexts that
// produced them — everything the one-shot cpa_attack consumes. Storage is
// structure-of-arrays: TraceEngine::run simulates each shard straight
// into its slice. Campaigns that do not retain traces stream them to the
// distinguishers instead (engine/trace_engine.hpp).
#pragma once

#include <cstdint>
#include <vector>

namespace sable {

struct TraceSet {
  /// Bytes per plaintext. 1 for single-S-box targets (the historic
  /// layout); round targets store their packed wide state — `pt_width` =
  /// `RoundSpec::state_bytes()` bytes per trace, row-major.
  std::size_t pt_width = 1;
  std::vector<std::uint8_t> plaintexts;  // size() * pt_width bytes
  std::vector<double> samples;

  std::size_t size() const { return samples.size(); }
  /// Packed plaintext state of one trace (pt_width bytes).
  const std::uint8_t* pt(std::size_t trace) const {
    return plaintexts.data() + trace * pt_width;
  }
  void reserve(std::size_t capacity) {
    plaintexts.reserve(capacity * pt_width);
    samples.reserve(capacity);
  }
  /// Byte-wide convenience append (requires pt_width == 1).
  void add(std::uint8_t pt, double sample);
};

}  // namespace sable
