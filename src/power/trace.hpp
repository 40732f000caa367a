// Power trace containers for side-channel experiments.
//
// One encryption produces one scalar sample (total energy of the S-box
// evaluation cycle). A TraceSet pairs samples with the plaintexts that
// produced them — everything a first-order DPA/CPA attack consumes.
// Storage is structure-of-arrays so batched producers (the trace engine)
// can append whole blocks without per-trace bookkeeping.
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
  /// Appends `count` traces at once (batched producer path); `pts` holds
  /// count * pt_width bytes.
  void append(const std::uint8_t* pts, const double* values,
              std::size_t count);
};

/// Time-resolved traces: `width` samples per encryption (row-major). This
/// is the shape a sampling oscilloscope produces; attacks scan the sample
/// axis and keep the best distinguisher value per key guess.
struct MultiTraceSet {
  std::size_t width = 0;
  std::vector<std::uint8_t> plaintexts;
  std::vector<double> samples;  // size() * width values

  std::size_t size() const { return plaintexts.size(); }
  /// Reserves room for `capacity` traces of `sample_width` samples each.
  void reserve(std::size_t capacity, std::size_t sample_width);
  /// Appends one trace row without any per-call allocation.
  void add(std::uint8_t pt, const double* row, std::size_t row_width);
  void add(std::uint8_t pt, const std::vector<double>& row) {
    add(pt, row.data(), row.size());
  }
  double at(std::size_t trace, std::size_t sample) const {
    return samples[trace * width + sample];
  }
  /// The single-sample set of column `sample` (for reusing scalar attacks).
  TraceSet column(std::size_t sample) const;
};

}  // namespace sable
